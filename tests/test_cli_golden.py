"""Golden CLI output: the exact stdout, stderr and exit code of a fixed set
of runs.

Covers `check rota_baxter|r_matrix|rbn|rmn`, `convert` in both directions
and `hierarchy --kmax 4`, each in text and --json mode, on passing catalog
exports and on documents that reach every witness label and precondition
of those commands; a passing `check` of every other kind; every `check`
kind on documents that hold only the algebra, the algebra and a
representation, and those plus every operator, which pins the first
stanza each kind reports missing; `search` of every kind on a small grid;
and `catalog export` of every operator bundle. Any change to a verdict, a
witness, a defect, a certificate, an error message or the formatting
shows up as a diff against cli_golden.json.

To rewrite the golden file after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from lieop import Matrix, trivial_deformation_from_pair
from lieop.catalog import get_entry, list_catalog
from lieop.cli import main
from lieop.documents import document_dict, serialize

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _export(root: Path, name: str, entry: str, bundle: str) -> Path:
    path = root / f"{name}.json"
    code = main(["catalog", "export", entry, "--bundle", bundle, "--output", str(path), "--quiet"])
    assert code == 0, f"export of {entry}/{bundle} failed"
    return path


def _variant(root: Path, name: str, base: Path, operators: dict, pi_sharp=None) -> Path:
    """A copy of base with its operators (and bivector) replaced."""
    doc = json.loads(base.read_text(encoding="utf-8"))
    doc.pop("bivector", None)
    doc["operators"] = {k: Matrix(v).to_json() for k, v in operators.items()}
    if pi_sharp is not None:
        doc["bivector"] = {"pi_sharp": Matrix(pi_sharp).to_json()}
    path = root / f"{name}.json"
    path.write_text(serialize(doc), encoding="utf-8")
    return path


def _documents(root: Path) -> dict[str, Path]:
    docs = {
        "sl2_rb": _export(root, "sl2_rb", "sl2", "rb_skew"),
        "sl2_rbn": _export(root, "sl2_rbn", "sl2", "rbn_identity"),
        "sl2_rmatrix": _export(root, "sl2_rmatrix", "sl2", "rmatrix_standard"),
        "sl2_rmn": _export(root, "sl2_rmn", "sl2", "rmn_identity"),
        "aff1_rmatrix": _export(root, "aff1_rmatrix", "aff1", "rmatrix_symplectic"),
        "aff1_kn": _export(root, "aff1_kn", "aff1", "kn_diag"),
        "aff1_kdn": _export(root, "aff1_kdn", "aff1", "kdn_coadjoint"),
        "heis3_kn": _export(root, "heis3_kn", "heis3", "kn_diag"),
        "abelian_kn": _export(root, "abelian_kn", "abelian_2", "kn_invertible"),
        "aff1_nij": _export(root, "aff1_nij", "aff1", "nij_diag"),
        "aff1_pair": _export(root, "aff1_pair", "aff1", "pair_diag"),
        "aff1_compatible": _export(root, "aff1_compatible", "aff1", "compatible_scaled"),
        "heis3_pair": _export(root, "heis3_pair", "heis3", "pair_diag"),
    }
    aff1_entry = get_entry("aff1")
    adjoint = aff1_entry.representations["adjoint"]
    proj = Matrix.diagonal([1, 0])
    for name, payload in (
        ("aff1_bare", document_dict(algebra=aff1_entry.algebra)),
        ("aff1_rep", document_dict(algebra=aff1_entry.algebra, representation=adjoint)),
        (
            "aff1_ops",
            document_dict(
                algebra=aff1_entry.algebra,
                representation=adjoint,
                operators=dict.fromkeys(("N", "S", "T", "R", "T2"), proj),
            ),
        ),
        (
            "aff1_deformation",
            document_dict(
                algebra=aff1_entry.algebra,
                representation=adjoint,
                operators={"N": proj, "S": proj},
                deformation=trivial_deformation_from_pair(
                    aff1_entry.algebra, adjoint, proj, proj
                ),
            ),
        ),
        # [e1,e2] = e3, [e1,e3] = e1 fails Jacobi at (0, 1, 2).
        (
            "broken_jacobi",
            {
                "algebra": {
                    "dim": 3,
                    "basis": ["e1", "e2", "e3"],
                    "brackets": [
                        {"i": 0, "j": 1, "value": {"2": "1"}},
                        {"i": 0, "j": 2, "value": {"0": "1"}},
                    ],
                },
                "operators": {"N": Matrix.identity(3).to_json()},
            },
        ),
        # rho(e1) = rho(e2) = Id does not represent [e1,e2] = e2.
        (
            "broken_rep",
            {
                **document_dict(algebra=aff1_entry.algebra),
                "representation": {
                    "module_dim": 2,
                    "matrices": [Matrix.identity(2).to_json()] * 2,
                },
                "operators": {"T": proj.to_json()},
            },
        ),
    ):
        docs[name] = root / f"{name}.json"
        docs[name].write_text(serialize(payload), encoding="utf-8")
    sl2, aff1 = docs["sl2_rbn"], docs["aff1_kn"]
    r_skew = [[0, 1, 0], [0, 0, 0], [-2, 0, 0]]
    non_rb = [[1, 1, 0], [0, 0, 1], [1, 0, 0]]
    non_nij = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    non_r_matrix = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    pi_std = [["0", "0", "1/4"], ["0", "0", "0"], ["-1/4", "0", "0"]]
    identity3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    n_shift = [[0, 1], [0, 0]]
    docs.update(
        sl2_non_rb=_variant(root, "sl2_non_rb", sl2, {"R": non_rb, "N": identity3}),
        sl2_rbn_non_nij=_variant(root, "sl2_rbn_non_nij", sl2, {"R": r_skew, "N": non_nij}),
        sl2_non_r_matrix=_variant(
            root, "sl2_non_r_matrix", sl2, {"N": identity3}, pi_sharp=non_r_matrix
        ),
        sl2_rmn_non_nij=_variant(root, "sl2_rmn_non_nij", sl2, {"N": non_nij}, pi_sharp=pi_std),
        sl2_non_skew=_variant(root, "sl2_non_skew", sl2, {"R": non_rb, "N": identity3}),
        aff1_rbn_twist=_variant(
            root, "aff1_rbn_twist", aff1, {"R": [[1, 0], [0, 0]], "N": n_shift}
        ),
        aff1_rmn_twist=_variant(
            root, "aff1_rmn_twist", aff1, {"N": n_shift}, pi_sharp=[[0, 1], [-1, 0]]
        ),
        aff1_not_kn=_variant(
            root, "aff1_not_kn", aff1,
            {"T": [[1, 0], [0, 0]], "S": [[0, 0], [0, 0]], "N": [[1, 0], [0, 1]]},
        ),
    )
    return docs


# A passing document for each check kind the runs above do not cover.
_PASSING = {
    "jacobi": "heis3_kn",
    "representation": "aff1_kdn",
    "nijenhuis": "aff1_nij",
    "kupershmidt": "heis3_kn",
    "nijenhuis_pair": "aff1_pair",
    "dual_nijenhuis_pair": "aff1_kdn",
    "perfect_pair": "aff1_kdn",
    "pair_semidirect": "heis3_pair",
    "pre_lie": "aff1_kn",
    "kn": "heis3_kn",
    "kdn": "aff1_kdn",
    "compatible": "aff1_compatible",
    "nt_condition": "aff1_kn",
    "bilinear_form": "sl2_rbn",
    "skew": "sl2_rb",
    "deformation_pair": "aff1_deformation",
    "trivial_equivalence": "aff1_deformation",
}

_CHECK_KINDS = ("rota_baxter", "r_matrix", "rbn", "rmn", *_PASSING)

# (kind, catalog algebra, grid, extra flags): every search kind, on grids
# small enough to run in well under a second each.
_SEARCHES = (
    ("nijenhuis", "aff1", "0,1", ()),
    ("rota_baxter", "heis3", "0,1", ()),
    ("kupershmidt", "aff1", "-1,0,1", ()),
    ("nijenhuis_pair", "aff1", "0,1", ()),
    ("kn_structure", "aff1", "0,1", ()),
    ("r_matrix", "sl2", "-1,0,1", ()),
    ("compatible_pair", "aff1", "0,1", ("--rep", "coadjoint")),
)

# (case name, argv before the document path, document name or None)
_RUNS = (
    ("check_rota_baxter_pass", ("check", "rota_baxter"), "sl2_rb"),
    ("check_rota_baxter_fail", ("check", "rota_baxter"), "sl2_non_rb"),
    ("check_r_matrix_pass_sl2", ("check", "r_matrix"), "sl2_rmatrix"),
    ("check_r_matrix_pass_aff1", ("check", "r_matrix"), "aff1_rmatrix"),
    ("check_r_matrix_fail", ("check", "r_matrix"), "sl2_non_r_matrix"),
    ("check_rbn_pass", ("check", "rbn"), "sl2_rbn"),
    ("check_rbn_not_rota_baxter", ("check", "rbn"), "sl2_non_rb"),
    ("check_rbn_not_nijenhuis", ("check", "rbn"), "sl2_rbn_non_nij"),
    ("check_rbn_twist_bracket_match", ("check", "rbn"), "aff1_rbn_twist"),
    ("check_rmn_pass", ("check", "rmn"), "sl2_rmn"),
    ("check_rmn_not_r_matrix", ("check", "rmn"), "sl2_non_r_matrix"),
    ("check_rmn_not_nijenhuis", ("check", "rmn"), "sl2_rmn_non_nij"),
    ("check_rmn_twist", ("check", "rmn"), "aff1_rmn_twist"),
    ("convert_rbn_to_rmn", ("convert", "rbn-to-rmn"), "sl2_rbn"),
    ("convert_rmn_to_rbn", ("convert", "rmn-to-rbn"), "sl2_rmn"),
    ("convert_rbn_to_rmn_not_skew", ("convert", "rbn-to-rmn"), "sl2_non_skew"),
    ("convert_rmn_to_rbn_not_rmn", ("convert", "rmn-to-rbn"), "sl2_non_r_matrix"),
    ("hierarchy_aff1_kn", ("hierarchy", "--kmax", "4"), "aff1_kn"),
    ("hierarchy_aff1_kdn", ("hierarchy", "--kmax", "4"), "aff1_kdn"),
    ("hierarchy_heis3_kn", ("hierarchy", "--kmax", "4"), "heis3_kn"),
    ("hierarchy_abelian_kn", ("hierarchy", "--kmax", "4"), "abelian_kn"),
    ("hierarchy_not_kn", ("hierarchy", "--kmax", "4"), "aff1_not_kn"),
    ("check_nijenhuis_not_jacobi", ("check", "nijenhuis"), "broken_jacobi"),
    ("check_kupershmidt_invalid_rep", ("check", "kupershmidt"), "broken_rep"),
    *((f"check_{kind}_pass", ("check", kind), doc) for kind, doc in _PASSING.items()),
    # Documents that hold ever more stanzas pin the order a kind reads them.
    *(
        (f"check_{kind}_{doc}", ("check", kind), doc)
        for kind in _CHECK_KINDS
        for doc in ("aff1_bare", "aff1_rep", "aff1_ops")
    ),
    *(
        (f"search_{kind}", ("search", kind, "--algebra", alg, "--grid", grid, *flags), None)
        for kind, alg, grid, flags in _SEARCHES
    ),
    *(
        (f"export_{name}_{op.name}", ("catalog", "export", name, "--bundle", op.name), None)
        for name in list_catalog()
        for op in get_entry(name).operators
    ),
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def collect(root: Path) -> dict:
    docs = _documents(root)
    results = {}
    for name, argv, doc in _RUNS:
        path, shown = ([str(docs[doc])], [f"<{doc}>"]) if doc else ([], [])
        for mode, extra in (("text", []), ("json", ["--json"])):
            code, stdout, stderr = _run([*argv, *path, *extra])
            results[f"{name}.{mode}"] = {
                "argv": [*argv, *shown, *extra],
                "exit": code,
                "stdout": stdout,
                "stderr": stderr,
            }
    return results


_FAIL_HEADER = re.compile(r": FAIL \((\d+) witness\(es\)\)$")


def test_golden_witnesses_keep_one_indented_line_each():
    # The k lines after a `FAIL (k witness(es))` header and every line after
    # a `check failed:` header are witness lines; a multi-line defect would
    # spill onto lines without the indent.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case, run in golden.items():
        out = run["stdout"].splitlines()
        for n, line in enumerate(out):
            header = _FAIL_HEADER.search(line)
            if header:
                block = out[n + 1 : n + 1 + int(header.group(1))]
                assert len(block) == int(header.group(1)), case
                assert all(w.startswith("  ") for w in block), case
        err = run["stderr"].splitlines()
        for n, line in enumerate(err):
            if line.startswith("check failed:"):
                assert all(w.startswith("  ") for w in err[n + 1 :]), case


def test_cli_output_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = collect(tmp_path)
    assert sorted(actual) == sorted(expected)
    for case in expected:
        assert actual[case] == expected[case], case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = collect(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
