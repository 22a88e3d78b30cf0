"""Golden CLI output: the exact stdout and exit code of a fixed set of runs.

Covers `check rota_baxter|r_matrix|rbn|rmn`, `convert` in both directions
and `hierarchy --kmax 4`, each in text and --json mode, on passing catalog
exports and on documents that reach every witness label and precondition
of those commands. Any change to a verdict, a witness, a defect, a
certificate or the formatting shows up as a diff against cli_golden.json.

To rewrite the golden file after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from lieop import Matrix
from lieop.cli import main
from lieop.documents import serialize

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
    }
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


# (case name, argv before the document path, document name)
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
)


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def collect(root: Path) -> dict:
    docs = _documents(root)
    results = {}
    for name, argv, doc in _RUNS:
        for mode, extra in (("text", []), ("json", ["--json"])):
            code, stdout = _run([*argv, str(docs[doc]), *extra])
            results[f"{name}.{mode}"] = {
                "argv": [*argv, f"<{doc}>", *extra],
                "exit": code,
                "stdout": stdout,
            }
    return results


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
