"""The kind registry (lieop.kinds) against everything that reads it: the
check CLI, catalog verification, grid_search and the document parser."""

from __future__ import annotations

import json

import pytest

from lieop import (
    DocumentError,
    GridCapExceeded,
    Matrix,
    Representation,
    trivial_deformation_from_pair,
)
from lieop.catalog import SEARCH_KINDS, get_entry, grid_search, list_catalog
from lieop.cli import build_parser, main
from lieop.documents import document_dict, parse_document, serialize
from lieop.kinds import CATALOG_KINDS, KINDS, OPERATOR_SHAPES
from lieop.structures import Bivector

# The choice orders `lieop check --help` and `lieop search --help` print.
CHECK_ORDER = (
    "jacobi", "representation", "nijenhuis", "rota_baxter", "kupershmidt",
    "nijenhuis_pair", "dual_nijenhuis_pair", "perfect_pair", "pair_semidirect",
    "pre_lie", "kn", "kdn", "compatible", "nt_condition", "r_matrix", "rmn", "rbn",
    "bilinear_form", "skew", "deformation_pair", "trivial_equivalence",
)
SEARCH_ORDER = (
    "nijenhuis", "rota_baxter", "kupershmidt", "nijenhuis_pair", "kn_structure",
    "r_matrix", "compatible_pair",
)

# The path each stanza's absence is reported at.
MISSING_AT = {
    "rho": "representation",
    "rho_unchecked": "representation",
    "pi_sharp": "bivector",
    "bilinear_form": "bilinear_form",
    "deformation": "deformation",
    **{key: f"operators.{key}" for key in ("N", "S", "T", "R", "T2")},
}


def _choices(command: str) -> tuple:
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    kind = next(a for a in sub.choices[command]._actions if a.dest == "kind")
    return tuple(kind.choices)


def test_cli_choices_follow_the_registry_in_help_order():
    assert _choices("check") == CHECK_ORDER == tuple(KINDS)
    assert _choices("search") == SEARCH_ORDER == SEARCH_KINDS


def test_both_spellings_name_one_row():
    spelled = {
        "kn": "kn_structure", "kdn": "kdn_structure", "compatible": "compatible_pair",
        "rbn": "rbn_structure", "rmn": "rmn_structure",
    }
    for name, row in KINDS.items():
        assert row.catalog_name == spelled.get(name, name)
        assert CATALOG_KINDS[row.catalog_name] is row


@pytest.fixture(scope="module")
def full_document(tmp_path_factory):
    """sl2 with every stanza any kind reads."""
    sl2 = get_entry("sl2")
    g, ad = sl2.algebra, sl2.representations["adjoint"]
    ops = {op.name: op.matrices for op in sl2.operators}
    r_skew, ident = ops["rb_skew"]["R"], Matrix.identity(3)
    doc = document_dict(
        algebra=g,
        representation=ad,
        operators={"N": ident, "S": ident, "T": r_skew, "T2": r_skew, "R": r_skew},
        deformation=trivial_deformation_from_pair(g, ad, ident, ident),
        bivector=Bivector(ops["rmatrix_standard"]["pi_sharp"]),
        bilinear_form=sl2.bilinear_form,
    )
    path = tmp_path_factory.mktemp("kinds") / "full.json"
    path.write_text(serialize(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bare_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("kinds") / "bare.json"
    path.write_text(serialize(document_dict(algebra=get_entry("sl2").algebra)), "utf-8")
    return str(path)


@pytest.mark.parametrize("name", CHECK_ORDER)
def test_every_kind_runs_through_check(name, full_document, capsys):
    code = main(["check", name, full_document, "--json"])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    payload = json.loads(captured.out)
    assert payload["kind"] == name
    assert payload["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("name", CHECK_ORDER)
def test_first_missing_stanza_is_the_rows_first(name, bare_document, capsys):
    row = KINDS[name]
    code = main(["check", name, bare_document])
    err = capsys.readouterr().err
    if not row.stanzas:
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err == f"error: {MISSING_AT[row.stanzas[0]]}: stanza missing\n"


def test_every_catalog_bundle_resolves_to_a_row():
    seen = set()
    for name in list_catalog():
        for op in get_entry(name).operators:
            row = CATALOG_KINDS[op.kind]
            assert set(op.matrices) == set(row.operator_keys), (name, op.name)
            seen.add(op.kind)
    assert len(list_catalog()) == 6 and len(seen) >= 7


# Slot counts written out, on aff1 (n = 2) with a 1-dimensional module.
SLOTS = {
    "nijenhuis": 4,  # N: n * n
    "rota_baxter": 4,  # R: n * n
    "kupershmidt": 2,  # T: n * m
    "nijenhuis_pair": 5,  # N, S: n * n + m * m
    "kn_structure": 7,  # T, S, N
    "r_matrix": 1,  # pi_sharp: n (n - 1) / 2 above the diagonal
    "compatible_pair": 4,  # T, T2: 2 n m
}


@pytest.mark.parametrize("kind", SEARCH_ORDER)
def test_every_search_kind_runs_and_its_cap_counts_its_slots(kind):
    g = get_entry("aff1").algebra
    trivial = Representation(g, [Matrix.zeros(1, 1)] * 2)
    row = CATALOG_KINDS[kind]
    rho = trivial if row.needs_rho else None
    values = (-1, 0, 1)
    assert row.slots(2, 1) == SLOTS[kind]
    count = len(values) ** SLOTS[kind]
    with pytest.raises(GridCapExceeded) as err:
        grid_search(g, rho, kind, values, cap=count - 1)
    assert str(err.value) == f"{count} candidates exceed the cap of {count - 1}"
    found = grid_search(g, rho, kind, values, cap=count)
    assert found and len(found) <= count


def _aff1_raw(operators=None, bivector=None) -> dict:
    aff1 = get_entry("aff1")
    doc = document_dict(
        algebra=aff1.algebra,
        representation=Representation(aff1.algebra, [Matrix.zeros(1, 1)] * 2),
    )
    if operators is not None:
        doc["operators"] = operators
    if bivector is not None:
        doc["bivector"] = {"pi_sharp": bivector}
    return doc


def _zeros(rows: int, cols: int) -> list:
    return Matrix.zeros(rows, cols).to_json()


def test_parser_accepts_exactly_the_registry_operator_keys_with_their_shapes():
    n, m = 2, 1
    for key, shape in OPERATOR_SHAPES.items():
        rows, cols = shape.dims(n, m)
        if shape.antisymmetric:
            doc = parse_document(json.dumps(_aff1_raw(bivector=_zeros(rows, cols))))
            assert doc.pi_sharp.shape == (rows, cols)
            wrong = _aff1_raw(bivector=_zeros(rows, cols + 1))
            where = "$.bivector.pi_sharp[0]"
        else:
            doc = parse_document(json.dumps(_aff1_raw({key: _zeros(rows, cols)})))
            assert doc.operators[key].shape == (rows, cols)
            wrong = _aff1_raw({key: _zeros(rows, cols + 1)})
            where = f"$.operators.{key}[0]"
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(wrong))
        assert err.value.path == where
    for key in ("pi_sharp", "X", "n", "T3"):
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(_aff1_raw({key: _zeros(n, n)})))
        assert str(err.value) == f"$.operators.{key}: unknown operator key"
