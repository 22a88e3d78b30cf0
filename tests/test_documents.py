import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieop import DocumentError
from lieop.documents import MAX_DIM, parse_document


def _doc(dim=2, brackets=None, module_dim=None):
    doc = {
        "algebra": {
            "dim": dim,
            "basis": ["a", "b"],
            "brackets": brackets if brackets is not None else [{"i": 0, "j": 1, "value": {"1": "1"}}],
        }
    }
    if module_dim is not None:
        doc["representation"] = {"module_dim": module_dim, "matrices": [[["0"]], [["0"]]]}
    return json.dumps(doc)


class TestIntegerFields:
    def test_well_formed_document_parses(self):
        doc = parse_document(_doc(module_dim=1))
        assert doc.dim == 2 and doc.module_dim == 1
        assert list(doc.bracket.table) == [(0, 1)]

    @pytest.mark.parametrize(
        "text,path",
        [
            (_doc(dim=True), "$.algebra.dim"),
            (_doc(module_dim=True), "$.representation.module_dim"),
            (_doc(brackets=[{"i": False, "j": 1, "value": {}}]), "$.algebra.brackets[0].i"),
            (_doc(brackets=[{"i": 0, "j": True, "value": {}}]), "$.algebra.brackets[0].j"),
        ],
        ids=["dim", "module_dim", "bracket_i", "bracket_j"],
    )
    def test_booleans_are_not_integers(self, text, path):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.path == path


class TestDeformationOmega:
    """$.deformation.omega.brackets is required, as $.algebra.brackets is:
    a misspelt key must not parse as the zero 2-cochain."""

    def _deformation_doc(self, omega):
        doc = json.loads(_doc())
        zero = [["0", "0"], ["0", "0"]]
        doc["deformation"] = {"omega": omega, "varpi": {"module_dim": 2, "matrices": [zero, zero]}}
        return json.dumps(doc)

    def test_brackets_parse(self):
        bracket = [{"i": 0, "j": 1, "value": {"0": "2"}}]
        doc = parse_document(self._deformation_doc({"brackets": bracket}))
        assert doc.omega.basis_bracket(0, 1).coords == (2, 0)
        assert parse_document(self._deformation_doc({"brackets": []})).omega.is_zero()

    @pytest.mark.parametrize(
        "omega, reason",
        [
            ({"bracket": [{"i": 0, "j": 1, "value": {"0": "2"}}]}, "missing"),
            ({}, "missing"),
            ({"brackets": {}}, "expected list, got dict"),
        ],
    )
    def test_missing_or_misshapen_brackets_are_refused(self, omega, reason):
        with pytest.raises(DocumentError) as err:
            parse_document(self._deformation_doc(omega))
        assert err.value.path == "$.deformation.omega.brackets"
        assert reason in str(err.value)


class TestBracketKeys:
    @pytest.mark.parametrize("key", ["01", " 1", "+1", "0_1", "-0", "x"])
    def test_non_canonical_index_key_is_refused(self, key):
        # {"1": "1", "01": "5"} would otherwise parse as [e0, e1] = 5 e1.
        with pytest.raises(DocumentError) as err:
            parse_document(_doc(brackets=[{"i": 0, "j": 1, "value": {"1": "1", key: "5"}}]))
        assert err.value.path == "$.algebra.brackets[0].value"
        assert f"bad index key {key!r}" in str(err.value)

    @pytest.mark.parametrize("key", ["2", "-1"])
    def test_decimal_key_outside_the_dimension(self, key):
        with pytest.raises(DocumentError, match=f"index {key} out of range"):
            parse_document(_doc(brackets=[{"i": 0, "j": 1, "value": {key: "1"}}]))


class TestDimensionBounds:
    """dim and module_dim are refused past MAX_DIM before anything is
    allocated for them; the documents here are a few hundred bytes."""

    def test_dim_past_the_bound(self):
        with pytest.raises(DocumentError) as err:
            parse_document(_doc(dim=MAX_DIM + 1))
        assert err.value.path == "$.algebra.dim"
        assert str(MAX_DIM) in str(err.value)

    def test_module_dim_past_the_bound(self):
        with pytest.raises(DocumentError) as err:
            parse_document(_doc(module_dim=MAX_DIM + 1))
        assert err.value.path == "$.representation.module_dim"
        assert str(MAX_DIM) in str(err.value)

    def test_dims_at_the_bound_parse(self):
        algebra = {
            "dim": MAX_DIM,
            "basis": [f"e{k}" for k in range(MAX_DIM)],
            "brackets": [{"i": 0, "j": MAX_DIM - 1, "value": {"0": "1"}}],
        }
        assert parse_document(json.dumps({"algebra": algebra})).dim == MAX_DIM
        line = {"dim": 1, "basis": ["e"], "brackets": []}
        module = {"module_dim": MAX_DIM, "matrices": [[["0"] * MAX_DIM] * MAX_DIM]}
        doc = parse_document(json.dumps({"algebra": line, "representation": module}))
        assert doc.module_dim == MAX_DIM


_SCHEMA_KEYS = (
    "algebra", "dim", "basis", "brackets", "i", "j", "value", "representation",
    "module_dim", "matrices", "operators", "N", "S", "T", "R", "T2", "deformation",
    "omega", "varpi", "bivector", "pi_sharp", "bilinear_form", "b_sharp", "0", "1",
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "x", ""])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=3), children, max_size=5),
    max_leaves=30,
)


class TestParserRobustness:
    def test_deep_nesting_is_a_document_error(self):
        # json.loads raises RecursionError here, not a JSONDecodeError
        with pytest.raises(DocumentError) as err:
            parse_document("[" * 100000)
        assert err.value.path == "$"

    def test_overlong_integer_is_a_document_error(self):
        # Past the interpreter's int-conversion digit limit json.loads raises
        # a plain ValueError; without a limit the document fails its schema.
        text = '{"algebra": {"dim": ' + "9" * 5000 + "}}"
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.path.startswith("$")

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_any_json_value_parses_or_fails_with_a_path(self, value):
        try:
            parse_document(json.dumps(value))
        except DocumentError as exc:
            assert isinstance(exc.path, str) and exc.path.startswith("$")
