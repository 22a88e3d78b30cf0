import json

import pytest

from lieop import DocumentError
from lieop.documents import parse_document


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
