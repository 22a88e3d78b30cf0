"""The JSON document format shared by every CLI command.

One self-describing schema: rationals travel as "p/q" strings, matrices as
row-major arrays of those strings, brackets as sparse {i, j, value} lists
with 0-based indices and i < j. Parsing enforces schema invariants (shapes,
index bounds, antisymmetry of a bivector, symmetry of a bilinear form) and
reports the JSON path of the first offending element; mathematical axioms
such as Jacobi are deliberately left to the commands, so a document that
encodes a broken algebra still parses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .deformation import DeformationPair
from .errors import DocumentError
from .kinds import OPERATOR_SHAPES
from .lie import Bracket, LieAlgebra
from .linalg import Matrix, Vector, parse_rational
from .reps import Representation
from .structures import BilinearForm, Bivector

# Upper bound on $.algebra.dim and $.representation.module_dim. Parsing a
# bracket table allocates dim cells per entry, so an unbounded dim would let
# a small document ask for a huge allocation. The catalog's algebras have
# dimension at most 3.
MAX_DIM = 64

# Upper bound on `lieop hierarchy --kmax`. The hierarchy checks every pair
# of the k_max + 1 operators, whose entries grow with k, so its work grows
# faster than k_max^2; this keeps one flag value from running away.
MAX_KMAX = 64


@dataclass
class Document:
    """Parsed stanzas, still unvalidated mathematically."""

    dim: int
    basis_names: tuple[str, ...]
    bracket: Bracket
    module_dim: Optional[int] = None
    rep_matrices: Optional[tuple[Matrix, ...]] = None
    operators: dict = field(default_factory=dict)
    omega: Optional[Bracket] = None
    varpi: Optional[tuple[Matrix, ...]] = None
    pi_sharp: Optional[Matrix] = None
    b_matrix: Optional[Matrix] = None

    def algebra(self) -> LieAlgebra:
        """Promote the bracket stanza; raises ValidationError on Jacobi failure."""
        return LieAlgebra(self.dim, self.bracket.table, self.basis_names)

    def representation(self, algebra: LieAlgebra, check: bool = True) -> Representation:
        """The representation; with check, raises ValidationError on the axiom."""
        if self.rep_matrices is None:
            raise DocumentError("representation", "stanza missing")
        return Representation(algebra, self.rep_matrices, check=check)

    def deformation_pair(self, algebra: LieAlgebra) -> DeformationPair:
        if self.omega is None or self.varpi is None:
            raise DocumentError("deformation", "stanza missing")
        return DeformationPair(
            omega=self.omega,
            varpi=Representation(algebra, self.varpi, check=False),
        )

    def bivector(self) -> Bivector:
        if self.pi_sharp is None:
            raise DocumentError("bivector", "stanza missing")
        return Bivector(self.pi_sharp)

    def bilinear_form(self) -> BilinearForm:
        if self.b_matrix is None:
            raise DocumentError("bilinear_form", "stanza missing")
        return BilinearForm(self.b_matrix)

    def read(self, stanza: str, algebra: LieAlgebra):
        """A stanza by its lieop.kinds name; DocumentError if it is absent."""
        if stanza == "rho":
            return self.representation(algebra)
        if stanza == "rho_unchecked":
            return self.representation(algebra, check=False)
        if stanza == "pi_sharp":
            return self.bivector()
        if stanza == "bilinear_form":
            return self.bilinear_form()
        if stanza == "deformation":
            return self.deformation_pair(algebra)
        if stanza not in self.operators:
            raise DocumentError(f"operators.{stanza}", "stanza missing")
        return self.operators[stanza]


def _want(obj, key, path, kind):
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise DocumentError(f"{path}.{key}", "missing")
    value = obj[key]
    # JSON true/false arrive as bool, which Python counts as an int.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DocumentError(
            f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_scalar(raw, path):
    if not isinstance(raw, str):
        raise DocumentError(path, f"rationals are strings, got {type(raw).__name__}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_matrix(raw, path, nrows, ncols):
    if not isinstance(raw, list) or len(raw) != nrows:
        raise DocumentError(path, f"expected {nrows} rows")
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != ncols:
            raise DocumentError(f"{path}[{r}]", f"expected {ncols} entries")
        rows.append([_parse_scalar(c, f"{path}[{r}][{k}]") for k, c in enumerate(row)])
    return Matrix(rows)


def _parse_bracket_table(raw, path, dim) -> Bracket:
    if not isinstance(raw, list):
        raise DocumentError(path, "expected a list of bracket entries")
    table = {}
    for idx, item in enumerate(raw):
        here = f"{path}[{idx}]"
        i = _want(item, "i", here, int)
        j = _want(item, "j", here, int)
        if not (0 <= i < j < dim):
            raise DocumentError(here, f"need 0 <= i < j < {dim}, got ({i},{j})")
        if (i, j) in table:
            raise DocumentError(here, f"duplicate bracket entry ({i},{j})")
        value = _want(item, "value", here, dict)
        coords = [0] * dim
        for k_raw, c in value.items():
            # Only a key written as int() writes it back: "01", " 1", "+1"
            # or "0_1" would alias another index and drop its coefficient.
            try:
                k = int(k_raw)
            except ValueError:
                k = None
            if k is None or str(k) != k_raw:
                raise DocumentError(f"{here}.value", f"bad index key {k_raw!r}")
            if not 0 <= k < dim:
                raise DocumentError(f"{here}.value", f"index {k} out of range")
            coords[k] = _parse_scalar(c, f"{here}.value[{k_raw!r}]")
        table[(i, j)] = Vector(coords)
    return Bracket(dim, table)


def _check_dim(value: int, path: str) -> None:
    if value < 1:
        raise DocumentError(path, "must be positive")
    if value > MAX_DIM:
        raise DocumentError(path, f"must be at most {MAX_DIM}, got {value}")


def parse_document(text: str) -> Document:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, and so is an integer literal past
        # the interpreter's digit limit; deep nesting exhausts the recursion.
        raise DocumentError("$", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DocumentError("$", "top level must be an object")

    alg = _want(data, "algebra", "$", dict)
    dim = _want(alg, "dim", "$.algebra", int)
    _check_dim(dim, "$.algebra.dim")
    basis = _want(alg, "basis", "$.algebra", list)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise DocumentError("$.algebra.basis", f"expected {dim} names")
    bracket = _parse_bracket_table(
        _want(alg, "brackets", "$.algebra", list), "$.algebra.brackets", dim
    )
    doc = Document(dim=dim, basis_names=tuple(basis), bracket=bracket)

    if "representation" in data:
        rep = _want(data, "representation", "$", dict)
        m = _want(rep, "module_dim", "$.representation", int)
        _check_dim(m, "$.representation.module_dim")
        mats = _want(rep, "matrices", "$.representation", list)
        if len(mats) != dim:
            raise DocumentError(
                "$.representation.matrices", f"expected {dim} matrices"
            )
        doc.module_dim = m
        doc.rep_matrices = tuple(
            _parse_matrix(raw, f"$.representation.matrices[{i}]", m, m)
            for i, raw in enumerate(mats)
        )
    m = doc.module_dim if doc.module_dim is not None else dim

    if "operators" in data:
        ops = _want(data, "operators", "$", dict)
        for key, raw in ops.items():
            shape = OPERATOR_SHAPES.get(key)
            # An antisymmetric operator belongs in the bivector stanza.
            if shape is None or shape.antisymmetric:
                raise DocumentError(f"$.operators.{key}", "unknown operator key")
            doc.operators[key] = _parse_matrix(raw, f"$.operators.{key}", *shape.dims(dim, m))

    if "deformation" in data:
        defo = _want(data, "deformation", "$", dict)
        omega = _want(defo, "omega", "$.deformation", dict)
        doc.omega = _parse_bracket_table(
            _want(omega, "brackets", "$.deformation.omega", list),
            "$.deformation.omega.brackets",
            dim,
        )
        varpi = _want(defo, "varpi", "$.deformation", dict)
        vm = _want(varpi, "module_dim", "$.deformation.varpi", int)
        if vm != m:
            raise DocumentError(
                "$.deformation.varpi.module_dim", f"expected {m}, got {vm}"
            )
        vmats = _want(varpi, "matrices", "$.deformation.varpi", list)
        if len(vmats) != dim:
            raise DocumentError(
                "$.deformation.varpi.matrices", f"expected {dim} matrices"
            )
        doc.varpi = tuple(
            _parse_matrix(raw, f"$.deformation.varpi.matrices[{i}]", m, m)
            for i, raw in enumerate(vmats)
        )

    if "bivector" in data:
        biv = _want(data, "bivector", "$", dict)
        pi = _parse_matrix(
            _want(biv, "pi_sharp", "$.bivector", list), "$.bivector.pi_sharp", dim, dim
        )
        if not pi.is_antisymmetric():
            raise DocumentError("$.bivector.pi_sharp", "matrix must be antisymmetric")
        doc.pi_sharp = pi

    if "bilinear_form" in data:
        form = _want(data, "bilinear_form", "$", dict)
        b = _parse_matrix(
            _want(form, "b_sharp", "$.bilinear_form", list),
            "$.bilinear_form.b_sharp",
            dim,
            dim,
        )
        if not b.is_symmetric():
            raise DocumentError("$.bilinear_form.b_sharp", "matrix must be symmetric")
        doc.b_matrix = b
    return doc


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(path, f"cannot read file: {exc}") from None
    return parse_document(text)


# ---------------------------------------------------------------------------
# Serialization (canonical: sorted keys, two-space indent, trailing newline)
# ---------------------------------------------------------------------------


def algebra_stanza(g: LieAlgebra) -> dict:
    return {"dim": g.dim, "basis": list(g.basis_names), "brackets": g.to_json()}


def representation_stanza(rho: Representation) -> dict:
    return {
        "module_dim": rho.module_dim,
        "matrices": [mat.to_json() for mat in rho.matrices],
    }


def document_dict(
    algebra: LieAlgebra,
    representation: Optional[Representation] = None,
    operators: Optional[dict] = None,
    deformation: Optional[DeformationPair] = None,
    bivector: Optional[Bivector] = None,
    bilinear_form: Optional[BilinearForm] = None,
) -> dict:
    out = {"algebra": algebra_stanza(algebra)}
    if representation is not None:
        out["representation"] = representation_stanza(representation)
    if operators:
        out["operators"] = {k: mat.to_json() for k, mat in sorted(operators.items())}
    if deformation is not None:
        out["deformation"] = {
            "omega": {"brackets": deformation.omega.to_json()},
            "varpi": {
                "module_dim": deformation.varpi.module_dim,
                "matrices": [mat.to_json() for mat in deformation.varpi.matrices],
            },
        }
    if bivector is not None:
        out["bivector"] = {"pi_sharp": bivector.matrix.to_json()}
    if bilinear_form is not None:
        out["bilinear_form"] = {"b_sharp": bilinear_form.matrix.to_json()}
    return out


def serialize(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
