"""Lie algebras given by structure constants, and raw bracket tables.

A Bracket is an antisymmetric bilinear product stored only on basis pairs
i < j, so antisymmetry is structural and never needs checking. It makes no
claim about the Jacobi identity: deformed products, candidate 2-cochains,
and sub-adjacent brackets all live here until they are validated.
Promoting a Bracket to a LieAlgebra runs the Jacobi check eagerly and
fails loudly.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .errors import ShapeError, ValidationError
from .kernel import BracketImage, deformed_brackets, divided, integer_image
from .linalg import Matrix, Vector, format_rational
from .report import CheckReport, Witness, report_from_witnesses


class Bracket:
    """Antisymmetric bilinear product on an n-dimensional space.

    table maps (i, j) with i < j to the vector value [e_i, e_j]; absent
    pairs are zero. [e_i, e_i] = 0 by storage convention. The table is a
    read-only view: a bracket is hashed, used as a cache key and trusted
    once validated, so it must not change after construction.
    """

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Vector]):
        self.dim = dim
        clean: dict[tuple[int, int], Vector] = {}
        for (i, j), value in table.items():
            if not (0 <= i < j < dim):
                raise ShapeError(f"bracket table key ({i},{j}) needs 0 <= i < j < {dim}")
            if value.dim != dim:
                raise ShapeError(f"bracket value at ({i},{j}) has dim {value.dim}, expected {dim}")
            if not value.is_zero():
                clean[(i, j)] = value
        self.table = MappingProxyType(clean)

    @classmethod
    def from_function(cls, dim: int, f: Callable[[int, int], Vector]) -> "Bracket":
        return cls(dim, {(i, j): f(i, j) for i in range(dim) for j in range(i + 1, dim)})

    @classmethod
    def zero(cls, dim: int) -> "Bracket":
        return cls(dim, {})

    def basis_bracket(self, i: int, j: int) -> Vector:
        if i == j:
            return Vector.zero(self.dim)
        if i < j:
            return self.table.get((i, j), Vector.zero(self.dim))
        return -self.table.get((j, i), Vector.zero(self.dim))

    def __call__(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the basis table."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ShapeError(f"bracket on dim {self.dim}, got vectors of dim {x.dim}, {y.dim}")
        xc, yc = x.coords, y.coords
        out = None
        for (i, j), value in self.table.items():
            xi, yj, xj, yi = xc[i], yc[j], xc[j], yc[i]
            c = (xi * yj if xi and yj else 0) - (xj * yi if xj and yi else 0)
            if c:
                term = value.scale(c)
                out = term if out is None else out + term
        return Vector.zero(self.dim) if out is None else out

    @cached_property
    def integer_image(self) -> BracketImage:
        """The table in integers (see lieop.kernel); it never changes."""
        return BracketImage(self)

    @cached_property
    def ad_family(self) -> "Representation":
        """The unchecked adjoint action family (see reps), built once."""
        from .reps import _ad_family  # cycle: reps builds on lie
        return _ad_family(self)

    @cached_property
    def coad_family(self) -> "Representation":
        """The unchecked coadjoint action family (see reps), built once."""
        from .reps import _coad_family  # cycle: reps builds on lie
        return _coad_family(self)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bracket)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.table.items())))

    def to_json(self):
        return [
            {
                "i": i,
                "j": j,
                "value": {
                    str(k): format_rational(c)
                    for k, c in enumerate(v.coords)
                    if c
                },
            }
            for (i, j), v in sorted(self.table.items())
        ]

    def __repr__(self) -> str:
        entries = ", ".join(f"[{i},{j}]={v}" for (i, j), v in sorted(self.table.items()))
        return f"Bracket(dim={self.dim}, {entries or 'zero'})"


class LieAlgebra(Bracket):
    """A Bracket whose Jacobi identity has been verified exactly."""

    def __init__(
        self,
        dim: int,
        table: Mapping[tuple[int, int], Vector],
        basis_names: Iterable[str] | None = None,
    ):
        super().__init__(dim, table)
        names = tuple(basis_names) if basis_names is not None else tuple(
            f"e{k + 1}" for k in range(dim)
        )
        if len(names) != dim:
            raise ShapeError(f"{len(names)} basis names for dim {dim}")
        self.basis_names = names
        jacobi = check_jacobi(self)
        if not jacobi.ok:
            raise ValidationError("Jacobi identity fails", jacobi)

    @classmethod
    def from_structure(
        cls,
        dim: int,
        constants: Mapping[tuple[int, int], Mapping[int, object]],
        basis_names: Iterable[str] | None = None,
    ) -> "LieAlgebra":
        """Build from sparse structure constants {(i,j): {k: c_ij^k}}, i < j."""
        table = {}
        for (i, j), comps in constants.items():
            coords = [0] * dim
            for k, c in comps.items():
                coords[k] = c
            table[(i, j)] = Vector(coords)
        return cls(dim, table, basis_names)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


BracketLike = Union[Bracket, LieAlgebra]


def check_jacobi(b: Bracket) -> CheckReport:
    """Cyclic sum [[e_i,e_j],e_k] + [[e_k,e_i],e_j] + [[e_j,e_k],e_i] over i<j<k."""
    witnesses = []
    n = b.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (Vector.basis(n, t) for t in (i, j, k))
                defect = (
                    b(b(ei, ej), ek) + b(b(ek, ei), ej) + b(b(ej, ek), ei)
                )
                if not defect.is_zero():
                    witnesses.append(Witness("jacobi", (i, j, k), defect))
    return report_from_witnesses(witnesses, checked="jacobi")


def promote(b: Bracket, basis_names: Iterable[str] | None = None) -> LieAlgebra:
    """Validate a Bracket's Jacobi identity and wrap it as a LieAlgebra."""
    return LieAlgebra(b.dim, b.table, basis_names)


def adjoint_matrices(g: BracketLike) -> tuple[Matrix, ...]:
    """Matrices of ad(e_i), column j = [e_i, e_j]."""
    n = g.dim
    return tuple(
        Matrix.from_columns([g.basis_bracket(i, j) for j in range(n)])
        for i in range(n)
    )


def ad_action(g: BracketLike, x: Vector) -> Matrix:
    """Matrix of ad(x) = [x, -] against the basis."""
    n = g.dim
    return Matrix.from_columns([g(x, Vector.basis(n, j)) for j in range(n)])


def deformed_algebra(g: BracketLike, n_op: Matrix) -> Bracket:
    """The deformed product [x,y]_N = [Nx,y] + [x,Ny] - N[x,y].

    Returned unvalidated: it satisfies Jacobi whenever N is a Nijenhuis
    operator for g, but the formula itself is defined for any N. Its
    constants are the torsion loop's inner terms (lieop.kernel), divided by
    their scale.
    """
    if n_op.shape != (g.dim, g.dim):
        raise ShapeError(f"operator shape {n_op.shape} on algebra of dim {g.dim}")
    flat, b = integer_image([c for row in n_op.rows for c in row])
    image = g.integer_image
    scale = image.scale * b
    return Bracket(
        g.dim,
        {
            ij: Vector(divided(inner, scale))
            for ij, inner in deformed_brackets(image, flat)
            if any(inner)
        },
    )


_SEMIDIRECT_CACHE: dict = {}


def semidirect_product(g: BracketLike, rho: "Representation") -> LieAlgebra:
    """g semidirect V via rho: [x+u, y+v] = [x,y] + rho(x)v - rho(y)u.

    A plain Bracket is promoted (default basis names). Raises
    ValidationError when g fails Jacobi or rho fails the representation
    axiom against g's bracket, and ShapeError when rho acts on an algebra
    of another dimension. Memoized: pair tests probe many operators against
    one and the same semidirect algebra.
    """
    # Bracket equality ignores basis names, but the result carries g's.
    key = (g, getattr(g, "basis_names", None), rho)
    cached = _SEMIDIRECT_CACHE.get(key)
    if cached is not None:
        return cached
    g = g if isinstance(g, LieAlgebra) else promote(g)
    rep_ok = rho.check_against(g)
    if not rep_ok.ok:
        raise ValidationError("not a representation", rep_ok)
    n, m = g.dim, rho.module_dim
    dim = n + m
    table: dict[tuple[int, int], Vector] = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = g.basis_bracket(i, j)
            table[(i, j)] = Vector(list(v.coords) + [0] * m)
        mat = rho.matrices[i]
        for b in range(m):
            col = mat.column(b)
            table[(i, n + b)] = Vector([0] * n + list(col.coords))
    names = list(g.basis_names) + [f"v{b + 1}" for b in range(m)]
    out = LieAlgebra(dim, table, names)
    _SEMIDIRECT_CACHE[key] = out
    return out
