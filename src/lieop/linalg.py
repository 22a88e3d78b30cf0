"""Exact rational linear algebra over Python ints and fractions.

A scalar is an ``int`` when its value is an integer and a
``fractions.Fraction`` in lowest terms (positive denominator) otherwise.
Both are exact, and they compare and hash by value: ``2 == Fraction(2)``
and ``hash(2) == hash(Fraction(2))``. So a value such as
``Fraction(1, 2) * 2``, which arithmetic may leave as a Fraction, still
equals, hashes and serializes like the int ``1``, and equality of vectors
and matrices is value equality. No ``float`` is ever produced: every
identity elsewhere in the package is an exact equality test with zero
tolerance. Integer values stay ints because CPython multiplies and adds
small ints in C, far faster than Fraction arithmetic.

Elimination (determinant, solving, inversion, nullspace) runs fraction-free
in Bareiss form on denominator-cleared integer rows, which keeps the
intermediate entries at single-minor size instead of letting numerators
compound quadratically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import NoSolution, NotInvertible, ShapeError

Rational = Union[int, Fraction]
Scalar = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def rational(value: Scalar) -> Rational:
    """Coerce an int, Fraction, or "p/q" string to a canonical scalar: an
    int when the value is an integer, a Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        # bool and other int subclasses: keep the value, drop the type
        return int(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


def parse_rational(text: str) -> Rational:
    """Parse the wire format "p/q" (or "p"), minus sign on p only, q > 0."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    return rational(Fraction(text))


def format_rational(value: Rational) -> str:
    """Inverse of parse_rational; "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Vector and Matrix have slots, not a per-instance dict: sweeps and
# searches hold thousands of them.
@dataclass(frozen=True, slots=True)
class Vector:
    coords: tuple[Rational, ...]

    def __init__(self, coords: Iterable[Scalar]):
        object.__setattr__(self, "coords", tuple(rational(c) for c in coords))

    @classmethod
    def _make(cls, coords: tuple[Rational, ...]) -> "Vector":
        # Trusted fast path: coords must already be canonical scalars.
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector._make((0,) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> "Vector":
        return Vector._make(tuple(1 if j == i else 0 for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Rational:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        self._same_dim(other)
        return Vector._make(
            tuple(
                a + b if a and b else (a if a else b)
                for a, b in zip(self.coords, other.coords)
            )
        )

    def __sub__(self, other: "Vector") -> "Vector":
        self._same_dim(other)
        return Vector._make(
            tuple(
                a - b if b else a for a, b in zip(self.coords, other.coords)
            )
        )

    def __neg__(self) -> "Vector":
        return Vector._make(tuple(-a for a in self.coords))

    def scale(self, c: Scalar) -> "Vector":
        c = rational(c)
        return Vector._make(tuple(c * a if a else a for a in self.coords))

    def dot(self, other: "Vector") -> Rational:
        self._same_dim(other)
        return sum(a * b for a, b in zip(self.coords, other.coords) if a and b)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _same_dim(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"vector dims {self.dim} != {other.dim}")

    def to_json(self):
        return [format_rational(c) for c in self.coords]

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(c) for c in self.coords) + ")"


@dataclass(frozen=True, slots=True)
class Matrix:
    rows: tuple[tuple[Rational, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(rational(c) for c in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "rows", data)

    @classmethod
    def _make(cls, rows: tuple[tuple[Rational, ...], ...]) -> "Matrix":
        # Trusted fast path: rows must already be rectangular canonical scalars.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._make(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix._make(((0,) * ncols,) * nrows)

    @staticmethod
    def diagonal(entries: Sequence[Scalar]) -> "Matrix":
        n = len(entries)
        return Matrix(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            raise ShapeError("no columns")
        dim = cols[0].dim
        if any(col.dim != dim for col in cols):
            raise ShapeError("columns of unequal dims")
        return Matrix._make(tuple(zip(*(col.coords for col in cols))))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: tuple[int, int]) -> Rational:
        i, j = key
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return Vector._make(tuple(row[j] for row in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._make(
            tuple(
                tuple(
                    a + b if a and b else (a if a else b)
                    for a, b in zip(ra, rb)
                )
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._make(
            tuple(
                tuple(a - b if b else a for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Matrix":
        return Matrix._make(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c: Scalar) -> "Matrix":
        c = rational(c)
        return Matrix._make(
            tuple(tuple(c * a if a else a for a in row) for row in self.rows)
        )

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.apply(other)
        return mat_mul(self, other)

    def apply(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise ShapeError(f"matrix is {self.shape}, vector dim {v.dim}")
        support = [(k, c) for k, c in enumerate(v.coords) if c]
        return Vector._make(
            tuple(
                sum(row[k] * c for k, c in support if row[k])
                for row in self.rows
            )
        )

    def transpose(self) -> "Matrix":
        return Matrix._make(tuple(zip(*self.rows))) if self.rows else self

    def trace(self) -> Rational:
        if self.nrows != self.ncols:
            raise ShapeError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square() and (self + self.transpose()).is_zero()

    def _same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shapes {self.shape} != {other.shape}")

    def to_json(self):
        return [[format_rational(a) for a in row] for row in self.rows]

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(format_rational(a) for a in row) + "]"
            for row in self.rows
        )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    ncols = b.ncols
    out = []
    for row in a.rows:
        acc = [0] * ncols
        for k, c in enumerate(row):
            if c:
                brow = b.rows[k]
                for j, bv in enumerate(brow):
                    if bv:
                        acc[j] = acc[j] + c * bv
        out.append(tuple(acc))
    return Matrix._make(tuple(out))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_mul(a, b) - mat_mul(b, a)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    right, left = (0,) * b.ncols, (0,) * a.ncols
    return Matrix._make(
        tuple(row + right for row in a.rows) + tuple(left + row for row in b.rows)
    )


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def _integer_rows(
    m: Matrix, extra: Sequence[Sequence[Rational]] = ()
) -> tuple[list[list[int]], int]:
    """Clear denominators per row of [m | extra], and return the product of
    the row scales too: row scaling preserves solution sets, and multiplies
    a determinant by that product."""
    out = []
    scales = 1
    for row, more in zip(m.rows, extra or [()] * m.nrows):
        cells = list(row) + list(more)
        scale = lcm(*(c.denominator for c in cells)) if cells else 1
        scales *= scale
        out.append([int(c * scale) for c in cells])
    return out, scales


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination produced a remainder")
    return q


def _bareiss_echelon(
    rows: list[list[int]], main_cols: int
) -> tuple[list[tuple[int, int]], int]:
    """In-place fraction-free row echelon; pivots only in the first
    main_cols columns. Returns the (row, col) pivot positions and the sign
    of the row swaps."""
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(main_cols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        width = len(rows[r])
        for i in range(r + 1, nrows):
            head = rows[i][c]
            for j in range(c + 1, width):
                rows[i][j] = _exact_div(
                    rows[i][j] * rows[r][c] - head * rows[r][j], prev
                )
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, sign


def det(m: Matrix) -> Rational:
    """The last Bareiss pivot is the determinant of the integer rows, up to
    the sign of the row swaps; dividing by the row scales undoes them."""
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    n = m.nrows
    rows, scale = _integer_rows(m)
    pivots, sign = _bareiss_echelon(rows, n)
    if len(pivots) < n:
        return 0
    last = rows[n - 1][n - 1] if n else 1
    return rational(Fraction(sign * last, scale))


def _back_substitute(
    rows: list[list[int]],
    pivots: list[tuple[int, int]],
    x: list[Fraction],
    rhs_col: int | None = None,
) -> list[Fraction]:
    """Solve the echelon rows for x's pivot variables, in place, keeping
    its free variables as preset; rhs_col is the right-hand side's index
    after the len(x) main columns, or None for a homogeneous system."""
    main_cols = len(x)
    for r, c in reversed(pivots):
        acc = Fraction(0 if rhs_col is None else rows[r][main_cols + rhs_col])
        for j in range(c + 1, main_cols):
            if rows[r][j]:
                acc -= rows[r][j] * x[j]
        x[c] = acc / rows[r][c]
    return x


def solve(a: Matrix, b: Vector) -> Vector:
    """One exact solution of a x = b (free variables pinned to zero).

    Raises NoSolution when the system is inconsistent.
    """
    if a.nrows != b.dim:
        raise ShapeError(f"matrix has {a.nrows} rows, vector dim {b.dim}")
    n = a.ncols
    rows, _ = _integer_rows(a, [[c] for c in b.coords])
    pivots, _ = _bareiss_echelon(rows, n)
    pivot_rows = {r for r, _ in pivots}
    for i in range(len(rows)):
        if i not in pivot_rows and rows[i][n]:
            raise NoSolution("inconsistent linear system")
    return Vector(_back_substitute(rows, pivots, [Fraction(0)] * n, 0))


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises NotInvertible when the determinant is zero."""
    if not a.is_square():
        raise ShapeError("inverse of a non-square matrix")
    n = a.nrows
    rows, _ = _integer_rows(
        a, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )
    pivots, _ = _bareiss_echelon(rows, n)
    if len(pivots) < n:
        raise NotInvertible("matrix is singular")
    cols = [
        Vector(_back_substitute(rows, pivots, [Fraction(0)] * n, k)) for k in range(n)
    ]
    return Matrix.from_columns(cols)


def is_invertible(a: Matrix) -> bool:
    return a.is_square() and det(a) != 0


def nullspace_vector(a: Matrix) -> Vector | None:
    """Some nonzero kernel element, or None when the kernel is trivial."""
    n = a.ncols
    rows, _ = _integer_rows(a)
    pivots, _ = _bareiss_echelon(rows, n)
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(n) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    return Vector(_back_substitute(rows, pivots, x))
