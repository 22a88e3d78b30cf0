"""Verdict-only integer kernel behind grid_search.

The public predicates build a CheckReport listing every failing basis
tuple. An exhaustive search needs only the yes/no answer, and nearly every
answer is no, so this kernel decides the same identities on the same basis
tuples in Python integers and stops at the first nonzero defect.

Why integers give the exact verdict: every identity decided here is a
polynomial whose terms all have the same degree, 1 in the bracket and the
action matrices jointly and 2 in the operator entries (N, S and T
together); the twist NT = TS has degree 2 in the operators and no bracket.
Multiplying the structure constants and every rho(e_i) by one positive
integer a, and every operator entry by one positive integer b, therefore
multiplies each defect by a*b^2 (by b^2 for the twist), which is zero
exactly when the rational defect is. The kernel takes a as the lcm of the
denominators of the structure constants and the action matrices;
clear_denominators takes b as the lcm of the grid values' denominators.
N, S and T must share b, because the pair identity and the twist add terms
that mix them.

Operators are flat row-major tuples of those scaled integers, exactly as
itertools.product over the scaled grid yields them.

Rota-Baxter operators and r-matrices are Kupershmidt operators for the
adjoint and the coadjoint action, so a search for them builds its kernel
over that action family and decides them with is_kupershmidt; the kernel
has no separate form for either.

Three shortcuts keep the searches from testing the whole product, each
exact:

- Kupershmidt operators are enumerated column by column, with the last
  column c_L solved for rather than enumerated. At a basis pair i < j < L
  the identity reads [c_i, c_j] = sum_l inner_ij[l] c_l with
  inner_ij = q[j]c_i - q[i]c_j, and neither the bracket nor inner_ij
  involves c_L; so the pair is the linear equation
  inner_ij[L] c_L = [c_i, c_j] - sum_{l<L} inner_ij[l] c_l.
  A nonzero coefficient pins c_L to the exact integer quotient (or to
  nothing, when the division leaves a remainder or the quotient is off the
  grid); a zero coefficient leaves c_L free if the right side is zero and
  rules the prefix out otherwise. Every pruned candidate would fail that
  very pair, and every emitted one is still decided by the full identity.
  Sorting the flats restores the order of the product, because
  clear_denominators keeps the grid increasing.
- Compatibility of two Kupershmidt operators is decided by their sum.
  The compatibility defect is the polarization of the Kupershmidt one:
  K(T1 + T2) = K(T1) + K(T2) + C(T1, T2) at every basis pair, since K is
  quadratic and C is its symmetric bilinear form. With K(T1) = K(T2) = 0,
  C vanishes exactly when T1 + T2 is Kupershmidt, and the sum of two
  images under one scale b is the image of the sum.
- The Nijenhuis pair condition sees N only through the actions
  rho(N e_x), so the commutators [rho(c), S] are computed once per S and
  distinct column c, and a pair costs one set lookup per basis vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import lcm
from operator import add, mul
from typing import Optional, Sequence

from .lie import BracketLike
from .reps import Representation


def clear_denominators(values: Sequence[Fraction]) -> list[int]:
    """The values times the lcm of their denominators, in the same order."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _rows(flat: Sequence[int], ncols: int) -> list:
    return [flat[r : r + ncols] for r in range(0, len(flat), ncols)]


def _apply(rows, vec) -> list:
    return [sum(map(mul, row, vec)) for row in rows]


def _matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _sub(x, y) -> list:
    return [p - q for p, q in zip(x, y)]


class VerdictKernel:
    """Integer images of one algebra and, optionally, one representation.

    Built once per search; each method decides one identity for one
    candidate (or one batch of pairs) and returns a plain verdict, or,
    for kupershmidt_solutions, every candidate over a grid that passes.
    """

    def __init__(self, g: BracketLike, rho: Optional[Representation] = None):
        n = g.dim
        entries = [c for v in g.table.values() for c in v.coords]
        if rho is not None:
            entries += [c for mat in rho.matrices for row in mat.rows for c in row]
        a = lcm(*(c.denominator for c in entries))

        def scaled(c: Fraction) -> int:
            return c.numerator * (a // c.denominator)

        self.n = n
        # (i, j, [(k, a * c_ij^k), ...]) for the nonzero brackets, i < j.
        self._terms = [
            (i, j, [(k, scaled(c)) for k, c in enumerate(v.coords) if c])
            for (i, j), v in sorted(g.table.items())
        ]
        # _brackets[i][j] = a [e_i, e_j] as a list of integers.
        self._brackets = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, comps in self._terms:
            for k, c in comps:
                self._brackets[i][j][k] = c
                self._brackets[j][i][k] = -c
        # q[j] is the matrix of x -> rho(x) e_j (columns indexed by x's
        # coordinates), so the Kupershmidt inner term rho(Tu)v - rho(Tv)u at
        # (u, v) = (e_i, e_j) is q[j] Tu - q[i] Tv. _q_ad is q for the
        # adjoint action, x -> [x, e_j], which is_nijenhuis reads without a
        # representation.
        self._q_ad = [
            [[self._brackets[k][j][p] for k in range(n)] for p in range(n)]
            for j in range(n)
        ]
        self.m = None
        if rho is not None:
            m = rho.module_dim
            self.m = m
            mats = [[[scaled(c) for c in row] for row in mat.rows] for mat in rho.matrices]
            self._rho = mats
            self._q_rho = [
                [[mats[k][p][j] for k in range(n)] for p in range(m)]
                for j in range(m)
            ]
            # For each matrix position (p, q), the n action entries rho_k[p][q].
            self._rho_entries = [
                [mats[k][p][q] for k in range(n)] for p in range(m) for q in range(m)
            ]

    def _bracket(self, x, y) -> list:
        out = [0] * self.n
        for i, j, comps in self._terms:
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in comps:
                    out[k] += c * v
        return out

    def is_nijenhuis(self, n_op: Sequence[int]) -> bool:
        """[Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y]) on basis pairs x, y."""
        n = self.n
        rows = _rows(n_op, n)
        cols = [n_op[j::n] for j in range(n)]
        q = self._q_ad
        for a in range(n):
            x = cols[a]
            for b in range(a + 1, n):
                y = cols[b]
                inner = _sub(
                    _sub(_apply(q[b], x), _apply(q[a], y)),
                    _apply(rows, self._brackets[a][b]),
                )
                if self._bracket(x, y) != _apply(rows, inner):
                    return False
        return True

    def is_kupershmidt(self, t_op: Sequence[int]) -> bool:
        """[Tu,Tv] = T(rho(Tu)v - rho(Tv)u) on module basis pairs u, v."""
        m, q = self.m, self._q_rho
        rows = _rows(t_op, m)
        cols = [t_op[j::m] for j in range(m)]
        for i in range(m):
            x = cols[i]
            for j in range(i + 1, m):
                y = cols[j]
                inner = _sub(_apply(q[j], x), _apply(q[i], y))
                if self._bracket(x, y) != _apply(rows, inner):
                    return False
        return True

    def kupershmidt_solutions(self, grid: Sequence[int]) -> list[tuple[int, ...]]:
        """Every n x m operator over the increasing integer grid that
        is_kupershmidt accepts, in the order of the product: the columns
        but the last are enumerated and the last is solved for (see the
        module docstring); the full identity decides each flat."""
        n, m, q = self.n, self.m, self._q_rho
        last = m - 1
        if last < 2:  # no pair i < j < last: nothing pins the last column
            return [flat for flat in product(grid, repeat=n * m) if self.is_kupershmidt(flat)]
        on_grid = set(grid)
        columns = list(product(grid, repeat=n))
        pairs = [(i, j) for i in range(last) for j in range(i + 1, last)]
        found = []
        for prefix in product(columns, repeat=last):
            pinned = None
            for i, j in pairs:
                x, y = prefix[i], prefix[j]
                inner = _sub(_apply(q[j], x), _apply(q[i], y))
                rhs = self._bracket(x, y)
                for coef, col in zip(inner, prefix):
                    if coef:
                        rhs = [r - coef * c for r, c in zip(rhs, col)]
                coef = inner[last]
                if not coef:
                    if any(rhs):
                        break
                    continue
                quotients = [divmod(r, coef) for r in rhs]
                solved = tuple(quo for quo, _ in quotients)
                if any(rem for _, rem in quotients) or not on_grid.issuperset(solved):
                    break
                if pinned is None:
                    pinned = solved
                elif pinned != solved:
                    break
            else:
                for col in columns if pinned is None else (pinned,):
                    flat = tuple(chain.from_iterable(zip(*prefix, col)))
                    if self.is_kupershmidt(flat):
                        found.append(flat)
        found.sort()
        return found

    def compatible(self, t1_op: Sequence[int], t2_op: Sequence[int]) -> bool:
        """[T1u,T2v] + [T2u,T1v] = T1(rho(T2u)v - rho(T2v)u) + T2(rho(T1u)v - rho(T1v)u)
        for Kupershmidt T1 and T2, decided as T1 + T2 being Kupershmidt."""
        return self.is_kupershmidt(tuple(map(add, t1_op, t2_op)))

    def nijenhuis_pairs(
        self, n_ops: Sequence[Sequence[int]], s_ops: Sequence[Sequence[int]]
    ) -> list[tuple[int, int]]:
        """Index pairs (i, j), in lexicographic order, for which N = n_ops[i]
        and S = s_ops[j] satisfy the pair condition
        rho(Nx)S - S rho(Nx) = S rho(x) S - S^2 rho(x) at every basis x.

        The other half of a Nijenhuis pair, N being Nijenhuis, is
        is_nijenhuis; callers filter n_ops with it first.
        """
        n, m = self.n, self.m
        # N enters only through its columns N e_x, so each distinct column's
        # action is built once, and its commutator with S once per S.
        n_cols = [tuple(tuple(n_flat[x::n]) for x in range(n)) for n_flat in n_ops]
        actions = {
            col: _rows([sum(map(mul, col, e)) for e in self._rho_entries], m)
            for cols in n_cols
            for col in cols
        }
        out = []
        for j, s_flat in enumerate(s_ops):
            s = _rows(s_flat, m)
            s2 = _matmul(s, s)
            commutators = [
                (col, [_sub(p, q) for p, q in zip(_matmul(a, s), _matmul(s, a))])
                for col, a in actions.items()
            ]
            # allowed[x]: the columns that may stand at N e_x next to this S.
            allowed = []
            for rx in self._rho:
                rhs = [_sub(p, q) for p, q in zip(_matmul(_matmul(s, rx), s), _matmul(s2, rx))]
                allowed.append({col for col, c in commutators if c == rhs})
            for i, cols in enumerate(n_cols):
                if all(map(set.__contains__, allowed, cols)):
                    out.append((i, j))
        out.sort()
        return out

    def twist_holds(
        self, n_op: Sequence[int], t_op: Sequence[int], s_op: Sequence[int]
    ) -> bool:
        """NT = TS."""
        n, m = self.n, self.m
        t = _rows(t_op, m)
        return _matmul(_rows(n_op, n), t) == _matmul(t, _rows(s_op, m))
