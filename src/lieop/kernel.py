"""Integer images, the one torsion loop, the one Kupershmidt loop, the
one (N, S) pair loop, the one KN bracket-match loop and the two
deformation loops, and the verdict-only kernel behind grid_search.

Every Bracket and Representation keeps an integer image (BracketImage,
ActionImage), built on first use: its structure constants or action
matrices times a, the lcm of their denominators. An operator is a flat
row-major tuple of its entries times b, the lcm of theirs (integer_image,
which also scales a search grid, whose values share one b).

torsion_defects and kupershmidt_defects are the package's only loops over
the Nijenhuis torsion and the Kupershmidt identity. Each yields every
basis pair i < j where the identity fails, in lexicographic order, with
its integer defect; pair_defects does the same for the (N, S) identities
at every basis vector x (the third shortcut below). All are homogeneous,
so that defect is the rational one times a*b^2:

- the torsion [Nx,Ny] - N([Nx,y] + [x,Ny] - N[x,y]) has degree 1 in the
  bracket and 2 in N. At (e_i, e_j) its inner term is a*b times the
  N-deformed bracket [e_i,e_j]_N = [Ne_i,e_j] + [e_i,Ne_j] - N[e_i,e_j]
  (deformed_brackets), which lie.deformed_algebra divides back by a*b.
  BracketImage.q[j], the map x -> a [x, e_j], is kept as the sparse
  triples of its nonzero entries: a [Ne_i, e_j] is formed once per (i, j)
  from them, and N[e_i, e_j] only where the bracket is nonzero;
- the Kupershmidt defect [Tu,Tv] - T(rho(Tu)v - rho(Tv)u) has degree 2
  in T, and degree 1 in the bracket on one side and in rho on the other.
  The bracket's scale and the action's may differ (a deformed bracket,
  say), so each side is multiplied by the other's scale, and a is their
  product; neither image is rebuilt;
- the KN bracket match [u,v]^{NT} - ([Su,v]^T + [u,Sv]^T - S[u,v]^T),
  with [u,v]^T = rho(Tu)v - rho(Tv)u, has degree 1 in rho and 2 in the
  operators, and g's bracket does not appear (bracket_match_defects, at
  module basis pairs i < j; a is rho's scale).

deformation_pair_defects and trivial_equivalence_defects are the loops of
check_deformation_pair and check_trivial_equivalence. They run over the
images of g, omega, rho and varpi, with scales a_g, a_w, a_r and a_v, and
of N and S, which share one scale b; they build no bracket and evaluate
none. Each condition is homogeneous in each of them. Where a condition
mixes degrees, each side (or term) is multiplied by the scales it lacks,
as in the Kupershmidt loop, and the witness is the defect divided by the
product:

- cocycle, [w(x,y),z] + [w(z,x),y] + [w(y,z),x] - w(x,[y,z]) - w(z,[x,y])
  - w(y,[z,x]): degree 1 in g and 1 in omega, scale a_g a_w;
- omega_jacobi, the cyclic sum of w(w(x,y),z): degree 2 in omega, a_w^2;
- varpi_rep, varpi(w(x,y)) - [varpi(x), varpi(y)]: the left side has
  degree 1 in varpi and 1 in omega, the right 2 in varpi, so they are
  multiplied by a_v and a_w, for a_v^2 a_w;
- mixed, rho(w(x,y)) + varpi([x,y]) - [rho(x),varpi(y)] - [varpi(x),rho(y)]:
  its terms have degree 1 in rho and omega, in varpi and g, and in rho
  and varpi, and each is multiplied by the other two scales, for
  a_g a_w a_r a_v;
- omega_match, w(x,y) - [x,y]_N: degree 1 in omega against 1 in g and 1
  in N (the torsion loop's inner term), a_w a_g b;
- n_morphism, N w(x,y) - [Nx,Ny]: 1 in N and 1 in omega against 1 in g
  and 2 in N, a_w a_g b^2;
- varpi_match, varpi(x) - rho(Nx) - [rho(x), S]: 1 in varpi against 1 in
  rho and 1 in N or S, a_v a_r b;
- intertwine, rho(Nx) S - S varpi(x): 1 in rho and 2 in N and S against 1
  in S and 1 in varpi, a_r a_v b^2.

rho(Nx) and [rho(x), S] are the pair loop's terms (deformed_actions, with
the C_x below), which reps.rho_hat divides back by a_r b.

The hierarchy's morphism identity T_k[u,v]_{S^(k+i)} = [T_k u, T_k v]_{N^i},
the left side the S^(k+i)-deformation of T's sub-adjacent bracket and the
right side the N^i-deformation of g's, needs no loop of its own. Wherever
T_k and T_(k+i) are Kupershmidt and the bracket match holds at k + i, that
is [u,v]^{T_(k+i)} equals the S^(k+i)-deformation of [u,v]^T, its defect
is minus the polarization of the Kupershmidt one. N^i T_k = T_(k+i) turns
N^i [T_k u, T_k v] = N^i T_k [u,v]^{T_k} into T_(k+i) [u,v]^{T_k}, and the
left side T_k [u,v]_{S^(k+i)} into T_k [u,v]^{T_(k+i)}, so the morphism
defect is

    T_k[u,v]^{T_(k+i)} + T_(k+i)[u,v]^{T_k} - [T_(k+i)u, T_k v] - [T_k u, T_(k+i)v]
      = -(K(T_k + T_(k+i)) - K(T_k) - K(T_(k+i))),

minus the compatibility defect of (T_k, T_(k+i)), which vanishes at i = 0
(it is then 2 K(T_k)). With K(T_k) = K(T_(k+i)) = 0 it is
-K(T_k + T_(k+i)), so the identity fails at exactly the module basis
pairs where the Kupershmidt loop of the sum does. hierarchy() therefore
reads those pairs off its compatibility loop, on the images of the T_k
under one scale b, and builds no deformed bracket; where one of the
premises fails, it reports that premise and leaves the identity
undecided, as the theorem's hypothesis rules that case out.

The reporting predicates (is_nijenhuis, the Kupershmidt report behind
is_kupershmidt, is_rota_baxter and is_r_matrix, the pair, dual-pair and
perfect-pair reports, and the KN conditions behind the KN, KdN, RBN and
RMN checks) divide each defect by a*b^2 for the exact witness;
VerdictKernel decides an identity as its loop yielding nothing. Its twist
NT = TS is homogeneous too, of degree 2 in the operators. N, S and T
share b, since the pair identities, the twist and the bracket match mix
them.

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
  rules the prefix out otherwise. The pairs i < j < L then hold for every
  c_L the solve lets through, so each such c_L (the pinned one, or every
  grid column when it is free) is tested at the open pairs (i, L) alone,
  with q[j]c formed once per grid column c and basis j; only a column
  that passes them all reaches the full identity, so the full check runs
  once per result. Every pruned candidate fails that very pair of the
  full identity (the filter evaluates the same pair defect that
  kupershmidt_defects yields), and every emitted one is still decided by
  the full identity. Sorting the flats restores the order of the product,
  because integer_image keeps the grid increasing.
- Compatibility of two Kupershmidt operators is decided by their sum.
  The compatibility defect is the polarization of the Kupershmidt one:
  K(T1 + T2) = K(T1) + K(T2) + C(T1, T2) at every basis pair, since K is
  quadratic and C is its symmetric bilinear form. With K(T1) = K(T2) = 0,
  C vanishes exactly when T1 + T2 is Kupershmidt, and the sum of two
  images under one scale b is the image of the sum.
- The pair identities share the n terms C_k = [rho(e_k), S], computed
  once per S. At a basis x, with rho(Nx) = sum_k N_kx rho(e_k):
  - the Nijenhuis pair [rho(Nx) - S rho(x), S] is sum_k N_kx C_k - S C_x;
  - the dual pair [rho(Nx) - rho(x) S, S] is sum_k N_kx C_k - C_x S;
  - the perfect pair [S, [S, rho(x)]] is C_x S - S C_x.
  Each is of degree 1 in rho and 2 in N and S together (C_k is of degree
  1 in each of rho and S), so on the images, where C_k comes out a*b
  times the rational one and N and S b times theirs, each defect is a*b^2
  times the rational one. The Nijenhuis-pair condition at x reads N only
  through its column N e_x, so a search walks the N as a trie over their
  columns, N e_0 at the first level, and for each S goes depth first:
  at depth x it compares sum_k c_k C_k with S C_x for each column c on
  that level, and follows only the columns that match. A column that
  fails x prunes every N that shares the prefix up to it, which is exact,
  since each of those N fails the condition at that very x. Each
  combination sum_k c_k C_k is formed on first use, once per S, and each
  S C_x once per (S, x).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import lcm
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .lie import BracketLike
    from .linalg import Rational
    from .reps import Representation

Defects = Iterator[tuple[tuple[int, int], list[int]]]


def integer_image(values: Sequence[Rational]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def shared_images(mats) -> tuple[list[list[int]], int]:
    """Each matrix's flat row-major image under one scale b, the lcm of the
    denominators of all their entries, and b."""
    flat, scale = integer_image([c for op in mats for row in op.rows for c in row])
    entries = iter(flat)
    return [list(islice(entries, op.nrows * op.ncols)) for op in mats], scale


def divided(values: Iterable[int], scale: int) -> list:
    """The values over scale: an int where scale divides one, a Fraction
    otherwise (the inverse of integer_image)."""
    if scale == 1:
        return list(values)
    return [c // scale if not c % scale else Fraction(c, scale) for c in values]


def _rows(flat: Sequence[int], ncols: int) -> list:
    return [flat[r : r + ncols] for r in range(0, len(flat), ncols)]


def _apply(rows, vec) -> list:
    return [sum(map(mul, row, vec)) for row in rows]


def _matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _sub(x, y) -> list:
    return [p - q for p, q in zip(x, y)]


def _msub(x, y) -> list:
    return [_sub(p, q) for p, q in zip(x, y)]


class BracketImage:
    """A bracket's structure constants times their scale a."""

    def __init__(self, g: BracketLike):
        n = self.n = g.dim
        table = sorted(g.table.items())
        ints, self.scale = integer_image([c for _, v in table for c in v.coords])
        # basis[i, j] = a [e_i, e_j] for the nonzero brackets, i < j.
        self.basis = {ij: ints[t * n : (t + 1) * n] for t, (ij, _) in enumerate(table)}
        # (i, j, [(k, a * c_ij^k), ...]) for the nonzero brackets, i < j.
        self.terms = [
            (i, j, [(k, c) for k, c in enumerate(value) if c])
            for (i, j), value in self.basis.items()
        ]
        # q[j] is x -> a [x, e_j] as the triples (l, k, c) of its nonzero
        # entries: row k, column l, c = a c_lj^k.
        self.q = [[] for _ in range(n)]
        for i, j, comps in self.terms:
            for k, c in comps:
                self.q[j].append((i, k, c))
                self.q[i].append((j, k, -c))

    def __call__(self, x, y) -> list:
        """a [x, y] for integer coordinate lists x and y."""
        out = [0] * self.n
        for i, j, comps in self.terms:
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in comps:
                    out[k] += c * v
        return out


class ActionImage:
    """An action family's matrices times their scale a."""

    def __init__(self, rho: Representation):
        m = self.m = rho.module_dim
        n, mats = rho.algebra.dim, rho.matrices
        ints, self.scale = integer_image(
            [mat.rows[p][j] for j in range(m) for p in range(m) for mat in mats]
        )
        # q[j] is the matrix of x -> rho(x) e_j (columns indexed by x's
        # coordinates), so the Kupershmidt inner term rho(Tu)v - rho(Tv)u at
        # (u, v) = (e_i, e_j) is q[j] Tu - q[i] Tv.
        self.q = [_rows(ints[j * m * n : (j + 1) * m * n], n) for j in range(m)]
        # mats[k] is a rho(e_k) itself, for the pair loops.
        self.mats = [[[self.q[c][p][k] for c in range(m)] for p in range(m)] for k in range(n)]


def torsion_defects(g: BracketImage, n_op: Sequence[int]) -> Defects:
    """[Nx,Ny] - N([Nx,y] + [x,Ny] - N[x,y]) at the basis pairs where it
    is nonzero, a*b^2 times the rational torsion: [Nx,Ny] less N applied to
    the N-deformed bracket (deformed_brackets)."""
    n = g.n
    cols = [n_op[j::n] for j in range(n)]
    for (i, j), inner in deformed_brackets(g, n_op):
        defect = g(cols[i], cols[j])
        for k, v in enumerate(inner):  # less N inner, a column at a time
            if v:
                defect = [d - v * c for d, c in zip(defect, cols[k])]
        if any(defect):
            yield (i, j), defect


def deformed_brackets(g: BracketImage, n_op: Sequence[int]) -> Defects:
    """a*b [e_i, e_j]_N = a([Ne_i, e_j] + [e_i, Ne_j] - N[e_i, e_j]) at
    every basis pair i < j, in order: the torsion loop's inner term. Each
    a [Ne_i, e_j] is formed once from the triples of q[j], and N a [e_i, e_j]
    only where the bracket is nonzero."""
    n, q, basis = g.n, g.q, g.basis
    cols = [n_op[j::n] for j in range(n)]
    for i in range(n):
        x = cols[i]
        for j in range(i + 1, n):
            y = cols[j]
            inner = [0] * n
            for k, v in enumerate(basis.get((i, j), ())):  # - N a [e_i, e_j]
                if v:
                    inner = [p - v * c for p, c in zip(inner, cols[k])]
            for l, k, c in q[j]:  # + a [Ne_i, e_j]
                if x[l]:
                    inner[k] += c * x[l]
            for l, k, c in q[i]:  # - a [Ne_j, e_i]
                if y[l]:
                    inner[k] -= c * y[l]
            yield (i, j), inner


def kupershmidt_defects(g: BracketImage, rho: ActionImage, t_op: Sequence[int]) -> Defects:
    """[Tu,Tv] - T(rho(Tu)v - rho(Tv)u) at the module basis pairs where it
    is nonzero, a*b^2 times the rational defect for a = g.scale * rho.scale:
    the bracket side is multiplied by rho's scale, the action side by g's."""
    m, q = rho.m, rho.q
    if m < 2:
        return
    kg, kr = rho.scale, g.scale
    rows = _rows(t_op, m)
    cols = [t_op[j::m] for j in range(m)]
    for i in range(m):
        x = cols[i]
        for j in range(i + 1, m):
            y = cols[j]
            defect = _kupershmidt_defect_at(g, kg, kr, rows, x, y, _apply(q[j], x), _apply(q[i], y))
            if any(defect):
                yield (i, j), defect


def _kupershmidt_defect_at(g: BracketImage, kg: int, kr: int, rows, x, y, qjx, qiy) -> list:
    """kg [x,y] - kr T(q[j]x - q[i]y), the Kupershmidt defect at the module
    basis pair (e_i, e_j), with x = T e_i, y = T e_j, T given by its rows and
    qjx = q[j]x, qiy = q[i]y the two halves of rho(Tu)v - rho(Tv)u."""
    return [kg * p - kr * r for p, r in zip(g(x, y), _apply(rows, _sub(qjx, qiy)))]


def _commutators(rho: ActionImage, s: list) -> list:
    """C_k = [a rho(e_k), S] for every basis e_k, S given by its rows."""
    return [_msub(_matmul(r, s), _matmul(s, r)) for r in rho.mats]


def _combine(coefs: Sequence[int], mats: list) -> list:
    """sum_k coefs[k] mats[k]."""
    return [[sum(map(mul, coefs, entries)) for entries in zip(*rows)] for rows in zip(*mats)]


def pair_defects(
    rho: ActionImage, identity: str, s_op: Sequence[int], n_op: Sequence[int] = ()
) -> Iterator[tuple[tuple[int], list[list[int]]]]:
    """One (N, S) identity at the basis vectors x where it fails, in order,
    a*b^2 times the rational m x m defect; with C_k = [rho(e_k), S]:

    - "pair":      [rho(Nx) - S rho(x), S] = sum_k N_kx C_k - S C_x
    - "dual_pair": [rho(Nx) - rho(x) S, S] = sum_k N_kx C_k - C_x S
    - "perfect":   [S, [S, rho(x)]]        = C_x S - S C_x (N unused)
    """
    m = rho.m
    s = _rows(s_op, m)
    cs = _commutators(rho, s)
    n = len(cs)
    for x, c in enumerate(cs):
        if identity == "perfect":
            defect = _msub(_matmul(c, s), _matmul(s, c))
        else:
            shifted = _matmul(s, c) if identity == "pair" else _matmul(c, s)
            defect = _msub(_combine(n_op[x::n], cs), shifted)
        if any(map(any, defect)):
            yield (x,), defect


def sub_adjacent_ads(rho: ActionImage, t_op: Sequence[int]) -> list:
    """T's sub-adjacent structure constants, a*b times the rational ones:
    for each module basis e_i, the rows of the matrix of v -> [e_i, v]^T,
    whose column k is [e_i, e_k]^T = rho(T e_i)e_k - rho(T e_k)e_i."""
    m = rho.m
    acts = [_combine(t_op[i::m], rho.mats) for i in range(m)]  # a rho(T e_i)
    return [
        [[act[p][k] - acts[k][p][i] for k in range(m)] for p in range(m)]
        for i, act in enumerate(acts)
    ]


def deformed_sub_adjacent(ads: list, s_op: Sequence[int]) -> Iterator[list]:
    """The S-deformation ad_i S e_j - ad_j S e_i - S ad_i e_j of T's
    sub-adjacent bracket at each module basis pair i < j, in order, with
    ad_i the matrix of v -> [e_i, v]^T (ads = sub_adjacent_ads(rho, T)):
    a*b^2 times the rational vectors, S being b times itself."""
    m = len(ads)
    s = _rows(s_op, m)
    s_cols = [s_op[j::m] for j in range(m)]
    for i, j in combinations(range(m), 2):
        yield _sub(
            _sub(_apply(ads[i], s_cols[j]), _apply(ads[j], s_cols[i])),
            _apply(s, [row[j] for row in ads[i]]),
        )


def bracket_match_defects(
    rho: ActionImage, deformed: Iterable[list], nt_op: Sequence[int]
) -> Defects:
    """[u,v]^{NT} - ([Su,v]^T + [u,Sv]^T - S[u,v]^T) at the module basis
    pairs i < j where it is nonzero, a*b^2 times the rational defect, where
    [u,v]^X = rho(Xu)v - rho(Xv)u and deformed, the S-deformation of
    [u,v]^T at those pairs in order, is deformed_sub_adjacent(ads, S).

    Each term has degree 1 in rho and 2 in the operators, and g's bracket
    does not appear: with T, S and N sharing the scale b, deformed is
    a*b^2 times the rational vectors and nt_op, the product of N's and T's
    images, is b^2 NT.
    """
    m, q = rho.m, rho.q
    nt_cols = [nt_op[j::m] for j in range(m)]
    pairs = combinations(range(m), 2)
    for (i, j), bracket in zip(pairs, deformed):
        via_nt = _sub(_apply(q[j], nt_cols[i]), _apply(q[i], nt_cols[j]))
        defect = _sub(via_nt, bracket)
        if any(defect):
            yield (i, j), defect


def deformed_actions(rho: ActionImage, n_op: Sequence[int], s_op: Sequence[int]) -> Iterator:
    """(a rho(Ne_x), C_x) at every basis e_x, in order, with C_x = [a rho(e_x), S]
    the pair loop's term: the two halves of rho_hat's varpi(e_x) = rho(Ne_x) + C_x
    (and of rho_tilde's rho(Ne_x) - C_x), each a*b times the rational one, with
    N and S sharing b."""
    n = len(rho.mats)
    acts = (_combine(n_op[x::n], rho.mats) for x in range(n))
    return zip(acts, _commutators(rho, _rows(s_op, rho.m)))


def _cyclic(q: list, basis: dict, i: int, j: int, k: int, n: int) -> list:
    """q[k] B_ij + q[j] B_ki + q[i] B_jk at i < j < k, with q one bracket
    image's triples and B the basis brackets of another (or the same) image:
    the cyclic sum of [B(x,y), z] in the first bracket."""
    out = [0] * n
    for outer, pair, sign in ((k, (i, j), 1), (j, (i, k), -1), (i, (j, k), 1)):
        x = basis.get(pair)
        if x is not None:
            for l, r, c in q[outer]:
                if x[l]:
                    out[r] += sign * c * x[l]
    return out


def deformation_pair_defects(
    g: BracketImage, rho: ActionImage, w: BracketImage, vp: ActionImage
) -> Iterator[tuple[str, tuple, list, int]]:
    """The four conditions for (omega, varpi) to deform (g, rho), as
    (label, indices, defect, scale) where they fail, in the order of the
    basis tuples (for each pair i < j, the triples (i, j, k) first), the
    defect scale times the rational one. With a_g, a_w, a_r and a_v the
    scales of g, omega, rho and varpi (see the module docstring):

    - cocycle at i < j < k, the cyclic sums of [w(x,y),z] and [[x,y],z]_w,
      scale a_g a_w;
    - omega_jacobi at i < j < k, the cyclic sum of [w(x,y),z]_w, a_w^2;
    - varpi_rep at i < j, a_v varpi(w(x,y)) - a_w [varpi(x), varpi(y)],
      a_v^2 a_w;
    - mixed at i < j, rho(w(x,y)) + varpi([x,y]) - [rho(x), varpi(y)]
      - [varpi(x), rho(y)], each term brought to a_g a_w a_r a_v.
    """
    n = g.n
    ag, aw, ar, av = g.scale, w.scale, rho.scale, vp.scale
    rs, vs = rho.mats, vp.mats
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cocycle = list(
                    map(add, _cyclic(g.q, w.basis, i, j, k, n), _cyclic(w.q, g.basis, i, j, k, n))
                )
                if any(cocycle):
                    yield "cocycle", (i, j, k), cocycle, ag * aw
                jacobi = _cyclic(w.q, w.basis, i, j, k, n)
                if any(jacobi):
                    yield "omega_jacobi", (i, j, k), jacobi, aw * aw
            wij, gij = w.basis.get((i, j)), g.basis.get((i, j))
            vi, vj, ri, rj = vs[i], vs[j], rs[i], rs[j]
            # Each defect is one combination sum_t coefs[t] mats[t] of its
            # terms; a zero bracket adds none.
            coefs = [-aw, aw]
            mats = [_matmul(vi, vj), _matmul(vj, vi)]
            if wij is not None:
                coefs += [av * c for c in wij]
                mats += vs
            varpi_rep = _combine(coefs, mats)
            if any(map(any, varpi_rep)):
                yield "varpi_rep", (i, j), varpi_rep, av * av * aw
            across = -ag * aw
            coefs = [across, -across, across, -across]
            mats = [_matmul(ri, vj), _matmul(vj, ri), _matmul(vi, rj), _matmul(rj, vi)]
            if wij is not None:
                coefs += [ag * av * c for c in wij]
                mats += rs
            if gij is not None:
                coefs += [aw * ar * c for c in gij]
                mats += vs
            mixed = _combine(coefs, mats)
            if any(map(any, mixed)):
                yield "mixed", (i, j), mixed, ag * aw * ar * av


def trivial_equivalence_defects(
    g: BracketImage,
    rho: ActionImage,
    w: BracketImage,
    vp: ActionImage,
    n_op: Sequence[int],
    s_op: Sequence[int],
    b: int,
) -> Iterator[tuple[str, tuple, list, int]]:
    """The four conditions for (Id + tN, Id + tS) to trivialize
    (omega, varpi), as (label, indices, defect, scale) where they fail, in
    order (the basis pairs first, then the basis vectors), with N and S b
    times themselves and the scales of deformation_pair_defects:

    - omega_match at i < j, w(x,y) - [x,y]_N, scale a_w a_g b;
    - n_morphism at i < j, N w(x,y) - [Nx,Ny], a_w a_g b^2;
    - varpi_match at x, varpi(x) - rho(Nx) - [rho(x), S], a_v a_r b;
    - intertwine at x, rho(Nx) S - S varpi(x), a_r a_v b^2.

    [x,y]_N is the torsion loop's inner term, and rho(Nx) and [rho(x), S]
    are rho_hat's (deformed_actions): no deformed bracket is built.
    """
    n, m = g.n, rho.m
    ag, aw, ar, av = g.scale, w.scale, rho.scale, vp.scale
    rows = _rows(n_op, n)
    cols = [n_op[j::n] for j in range(n)]
    zero = [0] * n
    for (i, j), inner in deformed_brackets(g, n_op):
        wij = w.basis.get((i, j), zero)
        omega_match = [ag * b * p - aw * r for p, r in zip(wij, inner)]
        if any(omega_match):
            yield "omega_match", (i, j), omega_match, aw * ag * b
        n_morphism = [ag * b * p - aw * r for p, r in zip(_apply(rows, wij), g(cols[i], cols[j]))]
        if any(n_morphism):
            yield "n_morphism", (i, j), n_morphism, aw * ag * b * b
    s = _rows(s_op, m)
    for x, (act, c) in enumerate(deformed_actions(rho, n_op, s_op)):
        vx = vp.mats[x]
        varpi_match = _combine((ar * b, -av, -av), (vx, act, c))
        if any(map(any, varpi_match)):
            yield "varpi_match", (x,), varpi_match, av * ar * b
        intertwine = _combine((av, -ar * b), (_matmul(act, s), _matmul(s, vx)))
        if any(map(any, intertwine)):
            yield "intertwine", (x,), intertwine, ar * av * b * b


class VerdictKernel:
    """The integer images of one algebra and, optionally, one representation.

    Built once per search; each method decides one identity for one
    candidate (or one batch of pairs) and returns a plain verdict, or,
    for kupershmidt_solutions, every candidate over a grid that passes.
    """

    def __init__(self, g: BracketLike, rho: Optional[Representation] = None):
        self.n = g.dim
        self._g = g.integer_image
        self.m = None if rho is None else rho.module_dim
        self._rho = None if rho is None else rho.integer_image

    def is_nijenhuis(self, n_op: Sequence[int]) -> bool:
        """[Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y]) on basis pairs x, y."""
        return next(torsion_defects(self._g, n_op), None) is None

    def is_kupershmidt(self, t_op: Sequence[int]) -> bool:
        """[Tu,Tv] = T(rho(Tu)v - rho(Tv)u) on module basis pairs u, v."""
        return next(kupershmidt_defects(self._g, self._rho, t_op), None) is None

    def kupershmidt_solutions(self, grid: Sequence[int]) -> list[tuple[int, ...]]:
        """Every n x m operator over the increasing integer grid that
        is_kupershmidt accepts, in the order of the product: the columns
        but the last are enumerated, the last is solved for, and each column
        the solve pins or leaves free is tested at the open pairs (i, last)
        before the full identity decides the flat (see the module
        docstring)."""
        n, m, q = self.n, self.m, self._rho.q
        kg, kr = self._rho.scale, self._g.scale  # as in kupershmidt_defects
        last = m - 1
        if last < 2:  # no pair i < j < last: nothing pins the last column
            return [flat for flat in product(grid, repeat=n * m) if self.is_kupershmidt(flat)]
        on_grid = set(grid)
        columns = list(product(grid, repeat=n))
        pairs = [(i, j) for i in range(last) for j in range(i + 1, last)]
        # qc[j][c] = q[j]c for every basis j and grid column c.
        qc = [{col: _apply(q[j], col) for col in columns} for j in range(m)]
        found = []
        for prefix in product(columns, repeat=last):
            pinned = None
            for i, j in pairs:
                x, y = prefix[i], prefix[j]
                inner = [kr * c for c in _sub(qc[j][x], qc[i][y])]
                rhs = [kg * c for c in self._g(x, y)]
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
                    rows = list(zip(*prefix, col))
                    open_pairs = (
                        _kupershmidt_defect_at(
                            self._g, kg, kr, rows, x, col, qc[last][x], qc[i][col]
                        )
                        for i, x in enumerate(prefix)
                    )
                    if any(map(any, open_pairs)):
                        continue
                    flat = tuple(chain.from_iterable(rows))
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
        is_nijenhuis; callers filter n_ops with it first. Per S, the N are
        walked as a trie over their columns, and a column that fails the
        condition at its x prunes every N that shares it and the columns
        before it (see the module docstring).
        """
        n, m = self.n, self.m
        # The trie of the N's columns: trie[N e_0][N e_1]...[N e_(n-1)] lists
        # the indices i of the N with those columns.
        trie: dict = {}
        for i, n_flat in enumerate(n_ops):
            node = trie
            for x in range(n - 1):
                node = node.setdefault(tuple(n_flat[x::n]), {})
            node.setdefault(tuple(n_flat[n - 1 :: n]), []).append(i)
        out = []
        for j, s_flat in enumerate(s_ops):
            s = _rows(s_flat, m)
            cs = _commutators(self._rho, s)
            # sum_k c_k C_k per column c and S C_x per x, each on first use.
            combos: dict = {}
            shifted = [None] * n
            stack = [(trie, 0)]
            while stack:
                node, x = stack.pop()
                if shifted[x] is None:
                    shifted[x] = _matmul(s, cs[x])
                for col, child in node.items():
                    if col not in combos:
                        combos[col] = _combine(col, cs)
                    if combos[col] == shifted[x]:
                        if x < n - 1:
                            stack.append((child, x + 1))
                        else:
                            out.extend((i, j) for i in child)
        out.sort()
        return out

    def kn_pairs(
        self,
        t_op: Sequence[int],
        n_ops: Sequence[Sequence[int]],
        s_ops: Sequence[Sequence[int]],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        """The index pairs (i, j) of pairs, in their order, for which
        T, S = s_ops[j] and N = n_ops[i] meet the twist NT = TS and the
        bracket match [u,v]^{NT} = ([u,v]^T)_S.

        The rest of a KN structure, T Kupershmidt and (N, S) a Nijenhuis
        pair, is is_kupershmidt and nijenhuis_pairs; callers filter with
        them first. T's sub-adjacent constants are formed once, NT once per
        distinct N and TS once per distinct S. Where NT = TS, the
        NT-induced bracket is the TS-induced one, so the match is decided
        once per distinct S, on TS.
        """
        n, m = self.n, self.m
        t = _rows(t_op, m)
        nt = {i: _matmul(_rows(n_ops[i], n), t) for i in {i for i, _ in pairs}}
        ts = {j: _matmul(t, _rows(s_ops[j], m)) for j in {j for _, j in pairs}}
        ads = sub_adjacent_ads(self._rho, t_op)
        matches: dict[int, bool] = {}
        out = []
        for i, j in pairs:
            if nt[i] != ts[j]:
                continue
            if j not in matches:
                ts_flat = list(chain.from_iterable(ts[j]))
                deformed = deformed_sub_adjacent(ads, s_ops[j])
                defects = bracket_match_defects(self._rho, deformed, ts_flat)
                matches[j] = next(defects, None) is None
            if matches[j]:
                out.append((i, j))
        return out
