"""Integer images, the one torsion loop, the one Kupershmidt loop, the
one (N, S) pair loop, the one KN bracket-match loop and the two
deformation loops, and the shortcuts by which the verdict-only kernel
behind grid_search (lieop.verdicts) reads them.

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
RMN checks) divide each defect by a*b^2 for the exact witness.
VerdictKernel (lieop.verdicts) decides the Kupershmidt identity of a
whole candidate (a search's confirmation, and the r-matrix filter) as
its loop yielding nothing, and every other stage, the KN bracket match
included, on packed integer keys (the fifth shortcut below). Its twist
NT = TS is homogeneous too, of degree 2 in the operators. N, S and T
share b, since the pair identities, the twist and the bracket match mix
them.

Five shortcuts keep the searches from testing the whole product, each
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
  full identity (each solve and open pair is that pair's defect, packed
  as in the fifth shortcut), and every emitted one is still decided by
  the full identity, on its loop. Sorting the flats restores the order
  of the product, because integer_image keeps the grid increasing.
- Compatibility of two Kupershmidt operators is decided by their
  polarization. K(T1 + T2) = K(T1) + K(T2) + C(T1, T2) at every basis
  pair, since K is quadratic and C is its symmetric bilinear form. With
  K(T1) = K(T2) = 0, C = K(T1 + T2), so C vanishes exactly when T1 + T2
  is Kupershmidt; the search reads C off a table of it (the fifth
  shortcut).
- The pair identities share the n terms C_k = [rho(e_k), S]. At a basis
  x, with rho(Nx) = sum_k N_kx rho(e_k):
  - the Nijenhuis pair [rho(Nx) - S rho(x), S] is sum_k N_kx C_k - S C_x;
  - the dual pair [rho(Nx) - rho(x) S, S] is sum_k N_kx C_k - C_x S;
  - the perfect pair [S, [S, rho(x)]] is C_x S - S C_x.
  Each is of degree 1 in rho and 2 in N and S together (C_k is of degree
  1 in each of rho and S), so on the images, where C_k comes out a*b
  times the rational one and N and S b times theirs, each defect is a*b^2
  times the rational one. pair_defects, behind the reports, forms the C_k
  as matrices once per S. A search decides the Nijenhuis-pair identity on
  packed integer keys instead (nijenhuis_pairs):
  - Tables. With E_u the unit matrix at S's u-th flat entry s_u, C_k has
    degree 1 in S and S C_x degree 2: C_k = sum_u s_u C_k(E_u) and
    S C_x = sum_{u,v} s_u s_v E_u C_x(E_v). The packed C_k(E_u) are
    tabulated once per search from rho's image (_commutator_table), and
    each x's packed E_u C_x(E_v), folded over u <= v since
    s_u s_v = s_v s_u, when the walk first reaches x (_shift_table); a
    search with no N or no S builds neither. Per S, each packed C_k is
    then one dot product with s, of length m^2, and each packed S C_x one
    with the products s_u s_v, of length m^2 (m^2 + 1) / 2 (_pair_keys).
  - Packing (the fifth shortcut). P is linear, so the packed
    sum_k c_k C_k is sum_k c_k P(C_k), one dot product of length n. The
    reach is 2 m R G (n G_N + m G), with R, G_N and G the largest |entry|
    of rho's image, of the N and of the S (pair_width): an entry of a C_k
    is at most 2 m R G in size, one of sum_k c_k C_k at most n G_N times
    that, and one of S C_x at most m G times that.
  - Trie. The Nijenhuis-pair condition at x reads N only through its
    column N e_x, so a search walks the N as a trie over their columns,
    N e_0 at the first level, and for each S goes depth first: at depth x
    it compares the packed sum_k c_k C_k with the packed S C_x, two ints,
    for each column c on that level, and follows only the columns that
    match. A column that fails x prunes every N that shares the prefix up
    to it, which is exact, since each of those N fails the condition at
    that very x. Each packed combination is formed on first use, once per
    (S, column), and each packed S C_x once per (S, x).
- Over a grid that equals its negation, one candidate of each sign orbit
  is decided and the rest mirrored. Every identity a search decides is
  homogeneous of even degree in the operators it pairs, so it gives X and
  -X one verdict:
  - the Kupershmidt identity (Rota-Baxter operators and r-matrices
    included) and the torsion have degree 2 in T and in N;
  - the pair identities have degree 2 in (N, S) together, so (N, S) and
    (-N, -S) share a verdict, but (N, -S) need not;
  - compatibility, as K(T1 + T2), has degree 2 in (T1, T2) together;
  - the KN twist NT = TS and bracket match have degree 1 in T and 1 in
    (N, S), so T and -T keep the same pairs (N, S).
  On such a grid the product, in its lexicographic order, has -X at the
  mirror image of X's position (negation reverses the order), and the
  upper half is the zero flat, if the grid has 0, then the flats whose
  first nonzero entry is positive. kupershmidt_solutions enumerates only
  the upper half of its column prefixes, and for the zero prefix only the
  upper half of the last columns, then adds -T for each nonzero T found;
  nijenhuis_pairs, given lists closed under negation, walks the upper
  half of the S and mirrors each (N, S) found to (-N, -S), but for S = 0,
  whose walk finds both (N, 0) and (-N, 0). The rest of the rule is
  grid_search's (lieop.catalog).
- Every search stage but the Kupershmidt identity of a whole candidate
  compares packed integer keys (lieop.verdicts).
  A vector v packs to P(v) = sum_i v_i B^i with B = 2^w, w from width:
  the least w with B above the stage's reach, a bound on every entry of
  the difference d of the two vectors it compares (or of the one it tests
  for zero). P is linear, so P(u) = P(v) exactly when P(d) = 0 for d = u - v, and that
  holds exactly when d = 0. Otherwise, let d_t be the first nonzero entry
  of d: then 0 = P(d) = B^t (d_t + B y) for an integer y, so B divides
  d_t, although 0 < |d_t| < B. Each stage's table is read off the
  integer images or off its identity's loop at unit operators, so the
  search and the reports still share the loops. With G the largest
  |value| of the grid's image (G_T, G_N and G_S over the T, N and S where
  those differ), the stages, their degrees, tables and reaches are:
  - the Kupershmidt column solve, degree 2 in T and 1 in the bracket or
    in rho (kupershmidt_solutions). Every grid column c is packed once
    per call; P(kg [x, y]), bilinear in x and y, is x dotted with the n
    packed sums sum_b y_b kg P(a [e_a, e_b]), tabulated per grid column y.
    A pair i < j < L of the solve is the packed
    R = P(kg [c_i, c_j]) - sum_{l<L} inner_l P(c_l). With a zero
    coefficient it holds when R = 0; otherwise divmod(R, coef) leaves no
    remainder and gives a packed grid column exactly when the right side
    is coef times that column, which a dict from packed values to grid
    columns returns. Each open pair (i, L) is one packed integer, tested
    for zero. Reach 2 G^2 (kg A + m n kr R) (solve_width), with A the sum
    of |entry| over g's image and R the largest |entry| of rho's: an entry
    of kg [x, y] is at most 2 G^2 kg A, one of kr q[j]c at most kr n R G
    and an inner coefficient twice that, and the difference of the right
    side and coef c_L, or an open pair's defect, adds m such coefficients
    times G to the bracket. Where a coefficient can be nonzero (R > 0),
    that reach is at least 2 G, so distinct grid columns pack apart.
  - compatibility, degree 2 in (T1, T2) together (compatibility_rows,
    compatible). K is quadratic in T's nm flat entries:
    K(T) = sum_{a<=b} t_a t_b K_ab, with K_aa = K(E_a) and
    K_ab = K(E_a + E_b) - K(E_a) - K(E_b) read off the Kupershmidt loop at
    the unit operators, nm (nm + 1) / 2 loops per search
    (_quadratic_coefficients). So C(T1, T2) = sum_{a,b} t1_a t2_b M_ab,
    with M_ab = K_ab off the diagonal and 2 K_aa on it. Each T1 gets one
    packed row sum_a t1_a P(M_ab), and each pair is one dot product of
    that row with T2, of length nm. Reach 2 G^2 sum_{a<=b} max|K_ab|
    (form_width), since t1_a t2_b + t1_b t2_a is at most 2 G^2.
  - the Nijenhuis filter, degree 2 in N (torsion_form, form_vanishes).
    The torsion is sum_{a<=b} n_a n_b K_ab in the same way, its K_ab read
    off the torsion loop at unit operators, n^2 (n^2 + 1) / 2 loops per
    search; each N is one dot product of its products n_a n_b with the
    packed K_ab that are nonzero (many are: 20 of 45 on sl2, 29 of 45 on
    heis3). Reach G^2 sum_{a<=b} max|K_ab|. Where every K_ab is zero, as
    on every 2-dimensional algebra (Cayley-Hamilton), every N passes and
    none is evaluated.
  - the KN twist NT = TS, degree 1 in T and 1 in N or in S (kn_join,
    kn_pairs). P(NT) = sum_u n_u P(E_u T) and P(TS) = sum_v s_v P(T E_v),
    each table entry a shift of one of T's packed rows or columns, formed
    per T (_twist_tables); each distinct N and S is keyed by one dot
    product. The search's pairs (N, S) are grouped by S, and their
    distinct N listed, once per search (kn_join), so that per T a pair is
    two keys compared. Reach G_T (n G_N + m G_S) (twist_width): an entry
    of NT is at most n G_N G_T, one of TS at most m G_T G_S.
  - the KN bracket match, degree 1 in T and 1 in S once NT = TS
    (_match_table, kn_pairs). With NT = TS, [u,v]^{NT} - [Su,v]^T -
    [u,Sv]^T is rho(Tv)Su - rho(Tu)Sv, as the terms in TS cancel, and
    adding S[u,v]^T leaves D(T, S)(u, v) = [S, rho(Tu)]v - [S, rho(Tv)]u.
    At the module basis pair i < j that is
    sum_k (T_kj C_k e_i - T_ki C_k e_j), with C_k = [rho(e_k), S] the
    pair identities' terms, so D(T, S) = sum_{a,b} t_a s_b D(E_a, E_b)
    over T's nm and S's m^2 flat entries. For T = E_pv and S = E_rs, with
    R_p = a rho(e_p), D at (i, j) is
    (d_si d_jv - d_sj d_iv) R_p e_r + (d_iv (R_p)_sj - d_jv (R_p)_si) e_r,
    read off the C_p(E_rs) of the pair stage's _unit_commutators; the
    packed table is built once per search. Per T, the m^2 packed rows
    sum_a t_a P(D(E_a, E_b)) are formed once, and each S is one dot
    product of length m^2 with them. Reach G_T G_S sum_ab max|D(E_a, E_b)|
    (form_width), since t_a s_b is at most G_T G_S in size.
  - the Nijenhuis-pair identity of the third shortcut, with its reach
    2 m R G (n G_N + m G) (pair_width).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, product
from math import lcm
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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


def negated(flat: Sequence[int]) -> tuple:
    """-X, entry by entry."""
    return tuple(-c for c in flat)


def upper_half(items: Sequence, size: int) -> Iterator[tuple]:
    """product(items, repeat=size) from its middle on. For items in
    increasing order that equal their negation, that is one of each
    {X, -X}: the zero tuple, if there is one, then the tuples whose first
    nonzero entry is positive."""
    return islice(product(items, repeat=size), len(items) ** size // 2, None)


def closed_under_negation(ops: Sequence[Sequence[int]]) -> bool:
    """Whether ops[-1 - i] = -ops[i] for every i, as for an increasing
    list of flats that equals its negation (a grid's product, say)."""
    half = ops[: (len(ops) + 1) // 2]
    return all(tuple(a) == negated(b) for a, b in zip(half, reversed(ops)))


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
