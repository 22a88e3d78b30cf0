"""The verdict-only kernel behind grid_search (VerdictKernel), and the
packed integer keys its search stages compare.

VerdictKernel reads lieop.kernel's integer images and loops. It decides
the Kupershmidt identity of a whole candidate on its loop, and every
other stage on packed integer keys; the shortcuts, with each stage's
degrees, table and packing bound and the exactness proof, are written in
lieop.kernel's docstring beside the loops they read (the first, third
and fifth shortcuts).

A vector v of integers packs to P(v) = sum_i v_i B^i with B = 2^w, and w
comes from width, the one width helper: the least w with B above a
stage's reach, the largest |entry| that a difference of two compared
vectors can take. Each stage states its reach in its width function
(pair_width, solve_width, form_width, twist_width). P is linear, so a
packed combination of vectors is the same combination of their packed
values, and each stage's keys come from tables read off the integer
images or off the loops at unit operators: the quadratic forms of the
torsion and of compatibility (_quadratic_coefficients, form_vanishes over
the torsion's nonzero coefficients, compatible), the Nijenhuis-pair
tables (_unit_commutators, _commutator_table, _shift_table, _pair_keys,
_combination), and the KN twist's (_twist_tables) and bracket match's
(_match_table, bilinear in T and S), which kn_join builds once per search
with the pairs grouped by S.
"""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement, product, repeat, starmap
from operator import itemgetter, mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .kernel import (
    _apply,
    closed_under_negation,
    kupershmidt_defects,
    negated,
    torsion_defects,
    upper_half,
)

if TYPE_CHECKING:
    from .kernel import ActionImage, BracketImage, Defects
    from .lie import BracketLike
    from .reps import Representation


def _largest(values: Iterable[int]) -> int:
    """The largest |value|, 0 for none."""
    return max(map(abs, values), default=0)


def width(reach: int) -> int:
    """The digit width w of a packing, B = 2^w: the least w with B above
    reach, a bound on |d_i| over every entry of every difference d that
    the stage tests for zero (lieop.kernel's fifth shortcut)."""
    return reach.bit_length()


def pair_width(
    rho: ActionImage, n_ops: Sequence[Sequence[int]], s_ops: Sequence[Sequence[int]]
) -> int:
    """The digit width of the pair search's packing: B above
    2 m R G (n G_N + m G), with R, G_N and G the largest |entry| of rho's
    image, of the N and of the S (0 for an empty list)."""
    n, m = len(rho.mats), rho.m
    r = _largest(chain.from_iterable(chain.from_iterable(rho.mats)))
    g_n = _largest(chain.from_iterable(n_ops))
    g = _largest(chain.from_iterable(s_ops))
    return width(2 * m * r * g * (n * g_n + m * g))


def solve_width(g: BracketImage, rho: ActionImage, largest: int) -> int:
    """The digit width of the Kupershmidt column solve over a grid whose
    largest |value| is G: B above 2 G^2 (kg A + m n kr R), with kg and kr
    the scales that multiply the bracket side and the action side (rho's
    and g's), A the sum of |entry| over g's image and R the largest |entry|
    of rho's."""
    a = sum(map(abs, chain.from_iterable(g.basis.values())))
    r = _largest(chain.from_iterable(chain.from_iterable(rho.mats)))
    return width(2 * largest * largest * (rho.scale * a + rho.m * g.n * g.scale * r))


def form_width(coefs: Iterable[Sequence[int]], reach: int) -> int:
    """The digit width of a quadratic form sum_{a<=b} z_ab K_ab, with each
    |z_ab| at most reach (G^2 for the torsion's n_a n_b, 2 G^2 for
    compatibility's t1_a t2_b + t1_b t2_a): B above reach sum_ab max|K_ab|."""
    return width(reach * sum(map(_largest, coefs)))


def twist_width(n: int, m: int, g_t: int, g_n: int, g_s: int) -> int:
    """The digit width of the KN twist NT = TS for an n x m T: B above
    G_T (n G_N + m G_S), with G_T, G_N and G_S the largest |entry| of T,
    the N and the S."""
    return width(g_t * (n * g_n + m * g_s))


def _packed(values: Iterable[int], w: int) -> int:
    """P(v) = sum_i v_i B^i with B = 2^w."""
    return sum(v << (w * i) for i, v in enumerate(values))


def _pair_index(i: int, j: int, size: int) -> int:
    """The position of (i, j), i < j, in combinations(range(size), 2)."""
    return i * (2 * size - i - 1) // 2 + j - i - 1


def _dense(defects: Defects, size: int, length: int) -> list[int]:
    """A loop's defects, each of the given length, as one flat vector over
    the basis pairs i < j of range(size) in order, zero where the loop
    yields nothing."""
    out = [0] * (size * (size - 1) // 2 * length)
    for (i, j), defect in defects:
        at = _pair_index(i, j, size) * length
        out[at : at + length] = defect
    return out


def _quadratic_coefficients(form, units: int) -> list[list[int]]:
    """The coefficient vectors K_ab of a vector-valued quadratic form,
    form(z) = sum_{a<=b} z_a z_b K_ab over flats z of the given length, at
    each a <= b in the order of combinations_with_replacement: form(E_a) at
    a = b, and the polarization form(E_a + E_b) - form(E_a) - form(E_b) at
    a < b, read off the form at unit flats."""

    def at(*ones) -> list[int]:
        flat = [0] * units
        for a in ones:
            flat[a] = 1
        return form(flat)

    squares = [at(a) for a in range(units)]
    return [
        squares[a] if a == b else [s - p - q for s, p, q in zip(at(a, b), squares[a], squares[b])]
        for a, b in combinations_with_replacement(range(units), 2)
    ]


class SparseForm(NamedTuple):
    """A packed quadratic form sum_t coefs[t] z_a z_b over its nonzero
    coefficients alone, with left(z)[t] = z_a and right(z)[t] = z_b."""

    left: Callable[[Sequence[int]], tuple]
    right: Callable[[Sequence[int]], tuple]
    coefs: list[int]


def _picker(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """z -> the tuple of z's entries at indices (itemgetter gives a bare
    entry for one index)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda z: (z[i],)
    return itemgetter(*indices) if indices else lambda z: ()


def form_vanishes(form: SparseForm, flat: Sequence[int]) -> bool:
    """Whether the packed quadratic form is zero at z = flat: one dot
    product of its nonzero coefficients with the products z_a z_b."""
    return not sum(map(mul, map(mul, form.left(flat), form.right(flat)), form.coefs))


def compatible(row: Sequence[int], t2_op: Sequence[int]) -> bool:
    """Whether two Kupershmidt operators are compatible, given T1's packed
    row of the polarization table (VerdictKernel.compatibility_rows): the
    packed defect K(T1 + T2) is one dot product of that row with T2."""
    return not sum(map(mul, row, t2_op))


def _unit_commutators(rho: ActionImage) -> list:
    """C_k(E_u) = [a rho(e_k), E_u] for each k and each unit matrix E_u of
    a flat m x m matrix, row by row: for R = a rho(e_k) and E_u = E_pq,
    R's column p as column q, less R's row q as row p."""
    m = rho.m
    commutators = []
    for r in rho.mats:
        per_unit = []
        for p in range(m):
            for q in range(m):
                c = [[0] * m for _ in range(m)]
                for a in range(m):
                    c[a][q] += r[a][p]
                    c[p][a] -= r[q][a]
                per_unit.append(c)
        commutators.append(per_unit)
    return commutators


def _commutator_table(commutators: list, w: int) -> list[list[int]]:
    """The pair search's table of the C_k, linear in S: for each k, the
    P(C_k(E_u)), so that P(C_k) = sum_u s_u P(C_k(E_u))."""
    return [[_packed(chain.from_iterable(c), w) for c in per_unit] for per_unit in commutators]


def _shift_table(per_unit: list, w: int) -> list[int]:
    """The pair search's table of S C_x, quadratic in S, from C_x's
    per-unit commutators: P(S C_x) = sum_{u<=v} s_u s_v (P(E_u C_x(E_v)) +
    P(E_v C_x(E_u))), the term counted once at u = v, in the order of
    combinations_with_replacement."""
    m = len(per_unit[0])
    # E_pq M is M's row q moved to row p: t[u][v] = P(E_u C_x(E_v)).
    t = [
        [_packed(c[q], w) << (w * m * p) for c in per_unit]
        for p in range(m)
        for q in range(m)
    ]
    pairs = combinations_with_replacement(range(m * m), 2)
    return [t[u][v] + t[v][u] if u < v else t[u][u] for u, v in pairs]


def _pair_keys(ck: list[list[int]], s_op: Sequence[int]) -> tuple[list[int], list[int]]:
    """The per-S step of the pair search: the packed C_k = [a rho(e_k), S],
    one dot product of length m^2 each, and the products s_u s_v, u <= v,
    which _shift_table's tables turn into the packed S C_x."""
    return [sum(map(mul, s_op, row)) for row in ck], list(
        starmap(mul, combinations_with_replacement(s_op, 2))
    )


def _twist_tables(t_op: Sequence[int], n: int, m: int, w: int) -> tuple[list[int], list[int]]:
    """The KN twist's tables for an n x m T. NT is linear in N and TS in S:
    P(NT) = sum_u n_u P(E_u T) over the units E_u = E_pq of a flat n x n
    matrix, E_pq T being T's row q moved to row p, and P(TS) =
    sum_v s_v P(T E_v) over those of a flat m x m one, T E_pq being T's
    column p moved to column q."""
    rows = [_packed(t_op[r * m : (r + 1) * m], w) for r in range(n)]
    cols = [_packed(t_op[p::m], w * m) for p in range(m)]  # column p at column 0
    by_n = [rows[q] << (w * m * p) for p in range(n) for q in range(n)]
    by_s = [cols[p] << (w * q) for p in range(m) for q in range(m)]
    return by_n, by_s


def _match_table(commutators: list, m: int) -> list[list[list[int]]]:
    """The KN bracket match's table. Where NT = TS its terms in TS cancel,
    and D(T, S)(u, v) = [S, rho(Tu)]v - [S, rho(Tv)]u is left: at the
    module basis pair i < j, sum_k (T_kj C_k e_i - T_ki C_k e_j) with
    C_k = [a rho(e_k), S], bilinear in T and S. So
    D(T, S) = sum_{a,b} t_a s_b D(E_a, E_b), and for T = E_pv, D(E_pv, E_b)
    is C_p(E_b) e_i at the pairs with j = v, less C_p(E_b) e_j at those
    with i = v: table[a][b] = D(E_a, E_b) over the pairs i < j in order,
    for the flat entries a of an n x m T and b of an m x m S."""
    pairs = list(combinations(range(m), 2))
    zero = (0,) * m
    table = []
    for per_unit in commutators:
        columns = [list(zip(*c)) for c in per_unit]  # of each C_p(E_b)
        for v in range(m):
            per_t = []
            for cols in columns:
                d = []
                for i, j in pairs:
                    d += cols[i] if j == v else [-x for x in cols[j]] if i == v else zero
                per_t.append(d)
            table.append(per_t)
    return table


class KNJoin(NamedTuple):
    """What kn_pairs reads of a search's pairs (N, S), listed once per
    search (VerdictKernel.kn_join): the twist's width and the distinct N,
    the pairs grouped by S as (j, S, [(N's place among those, i), ...]), the
    bracket match's packed table by S's flat entry b, and that width."""

    twist_w: int
    n_ops: list
    groups: list
    match: list[list[int]]
    match_w: int


def _combination(col: Sequence[int], packed: Sequence[int]) -> int:
    """The packed sum_k col[k] C_k."""
    return sum(map(mul, col, packed))


class VerdictKernel:
    """The integer images of one algebra and, optionally, one representation.

    Built once per search; each method decides one identity for one
    candidate (or one batch of pairs) and returns a plain verdict, or,
    for kupershmidt_solutions, every candidate over a grid that passes,
    or builds one stage's packed tables (torsion_form, compatibility_rows,
    kn_join), which a module function or kn_pairs reads per candidate.
    """

    def __init__(self, g: BracketLike, rho: Optional[Representation] = None):
        self.n = g.dim
        self._g = g.integer_image
        self.m = None if rho is None else rho.module_dim
        self._rho = None if rho is None else rho.integer_image

    def is_kupershmidt(self, t_op: Sequence[int]) -> bool:
        """[Tu,Tv] = T(rho(Tu)v - rho(Tv)u) on module basis pairs u, v."""
        return next(kupershmidt_defects(self._g, self._rho, t_op), None) is None

    def torsion_form(self, largest: int) -> SparseForm:
        """The Nijenhuis filter's table over a grid whose largest |value| is
        largest: the torsion is quadratic in N, so it is
        sum_{a<=b} n_a n_b K_ab over N's flat entries, each K_ab read off
        torsion_defects at unit operators. The packed P(K_ab) that are
        nonzero, for form_vanishes; none when every N is Nijenhuis (on every
        2-dimensional algebra, say)."""
        n = self.n
        coefs = _quadratic_coefficients(
            lambda flat: _dense(torsion_defects(self._g, flat), n, n), n * n
        )
        w = form_width(coefs, largest * largest)
        units = combinations_with_replacement(range(n * n), 2)
        kept = [(ab, _packed(c, w)) for ab, c in zip(units, coefs) if any(c)]
        return SparseForm(
            _picker([a for (a, _), _ in kept]),
            _picker([b for (_, b), _ in kept]),
            [c for _, c in kept],
        )

    def kupershmidt_solutions(self, grid: Sequence[int]) -> list[tuple[int, ...]]:
        """Every n x m operator over the increasing integer grid that
        is_kupershmidt accepts, in the order of the product: the columns
        but the last are enumerated, the last is solved for, and each column
        the solve pins or leaves free is tested at the open pairs (i, last)
        before the full identity decides the flat. Each pair of the solve
        and each open pair is one packed integer (the first and fifth
        shortcuts of lieop.kernel): every grid column is packed once per call, a pinned
        column is read off a dict from packed values to grid columns, and
        the packed bracket kg [x, y], bilinear in x and y, is one dot
        product of x with n packed sums tabulated per grid column y. Over a
        grid that equals its negation, one of each {T, -T} is decided (the
        fourth shortcut)."""
        n, m, q = self.n, self.m, self._rho.q
        kg, kr = self._rho.scale, self._g.scale  # as in kupershmidt_defects
        last = m - 1
        symmetric = set(grid) == {-v for v in grid}
        columns = list(product(grid, repeat=n))
        size = len(columns)
        w = solve_width(self._g, self._rho, _largest(grid))
        packed = [_packed(col, w) for col in columns]
        column_of = {key: c for c, key in enumerate(packed)}
        pairs = [(i, j) for i in range(last) for j in range(i + 1, last)]
        # kqc[j][c] = kr q[j]c for every basis j and grid column c.
        kqc = [[[kr * v for v in _apply(q[j], col)] for col in columns] for j in range(m)]
        # P(kg [x, y]) = sum_a x_a sum_b y_b kg P(a [e_a, e_b]) is bilinear:
        # brackets[y] holds the n inner sums for each grid column y.
        units = [[0] * n for _ in range(n)]
        for (a, b), value in self._g.basis.items():
            units[a][b] = kg * _packed(value, w)
            units[b][a] = -units[a][b]
        brackets = [[sum(map(mul, row, col)) for row in units] for col in columns]

        def bracket(x: int, y: int) -> int:
            """P(kg [x, y]) for the grid columns x and y."""
            return sum(map(mul, columns[x], brackets[y]))

        # Over a symmetric grid, the zero prefix (its middle column, when
        # the grid has 0) leaves only the upper half of the last columns.
        zero_prefix = None
        if symmetric and (not last or 0 in grid):
            zero_prefix = (size // 2,) * last
        every, upper = range(size), range(size // 2, size)
        prefixes = upper_half(every, last) if symmetric else product(every, repeat=last)
        found = []
        for prefix in prefixes:
            known = [packed[c] for c in prefix]
            pinned = None
            for i, j in pairs:
                x, y = prefix[i], prefix[j]
                inner = list(map(sub, kqc[j][x], kqc[i][y]))
                # P(rhs), rhs = kg [x, y] - sum_{l<last} inner_l c_l.
                rhs = bracket(x, y) - sum(map(mul, inner, known))
                coef = inner[last]
                if not coef:
                    if rhs:
                        break
                    continue
                quo, rem = divmod(rhs, coef)
                solved = None if rem else column_of.get(quo)
                if solved is None or (pinned is not None and pinned != solved):
                    break
                pinned = solved
            else:
                if pinned is not None:
                    last_columns = (pinned,)
                else:
                    last_columns = upper if prefix == zero_prefix else every
                for c in last_columns:
                    # The open pair (i, last): kg [x, c] - T(kqc[last]x - kqc[i]c).
                    full = known + [packed[c]]
                    if any(
                        bracket(x, c) - sum(map(mul, map(sub, kqc[last][x], kqc[i][c]), full))
                        for i, x in enumerate(prefix)
                    ):
                        continue
                    rows = zip(*(columns[k] for k in prefix), columns[c])
                    flat = tuple(chain.from_iterable(rows))
                    if self.is_kupershmidt(flat):
                        found.append(flat)
        if symmetric:
            found += [negated(flat) for flat in found if any(flat)]
        found.sort()
        return found

    def compatibility_rows(self, t_ops: Sequence[Sequence[int]]) -> list[list[int]]:
        """For each T1 of t_ops, its packed row of the polarization table:
        K(T1 + T2) = K(T1) + K(T2) + sum_{a,b} t1_a t2_b M_ab, with M_ab the
        polarization of the Kupershmidt loop at the unit operators E_a and
        E_b (2 K(E_a) at a = b), so for Kupershmidt T1 and T2 the packed
        K(T1 + T2) is sum_b row_b t2_b with row_b = sum_a t1_a P(M_ab), and
        compatible decides each pair with one dot product of length nm."""
        if not t_ops:
            return []
        n, m = self.n, self.m
        units = n * m
        coefs = _quadratic_coefficients(
            lambda flat: _dense(kupershmidt_defects(self._g, self._rho, flat), m, n), units
        )
        w = form_width(coefs, 2 * _largest(chain.from_iterable(t_ops)) ** 2)
        table = [[0] * units for _ in range(units)]
        for (a, b), c in zip(combinations_with_replacement(range(units), 2), coefs):
            table[a][b] = table[b][a] = _packed(c, w) << (a == b)
        return [[sum(map(mul, t1_op, col)) for col in table] for t1_op in t_ops]

    def nijenhuis_pairs(
        self, n_ops: Sequence[Sequence[int]], s_ops: Sequence[Sequence[int]]
    ) -> list[tuple[int, int]]:
        """Index pairs (i, j), in lexicographic order, for which N = n_ops[i]
        and S = s_ops[j] satisfy the pair condition
        rho(Nx)S - S rho(Nx) = S rho(x) S - S^2 rho(x) at every basis x,
        that is sum_k N_kx C_k = S C_x with C_k = [rho(e_k), S].

        The other half of a Nijenhuis pair, N being Nijenhuis, is the
        torsion form's (torsion_form); callers filter n_ops with it first.
        Both sides are compared as packed integer keys: with both lists
        non-empty, the table of the C_k is built once per call and each
        x's table of S C_x when the walk first reaches x; each S costs one
        dot product per C_k and per S C_x reached, and each column reached
        one of length n (lieop.kernel's third shortcut gives the tables and
        the packing bound). Per S, the N are walked as a trie over their
        columns, and a column that fails the condition at its x prunes
        every N that shares it and the columns before it. Where both lists
        are closed under negation, (N, S) is a pair exactly when (-N, -S)
        is, so only the upper half of the S is walked and each pair found
        is mirrored, but for S = 0, whose walk finds both (N, 0) and
        (-N, 0). pair_defects, the reports' loop, is not used.
        """
        if not n_ops or not s_ops:
            return []
        n = self.n
        n_last, s_last = len(n_ops) - 1, len(s_ops) - 1
        mirrored = closed_under_negation(n_ops) and closed_under_negation(s_ops)
        # The trie of the N's columns: trie[c_0][c_1]...[c_(n-1)] lists the
        # indices i of the N with columns[c_x] = N e_x for every x.
        trie: dict = {}
        ids: dict = {}  # column -> its index in columns
        for i, n_flat in enumerate(n_ops):
            node = trie
            for x in range(n - 1):
                col = tuple(n_flat[x::n])
                node = node.setdefault(ids.setdefault(col, len(ids)), {})
            col = tuple(n_flat[n - 1 :: n])
            node.setdefault(ids.setdefault(col, len(ids)), []).append(i)
        columns = list(ids)
        w = pair_width(self._rho, n_ops, s_ops)
        commutators = _unit_commutators(self._rho)
        ck = _commutator_table(commutators, w)
        sc = [None] * n  # each x's table of S C_x, on first reach
        out = []
        for j in range(len(s_ops) // 2 if mirrored else 0, len(s_ops)):
            packed, ss = _pair_keys(ck, s_ops[j])
            # The packed sum_k c_k C_k per column c and S C_x per x, each on
            # first use.
            combos = [None] * len(columns)
            keys = [None] * n
            stack = [(trie, 0)]
            while stack:
                node, x = stack.pop()
                key = keys[x]
                if key is None:
                    if sc[x] is None:
                        sc[x] = _shift_table(commutators[x], w)
                    key = keys[x] = sum(map(mul, ss, sc[x]))
                for c, child in node.items():
                    combo = combos[c]
                    if combo is None:
                        combo = combos[c] = _combination(columns[c], packed)
                    if combo == key:
                        if x < n - 1:
                            stack.append((child, x + 1))
                        else:
                            out.extend(zip(child, repeat(j)))
        if mirrored:
            out += [(n_last - i, s_last - j) for i, j in out if s_last - j != j]
        out.sort()
        return out

    def kn_join(
        self,
        t_ops: Sequence[Sequence[int]],
        n_ops: Sequence[Sequence[int]],
        s_ops: Sequence[Sequence[int]],
        pairs: Sequence[tuple[int, int]],
    ) -> KNJoin:
        """The tables kn_pairs reads for every T of t_ops, built once per
        search: the pairs (i, j) grouped by S = s_ops[j] in the order each
        S first appears, each group in pairs' order; the distinct N =
        n_ops[i], listed once; and the bracket match's packed table. The
        widths read G_T off t_ops and G_N and G_S off the N and S that
        pairs names."""
        if not t_ops or not pairs:
            return KNJoin(0, [], [], [], 0)
        n, m = self.n, self.m
        place: dict = {}  # i -> its place among the distinct N
        groups: dict = {}
        for i, j in pairs:
            members = groups.setdefault(j, [])
            members.append((place.setdefault(i, len(place)), i))
        g_t = _largest(chain.from_iterable(t_ops))
        g_s = _largest(chain.from_iterable(s_ops[j] for j in groups))
        n_listed = [n_ops[i] for i in place]
        table = _match_table(_unit_commutators(self._rho), m)
        match_w = form_width(chain.from_iterable(table), g_t * g_s)
        return KNJoin(
            twist_width(n, m, g_t, _largest(chain.from_iterable(n_listed)), g_s),
            n_listed,
            [(j, s_ops[j], members) for j, members in groups.items()],
            [[_packed(per_t[b], match_w) for per_t in table] for b in range(m * m)],
            match_w,
        )

    def kn_pairs(self, t_op: Sequence[int], join: KNJoin) -> list[tuple[int, int]]:
        """The index pairs (i, j) of the join's pairs, grouped by S as
        kn_join lists them, for which T, S = s_ops[j] and N = n_ops[i] meet
        the twist NT = TS and the bracket match
        [u,v]^{NT} = ([u,v]^T)_S; pairs sorted by S keep their order.

        The rest of a KN structure, T Kupershmidt and (N, S) a Nijenhuis
        pair, is is_kupershmidt and nijenhuis_pairs; callers filter with
        them first. Both conditions are compared on packed integer keys
        (lieop.kernel's fifth shortcut). The twist: NT is linear in N and
        TS in S, so the packed E_u T and T E_v are tabulated, a shift of
        one of T's packed rows or columns each, and each distinct N and
        each S is keyed by one dot product with them. The bracket match:
        where NT = TS it is D(T, S), bilinear in T and S (_match_table),
        so T's m^2 packed rows sum_a t_a P(D(E_a, E_b)) are formed once and
        each S is one dot product with them, of length m^2. A pair is kept
        when its S's match key is 0 and its N's twist key equals its S's.
        """
        by_n, by_s = _twist_tables(t_op, self.n, self.m, join.twist_w)
        nt = [sum(map(mul, n_op, by_n)) for n_op in join.n_ops]
        rows = [sum(map(mul, t_op, col)) for col in join.match]
        out = []
        for j, s_op, members in join.groups:
            if sum(map(mul, s_op, rows)):
                continue
            ts = sum(map(mul, s_op, by_s))
            out += [(i, j) for place, i in members if nt[place] == ts]
        return out
