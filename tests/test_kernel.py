"""Differential tests: every verdict of lieop.verdicts, on lieop.kernel's
loops or on packed keys, against the reporting predicates and the loops it
stands in for inside grid_search."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieop import (
    Matrix,
    Representation,
    adjoint_rep,
    are_compatible_kupershmidt,
    coadjoint_rep,
    deformed_algebra,
    invert,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_rota_baxter,
    mat_mul,
    sub_adjacent_bracket,
)
from lieop import kernel as kernel_module
from lieop import verdicts as verdicts_module
from lieop.catalog import get_entry, list_catalog
from lieop.kernel import integer_image, negated, pair_defects
from lieop.verdicts import VerdictKernel, compatible, form_vanishes
from lieop.reps import _ad_family

from conftest import MIXED_AFF1, THIRD_SL2
from test_witness_loops import reference_pair

INTEGER_GRID = (Fraction(-1), Fraction(0), Fraction(1))
FRACTIONAL_GRID = (Fraction(-1, 2), Fraction(0), Fraction(1, 3))


def flat(*ops: Matrix) -> list[tuple[int, ...]]:
    """Row-major integer images of the operators under one shared scale."""
    ints = iter(integer_image([c for op in ops for row in op.rows for c in row])[0])
    return [tuple(next(ints) for _ in range(op.nrows * op.ncols)) for op in ops]


def grid_operators(grid, nrows: int, ncols: int):
    """Every nrows x ncols operator over the grid: (integer image, Matrix)."""
    ints, _ = integer_image(list(grid))
    value_of = dict(zip(ints, grid))
    for combo in itertools.product(ints, repeat=nrows * ncols):
        rows = [[value_of[c] for c in combo[r * ncols : (r + 1) * ncols]] for r in range(nrows)]
        yield combo, Matrix(rows)


def nijenhuis_by_the_form(kernel, flats) -> list[bool]:
    """The verdict of the search's packed torsion form on each flat, its
    table built once for the largest entry among them."""
    form = kernel.torsion_form(max((abs(c) for f in flats for c in f), default=0))
    return [form_vanishes(form, f) for f in flats]


def reps_of(g):
    return [adjoint_rep(g), coadjoint_rep(g)]


def rescaled_adjoint(g):
    """The adjoint action conjugated by diag(1, ..., n): its scale differs
    from the algebra's on heis3, sl2, MIXED_AFF1 and THIRD_SL2, so the
    solved enumeration meets two scales there."""
    p = Matrix.diagonal(range(1, g.dim + 1))
    return Representation(g, [mat_mul(mat_mul(p, a), invert(p)) for a in adjoint_rep(g).matrices])


def assert_single_operator_kernel_agrees(g, grid) -> set[bool]:
    """The Nijenhuis verdicts met, which include a pass (the zero operator
    at least)."""
    kernel = VerdictKernel(g, adjoint_rep(g))
    verdicts = set()
    ops = list(grid_operators(grid, g.dim, g.dim))
    by_the_form = nijenhuis_by_the_form(kernel, [combo for combo, _ in ops])
    for (combo, op), packed in zip(ops, by_the_form):
        nij = is_nijenhuis(g, op).ok
        assert packed == nij, op
        assert kernel.is_kupershmidt(combo) == is_rota_baxter(g, op).ok, op
        verdicts.add(nij)
    assert True in verdicts
    return verdicts


def assert_module_kernel_agrees(g, rho, grid, four_term=False):
    """The pair verdicts of nijenhuis_pairs, on packed keys from its
    coefficient tables, against is_nijenhuis_pair, which reads the
    commutators [rho(e_k), S] as matrices; with four_term, also against the
    four-term reference, which reads neither."""
    kernel = VerdictKernel(g, rho)
    n, m = g.dim, rho.module_dim
    for combo, t_op in grid_operators(grid, n, m):
        assert kernel.is_kupershmidt(combo) == is_kupershmidt(g, rho, t_op).ok

    n_ops = list(grid_operators(grid, n, n))
    s_ops = list(grid_operators(grid, m, m))
    by_the_form = nijenhuis_by_the_form(kernel, [combo for combo, _ in n_ops])
    nijenhuis = [k for k, passes in enumerate(by_the_form) if passes]
    pairs = kernel.nijenhuis_pairs([n_ops[k][0] for k in nijenhuis], [s for s, _ in s_ops])
    assert pairs == sorted(pairs)
    decided = {(nijenhuis[i], j) for i, j in pairs}
    expected = {
        (i, j)
        for i, (_, n_op) in enumerate(n_ops)
        for j, (_, s_op) in enumerate(s_ops)
        if is_nijenhuis_pair(g, rho, n_op, s_op).ok
    }
    assert decided == expected
    assert expected
    if four_term:
        assert expected == {
            (i, j)
            for i, (_, n_op) in enumerate(n_ops)
            for j, (_, s_op) in enumerate(s_ops)
            if reference_pair(g, rho, n_op, s_op).ok
        }


class TestIntegerGrid:
    @pytest.mark.parametrize("name", ["aff1", "heis3", "sl2"])
    def test_nijenhuis_and_rota_baxter(self, name):
        assert_single_operator_kernel_agrees(get_entry(name).algebra, INTEGER_GRID)

    @pytest.mark.parametrize("rep", ["adjoint", "coadjoint"])
    def test_kupershmidt_and_pairs_on_aff1(self, aff1, rep):
        assert_module_kernel_agrees(aff1.algebra, aff1.representations[rep], INTEGER_GRID)


class TestFractionalGrid:
    def test_nijenhuis_and_rota_baxter(self, aff1):
        assert_single_operator_kernel_agrees(aff1.algebra, FRACTIONAL_GRID)

    @pytest.mark.parametrize("rep", ["adjoint", "coadjoint"])
    def test_kupershmidt_and_pairs_on_aff1(self, aff1, rep):
        rho = aff1.representations[rep]
        assert_module_kernel_agrees(aff1.algebra, rho, FRACTIONAL_GRID, four_term=True)


class TestFractionalStructureConstants:
    @pytest.mark.parametrize("grid", [INTEGER_GRID, FRACTIONAL_GRID], ids=["int", "frac"])
    def test_nijenhuis_and_rota_baxter(self, grid):
        assert_single_operator_kernel_agrees(MIXED_AFF1, grid)

    def test_nijenhuis_fails_and_passes_on_third_sl2(self):
        # By Cayley-Hamilton every operator on a 2-dimensional algebra,
        # MIXED_AFF1 included, is Nijenhuis; a 3-dimensional one compares
        # failing verdicts too.
        grid = (Fraction(0), Fraction(1, 2))
        assert assert_single_operator_kernel_agrees(THIRD_SL2, grid) == {True, False}

    @pytest.mark.parametrize("rep", [0, 1], ids=["adjoint", "coadjoint"])
    def test_kupershmidt_and_pairs(self, rep):
        assert_module_kernel_agrees(MIXED_AFF1, reps_of(MIXED_AFF1)[rep], INTEGER_GRID)


ALGEBRAS = {
    "aff1": get_entry("aff1").algebra,
    "heis3": get_entry("heis3").algebra,
    "sl2": get_entry("sl2").algebra,
    "mixed_aff1": MIXED_AFF1,
    "third_sl2": THIRD_SL2,
}

# Mostly zeros, so that the identities hold often enough to be tested both ways.
entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


def square(data, size: int) -> Matrix:
    return Matrix(data.draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                                     min_size=size, max_size=size)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), rep=st.sampled_from([0, 1]), data=st.data())
def test_random_rationals(name, rep, data):
    g = ALGEBRAS[name]
    rho = reps_of(g)[rep]
    n = g.dim
    n_op, s_op, t_op = square(data, n), square(data, n), square(data, n)
    kernel = VerdictKernel(g, rho)
    n_int, s_int, t_int = flat(n_op, s_op, t_op)

    [nij] = nijenhuis_by_the_form(kernel, [n_int])
    assert nij == is_nijenhuis(g, n_op).ok
    assert VerdictKernel(g, adjoint_rep(g)).is_kupershmidt(n_int) == is_rota_baxter(g, n_op).ok
    assert kernel.is_kupershmidt(t_int) == is_kupershmidt(g, rho, t_op).ok
    pair = nij and kernel.nijenhuis_pairs([n_int], [s_int]) == [(0, 0)]
    assert pair == is_nijenhuis_pair(g, rho, n_op, s_op).ok
    # The twist and the bracket match, against the Matrix definitions.
    nt = mat_mul(n_op, t_op)
    kn = nt == mat_mul(t_op, s_op) and sub_adjacent_bracket(g, rho, nt) == deformed_algebra(
        sub_adjacent_bracket(g, rho, t_op), s_op
    )
    join = kernel.kn_join([t_int], [n_int], [s_int], [(0, 0)])
    assert (kernel.kn_pairs(t_int, join) == [(0, 0)]) == kn


SOLVE_ALGEBRAS = {"abelian_1": get_entry("abelian_1").algebra, **ALGEBRAS}
SOLVE_GRIDS = {
    "int": INTEGER_GRID,
    "frac": FRACTIONAL_GRID,
    "one": (Fraction(-1, 2),),
    "empty": (),
}
# Module dimensions 1, 2 and 3. At dim 3 the filtered product has 3^9 flats
# per three-value grid, so the adjoint, coadjoint and rescaled forms get one
# or two such grids there, and the rota_baxter form, which builds every
# candidate as a Matrix, none; dims 1 and 2 take every form on every grid.
DIM3_FULL_GRIDS = {
    ("adjoint", "int"), ("coadjoint", "int"), ("adjoint", "frac"), ("rescaled", "frac")
}
SOLVE_CASES = [
    (name, form, grid)
    for name, g in SOLVE_ALGEBRAS.items()
    for form in ("rota_baxter", "adjoint", "coadjoint", "rescaled")
    for grid in SOLVE_GRIDS
    if g.dim < 3 or len(SOLVE_GRIDS[grid]) < 3 or (form, grid) in DIM3_FULL_GRIDS
]


class TestSolvedEnumeration:
    @pytest.mark.parametrize("name,form,grid", SOLVE_CASES)
    def test_equals_the_filtered_product(self, name, form, grid):
        g = SOLVE_ALGEBRAS[name]
        values = SOLVE_GRIDS[grid]
        ints, _ = integer_image(list(values))
        if form == "rota_baxter":
            # What a rota_baxter search runs: the kernel over the unchecked
            # adjoint family, here against the public predicate.
            kernel = VerdictKernel(g, _ad_family(g))
            expected = [
                combo
                for combo, op in grid_operators(values, g.dim, g.dim)
                if is_rota_baxter(g, op).ok
            ]
        else:
            rho = rescaled_adjoint(g) if form == "rescaled" else reps_of(g)[form == "coadjoint"]
            kernel = VerdictKernel(g, rho)
            expected = [
                flat
                for flat in itertools.product(ints, repeat=g.dim * rho.module_dim)
                if kernel.is_kupershmidt(flat)
            ]
        assert kernel.kupershmidt_solutions(ints) == expected


class TestSolvedEnumerationWork:
    def test_each_result_is_confirmed_once(self, sl2, monkeypatch):
        # The open pairs (i, last) filter every solved or free last column,
        # so the full identity runs once per result it decides (435 times
        # before), and over {-1, 0, 1} it decides one of each {T, -T}: the
        # zero operator and 11 of the 22 others.
        g = sl2.algebra
        kernel = VerdictKernel(g, _ad_family(g))
        confirmations = []
        real = VerdictKernel.is_kupershmidt

        def counting(self, t_op):
            confirmations.append(t_op)
            return real(self, t_op)

        monkeypatch.setattr(VerdictKernel, "is_kupershmidt", counting)
        found = kernel.kupershmidt_solutions([-1, 0, 1])
        assert (len(found), len(confirmations)) == (23, 12)
        assert {t_op for t_op in confirmations if any(t_op)}.isdisjoint(
            map(negated, confirmations)
        )
        assert sorted(confirmations + [negated(t) for t in confirmations if any(t)]) == found


def pairs_by_the_pair_loop(rho, n_ops, s_ops) -> list[tuple[int, int]]:
    """The (i, j) for which pair_defects yields nothing, one (N, S) at a time."""
    image = rho.integer_image
    return [
        (i, j)
        for i, n_op in enumerate(n_ops)
        for j, s_op in enumerate(s_ops)
        if next(pair_defects(image, "pair", s_op, n_op), None) is None
    ]


def nijenhuis_survivors(g, rho, grid):
    kernel = VerdictKernel(g, rho)
    ints, _ = integer_image(list(grid))
    flats = list(itertools.product(ints, repeat=g.dim * g.dim))
    n_ops = list(itertools.compress(flats, nijenhuis_by_the_form(kernel, flats)))
    return kernel, n_ops, list(itertools.product(ints, repeat=rho.module_dim**2))


class TestColumnTrie:
    """nijenhuis_pairs walks the N as a trie over their columns; on sl2 the
    trie has three levels and the N share prefixes."""

    def test_sl2_adjoint_equals_the_pair_loop(self, sl2):
        g = sl2.algebra
        rho = sl2.representations["adjoint"]
        kernel, n_ops, s_ops = nijenhuis_survivors(g, rho, (0, 1))
        pairs = kernel.nijenhuis_pairs(n_ops, s_ops)
        assert (len(n_ops), len(s_ops), len(pairs)) == (34, 512, 128)
        assert pairs == pairs_by_the_pair_loop(rho, n_ops, s_ops)

    def test_combinations_formed(self, sl2, monkeypatch):
        # Each column's packed combination of the C_k is formed once per S,
        # and only where the walk reaches it: 4,096 with every distinct
        # column tabulated per S.
        calls = []
        real = verdicts_module._combination

        def counting(col, packed):
            calls.append(col)
            return real(col, packed)

        kernel, n_ops, s_ops = nijenhuis_survivors(
            sl2.algebra, sl2.representations["adjoint"], (0, 1)
        )
        monkeypatch.setattr(verdicts_module, "_combination", counting)
        assert len(kernel.nijenhuis_pairs(n_ops, s_ops)) == 128
        assert len(calls) == 1576

    def test_empty_lists(self, sl2):
        kernel, n_ops, s_ops = nijenhuis_survivors(
            sl2.algebra, sl2.representations["adjoint"], (0, 1)
        )
        assert kernel.nijenhuis_pairs([], s_ops) == []
        assert kernel.nijenhuis_pairs(n_ops, []) == []
        assert kernel.nijenhuis_pairs([], []) == []

    @pytest.mark.parametrize("action", ["adjoint", "nilpotent"])
    def test_one_level_on_abelian_1(self, action):
        # The adjoint action is zero, so every (N, S) is a pair; the
        # nilpotent action on a plane makes some fail.
        g = get_entry("abelian_1").algebra
        if action == "adjoint":
            rho = adjoint_rep(g)
        else:
            rho = Representation(g, [Matrix([[0, 1], [0, 0]])])
        kernel, n_ops, s_ops = nijenhuis_survivors(g, rho, INTEGER_GRID)
        pairs = kernel.nijenhuis_pairs(n_ops, s_ops)
        assert pairs == pairs_by_the_pair_loop(rho, n_ops, s_ops)
        # 3 N by 3 S, and 45 of 3 N by 81 S.
        assert len(pairs) == (9 if action == "adjoint" else 45)


class TestPairPacking:
    """nijenhuis_pairs compares sum_k c_k C_k with S C_x as integers
    P(v) = sum_i v_i B^i, with B = 2^w from pair_width."""

    @pytest.mark.parametrize("name", ["abelian_1", "aff1", "sl2"])
    def test_the_base_separates_what_half_of_it_merges(self, name):
        # Over {-1, 0, 1} (G_N = G = 1), an entry of a C_k = [rho(e_k), S]
        # is at most 2 m R in size, one of sum_k c_k C_k at most n times
        # that and one of S C_x at most m times that; B exceeds their sum.
        # At B / 2, the digits (0, a, 0, ...) and (0, a - B/2, 1, 0, ...),
        # each within its side's reach, already pack to the same integer.
        # abelian_1 acts on a plane by a nilpotent matrix, the others by ad.
        g = get_entry(name).algebra
        if name == "abelian_1":
            rho = Representation(g, [Matrix([[0, 1], [0, 0]])]).integer_image
        else:
            rho = adjoint_rep(g).integer_image
        n, m = g.dim, rho.m
        n_ops = list(itertools.product((-1, 0, 1), repeat=n * n))
        s_ops = list(itertools.product((-1, 0, 1), repeat=m * m))
        entry = 2 * m * max(abs(c) for mat in rho.mats for row in mat for c in row)
        u_reach, v_reach = n * entry, m * entry
        w = verdicts_module.pair_width(rho, n_ops, s_ops)
        half = 1 << (w - 1)
        assert half <= u_reach + v_reach < 2 * half
        pad = (0,) * (m * m - 3)
        u, v = (0, u_reach, 0) + pad, (0, u_reach - half, 1) + pad
        assert abs(u_reach - half) <= v_reach
        assert verdicts_module._packed(u, w - 1) == verdicts_module._packed(v, w - 1)
        assert verdicts_module._packed(u, w) != verdicts_module._packed(v, w)

    @pytest.mark.parametrize("name", ["abelian_1", "aff1", "sl2"])
    def test_grid_of_zero(self, name):
        # Every entry is 0, so the base is 2^0 = 1, and (0, 0) is the one
        # pair.
        g = get_entry(name).algebra
        rho = adjoint_rep(g)
        kernel, n_ops, s_ops = nijenhuis_survivors(g, rho, (0,))
        assert verdicts_module.pair_width(rho.integer_image, n_ops, s_ops) == 0
        assert kernel.nijenhuis_pairs(n_ops, s_ops) == [(0, 0)]

    def test_width_over_empty_lists(self, aff1):
        # An empty list's largest entry counts as 0: with no N the bound is
        # 2 m R G (m G) = 8 on aff1's adjoint image (R = 1) for G = 1, and
        # with no S it is 0.
        rho = aff1.representations["adjoint"].integer_image
        assert verdicts_module.pair_width(rho, [], [(1, 0, 0, 1)]) == 4
        assert verdicts_module.pair_width(rho, [(1, 0, 0, 1)], []) == 0
        assert verdicts_module.pair_width(rho, [], []) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([2, 3]),
        action=st.data(),
        values=st.lists(
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        symmetric=st.booleans(),
    )
    def test_large_entries_agree_with_the_pair_loop(self, m, action, values, symmetric):
        # abelian_1 takes any single matrix as its action. Entries up to
        # 10^6 and grid values with numerators and denominators up to 10^6
        # make wide digits; over a grid closed under negation the walk is
        # also mirrored. 3 x 3 actions take two grid values (2^9 S).
        g = get_entry("abelian_1").algebra
        entry = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
        flat_action = action.draw(st.lists(entry, min_size=m * m, max_size=m * m))
        rho = Representation(g, [Matrix([flat_action[r * m : (r + 1) * m] for r in range(m)])])
        if symmetric:
            values = [values[0], -values[0]]
        grid = sorted(set(values[: 3 if m == 2 else 2]))
        kernel, n_ops, s_ops = nijenhuis_survivors(g, rho, grid)
        assert kernel.nijenhuis_pairs(n_ops, s_ops) == pairs_by_the_pair_loop(rho, n_ops, s_ops)


def count_table_builds(monkeypatch) -> list[str]:
    """Wrap the pair search's table builders; return their names, one per
    call."""
    calls = []
    for name in ("_unit_commutators", "_commutator_table", "_shift_table"):
        real = getattr(verdicts_module, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(verdicts_module, name, counting)
    return calls


class TestPairTables:
    """nijenhuis_pairs builds its tables only for a walk that happens, and
    each x's table of S C_x only once the walk reaches x."""

    def test_an_empty_list_builds_no_table(self, sl2, monkeypatch):
        kernel, n_ops, s_ops = nijenhuis_survivors(
            sl2.algebra, sl2.representations["adjoint"], (0, 1)
        )
        built = count_table_builds(monkeypatch)
        for n_list, s_list in (([], s_ops), (n_ops, []), ([], [])):
            assert kernel.nijenhuis_pairs(n_list, s_list) == []
        assert built == []

    def test_each_shift_table_is_built_once(self, sl2, monkeypatch):
        kernel, n_ops, s_ops = nijenhuis_survivors(
            sl2.algebra, sl2.representations["adjoint"], (0, 1)
        )
        built = count_table_builds(monkeypatch)
        assert len(kernel.nijenhuis_pairs(n_ops, s_ops)) == 128
        assert sorted(built) == ["_commutator_table", "_shift_table", "_shift_table",
                                 "_shift_table", "_unit_commutators"]

    def test_a_walk_that_stops_at_the_first_basis_vector_builds_one(self, sl2, monkeypatch):
        # N = 0 makes sum_k N_kx C_k zero, so the pair fails at x = 0
        # exactly when S C_0 is nonzero, and the walk goes no deeper.
        rho = sl2.representations["adjoint"]
        kernel = VerdictKernel(sl2.algebra, rho)
        zero = (0,) * 9
        s_op = next(
            s
            for s in itertools.product((0, 1), repeat=9)
            if next(pair_defects(rho.integer_image, "pair", s, zero), (None,))[0] == (0,)
        )
        built = count_table_builds(monkeypatch)
        assert kernel.nijenhuis_pairs([zero], [s_op]) == []
        assert sorted(built) == ["_commutator_table", "_shift_table", "_unit_commutators"]


def torsion_by_the_loop(image, flat) -> list[int]:
    """The torsion loop's defects as one flat vector over the pairs i < j."""
    n = image.n
    out = []
    defects = dict(kernel_module.torsion_defects(image, flat))
    for pair in itertools.combinations(range(n), 2):
        out += defects.get(pair, [0] * n)
    return out


def kupershmidt_by_the_loop(kernel, flat) -> list[int]:
    """The Kupershmidt loop's defects as one flat vector over the module
    pairs i < j."""
    n, m = kernel.n, kernel.m
    defects = dict(kernel_module.kupershmidt_defects(kernel._g, kernel._rho, flat))
    out = []
    for pair in itertools.combinations(range(m), 2):
        out += defects.get(pair, [0] * n)
    return out


def bracket_match_by_the_loop(image, t_op, s_op) -> list[int]:
    """The bracket-match loop's defects for T and S, with NT taken to be
    TS, as one flat vector over the module pairs i < j."""
    m = image.m
    ts = kernel_module._matmul(kernel_module._rows(t_op, m), kernel_module._rows(s_op, m))
    ads = kernel_module.sub_adjacent_ads(image, t_op)
    deformed = kernel_module.deformed_sub_adjacent(ads, s_op)
    ts_flat = list(itertools.chain(*ts))
    defects = dict(kernel_module.bracket_match_defects(image, deformed, ts_flat))
    out = []
    for pair in itertools.combinations(range(m), 2):
        out += defects.get(pair, [0] * m)
    return out


def assert_match_table_is_the_loop(image, n: int) -> None:
    """_match_table's D(E_a, E_b) against the bracket-match loop at every
    unit T = E_a and unit S = E_b."""
    m = image.m
    table = verdicts_module._match_table(verdicts_module._unit_commutators(image), m)
    t_units, s_units = (
        [tuple(int(a == b) for b in range(size)) for a in range(size)] for size in (n * m, m * m)
    )
    assert [[bracket_match_by_the_loop(image, t, s) for s in s_units] for t in t_units] == table


def dot(xs, ys) -> int:
    return sum(x * y for x, y in zip(xs, ys))


class TestPackedStages:
    """Each packed search stage against the loop it stands in for."""

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    @pytest.mark.parametrize("grid", [INTEGER_GRID, FRACTIONAL_GRID], ids=["int", "frac"])
    def test_torsion_form_against_the_torsion_loop(self, name, grid):
        # The coefficients reproduce the torsion of every N; the packed form
        # vanishes exactly where the loop yields nothing. On a 3-dimensional
        # algebra only the N over two grid values are taken.
        g = ALGEBRAS[name]
        kernel = VerdictKernel(g, adjoint_rep(g))
        ints, _ = integer_image(list(grid))
        image = g.integer_image
        n = g.dim
        coefs = verdicts_module._quadratic_coefficients(
            lambda flat: torsion_by_the_loop(image, flat), n * n
        )
        form = kernel.torsion_form(max(map(abs, ints)))
        assert bool(form.coefs) == (n > 2)
        verdicts = set()
        for flat in itertools.product(ints if n < 3 else ints[1:], repeat=n * n):
            products = [a * b for a, b in itertools.combinations_with_replacement(flat, 2)]
            torsion = torsion_by_the_loop(image, flat)
            assert [dot(products, entries) for entries in zip(*coefs)] == torsion
            passes = form_vanishes(form, flat)
            assert passes == (not any(torsion))
            verdicts.add(passes)
        assert True in verdicts

    @pytest.mark.parametrize(
        "name,form,grid",
        [
            ("aff1", "coadjoint", INTEGER_GRID),
            ("aff1", "adjoint", FRACTIONAL_GRID),
            ("sl2", "rota_baxter", INTEGER_GRID),
            ("heis3", "adjoint", (Fraction(0), Fraction(1))),
            ("mixed_aff1", "rescaled", FRACTIONAL_GRID),
            ("third_sl2", "coadjoint", (Fraction(0), Fraction(1, 2))),
        ],
    )
    def test_compatibility_against_the_sum(self, name, form, grid):
        # For Kupershmidt T1 and T2, one dot product of T1's row with T2
        # decides whether T1 + T2 is Kupershmidt.
        g = ALGEBRAS[name]
        if form == "rota_baxter":
            rho = _ad_family(g)
        elif form == "rescaled":
            rho = rescaled_adjoint(g)
        else:
            rho = reps_of(g)[form == "coadjoint"]
        kernel = VerdictKernel(g, rho)
        ints, _ = integer_image(list(grid))
        t_ops = kernel.kupershmidt_solutions(ints)
        rows = kernel.compatibility_rows(t_ops)
        verdicts = [
            [compatible(row, t2) for t2 in t_ops] for row in rows
        ]
        expected = [
            [kernel.is_kupershmidt(tuple(map(sum, zip(t1, t2)))) for t2 in t_ops] for t1 in t_ops
        ]
        assert verdicts == expected
        assert {v for row in verdicts for v in row} == {True, False}

    def test_compatibility_rows_are_the_polarization_of_any_pair(self, aff1):
        # Off the Kupershmidt operators too, T1's row dotted with T2 is the
        # packed K(T1 + T2) - K(T1) - K(T2); it vanishes exactly where that
        # vector does.
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        kernel = VerdictKernel(g, rho)
        t_ops = list(itertools.product((-1, 0, 2), repeat=4))
        rows = kernel.compatibility_rows(t_ops)
        for t1, row in zip(t_ops, rows):
            for t2 in t_ops:
                total = kupershmidt_by_the_loop(kernel, tuple(map(sum, zip(t1, t2))))
                ones = kupershmidt_by_the_loop(kernel, t1)
                twos = kupershmidt_by_the_loop(kernel, t2)
                cross = [s - a - b for s, a, b in zip(total, ones, twos)]
                assert compatible(row, t2) == (not any(cross))

    @pytest.mark.parametrize(
        "name,rep",
        [(name, rep) for name in list_catalog() for rep in get_entry(name).representations],
    )
    def test_match_table_against_the_bracket_match_loop(self, name, rep):
        # Once NT = TS the bracket match is D(T, S), bilinear in T and S:
        # its table at every unit pair is the loop's defect there.
        entry = get_entry(name)
        assert_match_table_is_the_loop(entry.representations[rep].integer_image, entry.algebra.dim)

    @pytest.mark.parametrize("name,rep", [("aff1", "adjoint"), ("heis3", "coadjoint")])
    def test_match_keys_against_the_bracket_match_loop(self, name, rep):
        # T's packed rows dotted with S are the packed D(T, S), which is
        # the loop's defect for any T and S (NT taken to be TS).
        entry = get_entry(name)
        rho = entry.representations[rep]
        kernel, image = VerdictKernel(entry.algebra, rho), rho.integer_image
        n, m = entry.algebra.dim, rho.module_dim
        values = (-2, 0, 1)
        t_ops = list(itertools.product(values, repeat=n * m))[::97]
        s_ops = list(itertools.product(values, repeat=m * m))[::89]
        join = kernel.kn_join(t_ops, [(0,) * n * n], s_ops, [(0, j) for j in range(len(s_ops))])
        for t_op in t_ops:
            rows = [dot(t_op, col) for col in join.match]
            for s_op in s_ops:
                expected = bracket_match_by_the_loop(image, t_op, s_op)
                assert dot(s_op, rows) == verdicts_module._packed(expected, join.match_w)

    @pytest.mark.parametrize("name", ["aff1", "abelian_1"])
    def test_twist_keys_against_the_matrix_products(self, name):
        # P(NT) and P(TS), one dot product each with T's tables, against
        # the packed products of the matrices. abelian_1 acts on a plane,
        # so its T is 1 x 2 and the two tables differ in length.
        g = SOLVE_ALGEBRAS[name]
        m = 2
        n = g.dim
        values = (-2, 0, 1)
        t_ops = list(itertools.product(values, repeat=n * m))
        n_ops = list(itertools.product(values, repeat=n * n))
        s_ops = list(itertools.product(values, repeat=m * m))
        w = verdicts_module.twist_width(n, m, 2, 2, 2)
        for t_op in t_ops[::3]:
            by_n, by_s = verdicts_module._twist_tables(t_op, n, m, w)
            t = kernel_module._rows(t_op, m)
            for n_op in n_ops:
                nt = kernel_module._matmul(kernel_module._rows(n_op, n), t)
                assert dot(n_op, by_n) == verdicts_module._packed(itertools.chain(*nt), w)
            for s_op in s_ops:
                ts = kernel_module._matmul(t, kernel_module._rows(s_op, m))
                assert dot(s_op, by_s) == verdicts_module._packed(itertools.chain(*ts), w)


class TestEdgeGrids:
    """The grid {0}, single-value grids and an empty T list."""

    def test_grid_of_zero(self, sl2):
        g = sl2.algebra
        kernel = VerdictKernel(g, sl2.representations["adjoint"])
        zero = (0,) * 9
        # Every entry is 0, so each packing has width 0 (B = 1).
        assert kernel.kupershmidt_solutions([0]) == [zero]
        assert verdicts_module.solve_width(g.integer_image, kernel._rho, 0) == 0
        assert form_vanishes(kernel.torsion_form(0), zero)
        assert kernel.compatibility_rows([zero]) == [[0] * 9]
        assert compatible([0] * 9, zero)
        join = kernel.kn_join([zero], [zero], [zero], [(0, 0)])
        assert kernel.kn_pairs(zero, join) == [(0, 0)]

    @pytest.mark.parametrize("value", [-1, 2])
    def test_single_value_grids(self, sl2, value):
        # One N, the constant one: -1 times or 2 times the all-ones matrix.
        g = sl2.algebra
        rho = sl2.representations["coadjoint"]
        kernel = VerdictKernel(g, rho)
        flat = (value,) * 9
        assert kernel.kupershmidt_solutions([value]) == (
            [flat] if kernel.is_kupershmidt(flat) else []
        )
        form = kernel.torsion_form(abs(value))
        assert form_vanishes(form, flat) == (
            next(kernel_module.torsion_defects(g.integer_image, flat), None) is None
        )
        [row] = kernel.compatibility_rows([flat])
        doubled = tuple(2 * c for c in flat)
        assert compatible(row, flat) == kernel.is_kupershmidt(doubled)

    @pytest.mark.parametrize("indices", [[], [2], [2, 0]])
    def test_sparse_form_picks_a_tuple(self, indices):
        # itemgetter gives a bare entry for one index, so a torsion form
        # with one nonzero coefficient needs its own picker.
        flat = (5, 6, 7)
        assert verdicts_module._picker(indices)(flat) == tuple(flat[i] for i in indices)

    def test_empty_t_list(self, aff1):
        kernel = VerdictKernel(aff1.algebra, aff1.representations["coadjoint"])
        assert kernel.compatibility_rows([]) == []
        one = (1, 0, 0, 1)
        assert kernel.kn_pairs(one, kernel.kn_join([one], [one], [one], [])) == []
        assert kernel.kn_join([], [one], [one], [(0, 0)]).groups == []


def assert_least_width(w: int, reach: int, length: int) -> None:
    """B = 2^w is the least power of two above reach, the bound on every
    entry of a difference the stage tests for zero, and half of it would
    not separate: (B/2, 0, ...) and (0, 1, 0, ...), whose difference
    (B/2, -1, 0, ...) is within reach, pack to one integer at base B/2."""
    half = 1 << (w - 1)
    assert half <= reach < 2 * half
    u, v = (half,) + (0,) * (length - 1), (0, 1) + (0,) * (length - 2)
    assert verdicts_module._packed(u, w - 1) == verdicts_module._packed(v, w - 1)
    assert verdicts_module._packed(u, w) != verdicts_module._packed(v, w)


def images_reach(g, rho) -> tuple[int, int]:
    """A, the sum of |entry| over g's image, and R, the largest |entry| of
    rho's."""
    a = sum(abs(c) for value in g.integer_image.basis.values() for c in value)
    r = max(abs(c) for mat in rho.integer_image.mats for row in mat for c in row)
    return a, r


class TestWidths:
    """Each packed stage's width against the reach its docstring states."""

    @pytest.mark.parametrize(
        "name,form,grid",
        [
            ("sl2", "rota_baxter", INTEGER_GRID),
            ("heis3", "coadjoint", INTEGER_GRID),
            ("mixed_aff1", "rescaled", FRACTIONAL_GRID),
            ("third_sl2", "adjoint", FRACTIONAL_GRID),
        ],
    )
    def test_solve(self, name, form, grid):
        # An entry of kg [x, y] is at most 2 G^2 kg A; one of kr q[j]c at
        # most kr n R G, so an inner coefficient at most twice that, and the
        # right side less the coefficient times a column sums m of them.
        g = ALGEBRAS[name]
        if form == "rota_baxter":
            rho = _ad_family(g)
        elif form == "rescaled":
            rho = rescaled_adjoint(g)
        else:
            rho = reps_of(g)[form == "coadjoint"]
        ints, _ = integer_image(list(grid))
        big = max(map(abs, ints))
        a, r = images_reach(g, rho)
        kg, kr = rho.integer_image.scale, g.integer_image.scale
        n, m = g.dim, rho.module_dim
        reach = 2 * big * big * kg * a + 2 * m * (kr * n * r * big) * big
        w = verdicts_module.solve_width(g.integer_image, rho.integer_image, big)
        assert_least_width(w, reach, n)

    @pytest.mark.parametrize("name", ["sl2", "heis3", "third_sl2"])
    def test_torsion_form(self, name):
        # Each product n_a n_b is at most G^2 in size.
        g = ALGEBRAS[name]
        image = g.integer_image
        n = g.dim
        coefs = verdicts_module._quadratic_coefficients(
            lambda flat: torsion_by_the_loop(image, flat), n * n
        )
        for big in (1, 3):
            reach = big * big * sum(max(map(abs, c)) for c in coefs)
            w = verdicts_module.form_width(coefs, big * big)
            assert_least_width(w, reach, len(coefs[0]))

    @pytest.mark.parametrize("name,rep", [("aff1", 1), ("sl2", 0), ("heis3", 1)])
    def test_compatibility(self, name, rep):
        # t1_a t2_b + t1_b t2_a is at most 2 G^2 in size, and so is
        # t1_a t2_a times the doubled diagonal term.
        g = ALGEBRAS[name]
        kernel = VerdictKernel(g, reps_of(g)[rep])
        coefs = verdicts_module._quadratic_coefficients(
            lambda flat: kupershmidt_by_the_loop(kernel, flat), g.dim * kernel.m
        )
        reach = 2 * sum(max(map(abs, c)) for c in coefs)
        w = verdicts_module.form_width(coefs, 2)
        assert_least_width(w, reach, len(coefs[0]))

    def test_each_form_takes_its_reach(self, sl2, monkeypatch):
        # form_width is shared: the torsion form bounds n_a n_b by G^2, and
        # compatibility bounds t1_a t2_b + t1_b t2_a by 2 G^2, G the largest
        # |entry| of the grid or of the T.
        reaches = []
        real = verdicts_module.form_width

        def recording(coefs, reach):
            reaches.append(reach)
            return real(coefs, reach)

        monkeypatch.setattr(verdicts_module, "form_width", recording)
        kernel = VerdictKernel(sl2.algebra, sl2.representations["adjoint"])
        kernel.torsion_form(3)
        kernel.compatibility_rows([(0,) * 8 + (-3,), (2,) * 9])
        assert reaches == [9, 18]

    def test_solve_and_twist_take_their_largest_entries(self, aff1, monkeypatch):
        # The solve reads G off the grid; the twist reads G_T off every T of
        # the search and G_N and G_S off the N and S that its pairs name.
        seen = []
        for name in ("solve_width", "twist_width"):
            real = getattr(verdicts_module, name)

            def recording(*args, _real=real):
                seen.append(args[2:])
                return _real(*args)

            monkeypatch.setattr(verdicts_module, name, recording)
        kernel = VerdictKernel(aff1.algebra, aff1.representations["adjoint"])
        kernel.kupershmidt_solutions([-3, 0, 2])
        n_ops, s_ops = [(0, 5, 0, 0), (9, 0, 0, 0)], [(0, 0, 0, 1), (0, -7, 0, 0)]
        kernel.kn_join([(0, 0, 0, -2), (0, 3, 0, 0)], n_ops, s_ops, [(0, 1)])
        assert seen == [(3,), (3, 5, 7)]

    @pytest.mark.parametrize(
        "name,rep", [("aff1", "adjoint"), ("sl2", "coadjoint"), ("heis3", "adjoint")]
    )
    def test_bracket_match(self, name, rep):
        # t_a s_b is at most G_T G_S in size, so an entry of D(T, S) is at
        # most G_T G_S sum_ab max|D(E_a, E_b)|.
        entry = get_entry(name)
        rho = entry.representations[rep]
        kernel = VerdictKernel(entry.algebra, rho)
        n, m = entry.algebra.dim, rho.module_dim
        commutators = verdicts_module._unit_commutators(rho.integer_image)
        table = verdicts_module._match_table(commutators, m)
        total = sum(max(map(abs, d)) for per_t in table for d in per_t)
        for g_t, g_s in ((1, 1), (3, 2)):
            t_ops, s_ops = [(g_t,) + (0,) * (n * m - 1)], [(0,) * (m * m - 1) + (-g_s,)]
            join = kernel.kn_join(t_ops, [(0,) * n * n], s_ops, [(0, 0)])
            assert_least_width(join.match_w, g_t * g_s * total, len(table[0][0]))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 3), (3, 2)])
    def test_twist(self, n, m):
        # An entry of NT is at most n G_N G_T, one of TS at most m G_T G_S.
        for g_t, g_n, g_s in ((1, 1, 1), (3, 2, 5), (6, 1, 1)):
            reach = n * g_n * g_t + m * g_t * g_s
            assert_least_width(verdicts_module.twist_width(n, m, g_t, g_n, g_s), reach, n * m)


big_entries = st.one_of(st.just(0), st.just(0), st.integers(-(10**6), 10**6))


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]),
    data=st.data(),
)
def test_match_table_with_large_entries(dims, data):
    # Random actions with entries up to 10^6 that need not satisfy the
    # representation axiom: the table is an identity of the bracket-match
    # loop, at every unit pair.
    from lieop import Bracket

    n, m = dims
    mats = [
        Matrix([data.draw(st.lists(big_entries, min_size=m, max_size=m)) for _ in range(m)])
        for _ in range(n)
    ]
    rho = Representation(Bracket(n, {}), mats, check=False)
    assert_match_table_is_the_loop(rho.integer_image, n)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]),
    data=st.data(),
    values=st.lists(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    symmetric=st.booleans(),
)
def test_packed_stages_with_large_entries(dims, data, values, symmetric):
    # Random brackets and actions with entries up to 10^6, mostly zero so
    # that the identities hold often enough, over grids with numerators
    # and denominators up to 10^6 (closed under negation in half the
    # draws) that mostly hold 0. Neither needs the Jacobi identity or the representation
    # axiom: every stage is an identity of the loops. Each packed stage is
    # compared with its loop: the column solve with the filtered product,
    # compatibility with the polarization of the Kupershmidt loop, the
    # torsion form with the torsion loop and kn_pairs with the matrix
    # products and the bracket-match loop.
    from lieop import Bracket, Vector

    n, m = dims
    g = Bracket(
        n,
        {
            (i, j): Vector(data.draw(st.lists(big_entries, min_size=n, max_size=n)))
            for i, j in itertools.combinations(range(n), 2)
        },
    )
    mats = [
        Matrix([data.draw(st.lists(big_entries, min_size=m, max_size=m)) for _ in range(m)])
        for _ in range(n)
    ]
    rho = Representation(g, mats, check=False)
    # 0 and up to two values, or 0, -v and v; 3 x 3 operators take two
    # values, 0 and v or -v and v.
    if symmetric:
        values = [-values[0], values[0]]
    if n * m == 9:
        grid = sorted(set(values[:2]) if symmetric else {Fraction(0), values[0]})
    else:
        grid = sorted({Fraction(0), *values[:2]})
    ints, _ = integer_image(grid)
    kernel = VerdictKernel(g, rho)

    flats = list(itertools.product(ints, repeat=n * m))
    assert kernel.kupershmidt_solutions(ints) == [f for f in flats if kernel.is_kupershmidt(f)]

    sample = flats[:: max(1, len(flats) // 12)]
    for t1, row in zip(sample, kernel.compatibility_rows(sample)):
        for t2 in sample:
            sums = kupershmidt_by_the_loop(kernel, tuple(map(sum, zip(t1, t2))))
            ones, twos = kupershmidt_by_the_loop(kernel, t1), kupershmidt_by_the_loop(kernel, t2)
            assert compatible(row, t2) == (sums == [a + b for a, b in zip(ones, twos)])

    n_flats = list(itertools.product(ints[:2] if n == 3 else ints, repeat=n * n))
    form = kernel.torsion_form(max(map(abs, ints)))
    image = g.integer_image
    assert [form_vanishes(form, f) for f in n_flats] == [
        not any(torsion_by_the_loop(image, f)) for f in n_flats
    ]

    n_ops = n_flats[:: max(1, len(n_flats) // 8)]
    s_ops = list(itertools.product(ints[:2], repeat=m * m))[:: 2 ** (m * m) // 8 or 1]
    pairs = [(i, j) for j in range(len(s_ops)) for i in range(len(n_ops))]
    rho_image = rho.integer_image
    join = kernel.kn_join(sample, n_ops, s_ops, pairs)
    for t_op in sample:
        t = kernel_module._rows(t_op, m)
        expected = []
        for i, j in pairs:
            nt = kernel_module._matmul(kernel_module._rows(n_ops[i], n), t)
            if nt != kernel_module._matmul(t, kernel_module._rows(s_ops[j], m)):
                continue
            deformed = kernel_module.deformed_sub_adjacent(
                kernel_module.sub_adjacent_ads(rho_image, t_op), s_ops[j]
            )
            nt_flat = list(itertools.chain(*nt))
            defects = kernel_module.bracket_match_defects(rho_image, deformed, nt_flat)
            if next(defects, None) is None:
                expected.append((i, j))
        assert kernel.kn_pairs(t_op, join) == expected


def test_polarization_rows_agree_with_the_compatibility_report(aff1):
    g, rho = aff1.algebra, aff1.representations["coadjoint"]
    kernel = VerdictKernel(g, rho)
    t_ops = [
        (combo, op)
        for combo, op in grid_operators(INTEGER_GRID, 2, 2)
        if is_kupershmidt(g, rho, op).ok
    ]
    verdicts = [
        are_compatible_kupershmidt(g, rho, t1, t2).ok
        for _, t1 in t_ops
        for _, t2 in t_ops
    ]
    rows = kernel.compatibility_rows([f for f, _ in t_ops])
    assert [compatible(row, f2) for row in rows for f2, _ in t_ops] == verdicts
    assert (len(verdicts), sum(verdicts)) == (441, 177)


def test_integer_image_keeps_order_and_scale():
    assert integer_image([Fraction(-1, 2), Fraction(0), Fraction(1, 3)]) == ([-3, 0, 2], 6)
    assert integer_image([Fraction(-1), Fraction(2)]) == ([-1, 2], 1)
    assert integer_image([]) == ([], 1)
