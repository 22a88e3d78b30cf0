"""Differential tests: every verdict of lieop.kernel against the reporting
predicates it stands in for inside grid_search."""

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
from lieop.catalog import get_entry
from lieop.kernel import VerdictKernel, integer_image, negated, pair_defects
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
    for combo, op in grid_operators(grid, g.dim, g.dim):
        nij = is_nijenhuis(g, op).ok
        assert kernel.is_nijenhuis(combo) == nij, op
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
    nijenhuis = [k for k, (combo, _) in enumerate(n_ops) if kernel.is_nijenhuis(combo)]
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

    assert kernel.is_nijenhuis(n_int) == is_nijenhuis(g, n_op).ok
    assert VerdictKernel(g, adjoint_rep(g)).is_kupershmidt(n_int) == is_rota_baxter(g, n_op).ok
    assert kernel.is_kupershmidt(t_int) == is_kupershmidt(g, rho, t_op).ok
    pair = kernel.is_nijenhuis(n_int) and kernel.nijenhuis_pairs([n_int], [s_int]) == [(0, 0)]
    assert pair == is_nijenhuis_pair(g, rho, n_op, s_op).ok
    # The twist and the bracket match, against the Matrix definitions.
    nt = mat_mul(n_op, t_op)
    kn = nt == mat_mul(t_op, s_op) and sub_adjacent_bracket(g, rho, nt) == deformed_algebra(
        sub_adjacent_bracket(g, rho, t_op), s_op
    )
    assert (kernel.kn_pairs(t_int, [n_int], [s_int], [(0, 0)]) == [(0, 0)]) == kn


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
    n_ops = [f for f in itertools.product(ints, repeat=g.dim * g.dim) if kernel.is_nijenhuis(f)]
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
        real = kernel_module._combination

        def counting(col, packed):
            calls.append(col)
            return real(col, packed)

        kernel, n_ops, s_ops = nijenhuis_survivors(
            sl2.algebra, sl2.representations["adjoint"], (0, 1)
        )
        monkeypatch.setattr(kernel_module, "_combination", counting)
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
        w = kernel_module.pair_width(rho, n_ops, s_ops)
        half = 1 << (w - 1)
        assert half <= u_reach + v_reach < 2 * half
        pad = (0,) * (m * m - 3)
        u, v = (0, u_reach, 0) + pad, (0, u_reach - half, 1) + pad
        assert abs(u_reach - half) <= v_reach
        assert kernel_module._packed(u, w - 1) == kernel_module._packed(v, w - 1)
        assert kernel_module._packed(u, w) != kernel_module._packed(v, w)

    @pytest.mark.parametrize("name", ["abelian_1", "aff1", "sl2"])
    def test_grid_of_zero(self, name):
        # Every entry is 0, so the base is 2^0 = 1, and (0, 0) is the one
        # pair.
        g = get_entry(name).algebra
        rho = adjoint_rep(g)
        kernel, n_ops, s_ops = nijenhuis_survivors(g, rho, (0,))
        assert kernel_module.pair_width(rho.integer_image, n_ops, s_ops) == 0
        assert kernel.nijenhuis_pairs(n_ops, s_ops) == [(0, 0)]

    def test_width_over_empty_lists(self, aff1):
        # An empty list's largest entry counts as 0: with no N the bound is
        # 2 m R G (m G) = 8 on aff1's adjoint image (R = 1) for G = 1, and
        # with no S it is 0.
        rho = aff1.representations["adjoint"].integer_image
        assert kernel_module.pair_width(rho, [], [(1, 0, 0, 1)]) == 4
        assert kernel_module.pair_width(rho, [(1, 0, 0, 1)], []) == 0
        assert kernel_module.pair_width(rho, [], []) == 0

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


def test_sum_filter_agrees_with_the_compatibility_report(aff1):
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
    assert [kernel.compatible(f1, f2) for f1, _ in t_ops for f2, _ in t_ops] == verdicts
    assert (len(verdicts), sum(verdicts)) == (441, 177)


def test_integer_image_keeps_order_and_scale():
    assert integer_image([Fraction(-1, 2), Fraction(0), Fraction(1, 3)]) == ([-3, 0, 2], 6)
    assert integer_image([Fraction(-1), Fraction(2)]) == ([-1, 2], 1)
    assert integer_image([]) == ([], 1)
