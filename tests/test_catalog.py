import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieop import (
    GridCapExceeded,
    LieAlgebra,
    LieopError,
    Matrix,
    Representation,
    ShapeError,
    adjoint_rep,
    are_compatible_kupershmidt,
    check_jacobi,
    coadjoint_rep,
    is_kn_structure,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_r_matrix,
    is_rota_baxter,
    mat_mul,
)
from lieop import catalog, kernel, operators, structures
from lieop import verdicts as verdicts_module
from lieop.catalog import SEARCH_KINDS, get_entry, grid_search, list_catalog
from lieop.structures import Bivector

from conftest import GRID, MIXED_AFF1, count_bracket_builds, count_rep_loops


class TestEntries:
    def test_listing_is_stable(self):
        assert list_catalog() == [
            "abelian_1",
            "abelian_2",
            "abelian_3",
            "aff1",
            "heis3",
            "sl2",
        ]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_entry("so3")

    def test_every_entry_reverifies_on_load(self):
        # get_entry raises if any asserted structure fails its predicate
        for name in list_catalog():
            entry = get_entry(name)
            assert check_jacobi(entry.algebra).ok

    def test_expected_exemplars_present(self):
        aff1 = get_entry("aff1")
        rb = next(op for op in aff1.operators if op.name == "rb_diag")
        assert rb.matrices["R"] == Matrix.diagonal([1, 0])
        sl2 = get_entry("sl2")
        assert sl2.bilinear_form.matrix == Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])

    def test_abelian_dims(self):
        for n in (1, 2, 3):
            assert get_entry(f"abelian_{n}").algebra.dim == n

    def test_each_representation_is_checked_once(self, monkeypatch):
        # The adjoint and coadjoint constructors check the axiom; the
        # load-time verification of the operator bundles reads their passes.
        calls = count_rep_loops(monkeypatch)
        catalog._verify_entry(catalog._BUILDERS["aff1"]())
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ("aff1", "heis3", "sl2"))
    def test_verification_builds_no_bracket(self, name, monkeypatch):
        # Every bundle is verified by its kind's check alone; the KN-type
        # checks decide the bracket match in the kernel.
        entry = catalog._BUILDERS[name]()
        calls = count_bracket_builds(monkeypatch)
        catalog._verify_entry(entry)
        assert calls == []


class TestGridSearch:
    def test_nijenhuis_on_abelian_is_everything(self, abelian2):
        found = grid_search(abelian2.algebra, None, "nijenhuis", (0, 1))
        assert len(found) == 16

    def test_rota_baxter_matches_brute_force(self, aff1):
        found = grid_search(aff1.algebra, None, "rota_baxter", GRID)
        brute = [
            m
            for m in (
                Matrix([combo[:2], combo[2:]])
                for combo in itertools.product(GRID, repeat=4)
            )
            if is_rota_baxter(aff1.algebra, m).ok
        ]
        assert found == brute
        for expected in (Matrix.diagonal([1, 0]), Matrix.diagonal([-1, 0]), Matrix.zeros(2, 2)):
            assert expected in found

    def test_deterministic_order_and_repeatability(self, aff1):
        a = grid_search(aff1.algebra, None, "rota_baxter", (1, 0, -1))
        b = grid_search(aff1.algebra, None, "rota_baxter", (-1, 1, 0))
        assert a == b  # entry set order is canonicalized

    def test_kupershmidt_equals_rota_baxter_for_adjoint(self, aff1):
        ad = aff1.representations["adjoint"]
        kup = grid_search(aff1.algebra, ad, "kupershmidt", GRID)
        rb = grid_search(aff1.algebra, None, "rota_baxter", GRID)
        assert kup == rb

    def test_pair_search_returns_tuples(self, aff1):
        ad = aff1.representations["adjoint"]
        pairs = grid_search(aff1.algebra, ad, "nijenhuis_pair", (0, 1))
        assert pairs
        n_op, s_op = pairs[0]
        assert n_op.shape == (2, 2) and s_op.shape == (2, 2)

    def test_kn_search_members_reverify(self, aff1):
        from lieop import is_kn_structure

        ad = aff1.representations["adjoint"]
        triples = grid_search(aff1.algebra, ad, "kn_structure", (0, 1))
        assert triples
        for t_op, s_op, n_op in triples[:5]:
            assert is_kn_structure(aff1.algebra, ad, t_op, s_op, n_op).ok

    def test_r_matrix_search(self, aff1):
        found = grid_search(aff1.algebra, None, "r_matrix", (0, 1))
        assert len(found) == 2  # both antisymmetric candidates qualify in dim 2

    def test_cap_is_an_error_not_truncation(self, sl2):
        with pytest.raises(GridCapExceeded):
            grid_search(sl2.algebra, None, "nijenhuis", GRID, cap=100)

    def test_unknown_kind(self, aff1):
        with pytest.raises(LieopError):
            grid_search(aff1.algebra, None, "derivation", GRID)

    def test_zero_dimensional_algebra_is_refused(self):
        zero = LieAlgebra(0, {})
        for kind in ("nijenhuis", "rota_baxter", "r_matrix"):
            with pytest.raises(LieopError, match="positive dimension"):
                grid_search(zero, None, kind, (0, 1))

    def test_missing_representation(self, aff1):
        with pytest.raises(LieopError):
            grid_search(aff1.algebra, None, "kupershmidt", GRID)

    def test_only_pairs_with_a_kupershmidt_sum_reach_the_compatibility_report(self, aff1):
        # The search keeps a pair exactly when T1 + T2 is Kupershmidt; that
        # is the compatibility the public predicate reports, over all pairs.
        g, rho = aff1.algebra, aff1.representations["coadjoint"]
        t_ops = grid_search(g, rho, "kupershmidt", GRID)
        expected = [
            (t1, t2)
            for t1 in t_ops
            for t2 in t_ops
            if are_compatible_kupershmidt(g, rho, t1, t2).ok
        ]
        assert grid_search(g, rho, "compatible_pair", GRID) == expected
        assert (len(t_ops) ** 2, len(expected)) == (441, 177)

    def test_compatible_pair_search_decides_each_unordered_pair_once(self, aff1, monkeypatch):
        # T1 + T2 = T2 + T1, and K(-T1 - T2) = K(T1 + T2): the 21 Kupershmidt
        # T (0 and ten pairs {T, -T}) make 21 * 22 / 2 = 231 unordered pairs,
        # in (231 + 11) / 2 = 121 orbits under negation, since the 11 pairs
        # {0, 0} and {T, -T} are their own negation.
        # Each pair is one dot product of T1's packed row of the
        # polarization table with T2 (lieop.verdicts.compatible); the rows
        # are built once, and each row object tells its T1.
        g, rho = aff1.algebra, aff1.representations["coadjoint"]
        t1_of = {}
        real_rows = verdicts_module.VerdictKernel.compatibility_rows

        def recording(self, t_ops):
            rows = real_rows(self, t_ops)
            t1_of.update({id(row): t1_op for row, t1_op in zip(rows, t_ops)})
            return rows

        monkeypatch.setattr(verdicts_module.VerdictKernel, "compatibility_rows", recording)
        calls = _count_calls(monkeypatch, verdicts_module.compatible)
        assert len(grid_search(g, rho, "compatible_pair", GRID)) == 177
        pairs = [(t1_of[id(row)], t2_op) for row, t2_op in calls]
        orbits = {
            frozenset({frozenset(pair), frozenset(map(kernel.negated, pair))}) for pair in pairs
        }
        assert len(t1_of) == 21
        assert len(pairs) == len(orbits) == 121

    def test_kn_search_decides_the_bracket_match_on_one_table(self, aff1, monkeypatch):
        g, ad = aff1.algebra, aff1.representations["adjoint"]
        t_ops = grid_search(g, ad, "kupershmidt", (0, 1))
        pairs = grid_search(g, ad, "nijenhuis_pair", (0, 1))
        # The twist survivors: T Kupershmidt, (N, S) a pair, NT = TS. On
        # them the bracket match is bilinear in (T, S), and the search reads
        # it off one table per search, with no loop and no sub-adjacent
        # bracket formed.
        survivors = [
            (t_op, s_op)
            for t_op in t_ops
            for n_op, s_op in pairs
            if mat_mul(n_op, t_op) == mat_mul(t_op, s_op)
        ]
        kn_conditions = _count_calls(monkeypatch, structures._kn_conditions)
        sub_adjacent = _count_calls(monkeypatch, operators.sub_adjacent_bracket)
        loops = [
            _count_calls(monkeypatch, real)
            for real in (
                kernel.bracket_match_defects,
                kernel.deformed_sub_adjacent,
                kernel.sub_adjacent_ads,
            )
        ]
        tables = _count_calls(monkeypatch, verdicts_module._match_table)
        assert len(grid_search(g, ad, "kn_structure", (0, 1))) == 116
        assert (len(kn_conditions), len(sub_adjacent)) == (0, 0)
        assert [len(calls) for calls in loops] == [0, 0, 0]
        assert len(tables) == 1
        assert len(survivors) == 116

    def test_pair_search_forms_the_commutators_once_per_s(self, aff1, monkeypatch):
        # The packed terms C_k = [rho(e_k), S] depend on S alone: 3^4 of
        # them, each formed by _pair_keys from the per-search tables. The
        # search runs no matrix loop over the C_k beside it.
        g, ad = aff1.algebra, aff1.representations["adjoint"]
        calls = _count_calls(monkeypatch, verdicts_module._pair_keys)
        matrix_loops = _count_calls(monkeypatch, kernel._commutators)
        found = grid_search(g, ad, "nijenhuis_pair", ("-1/2", "0", "1/3"))
        assert len(found) == 451
        decided = [s_op for _, s_op in calls]
        assert len(decided) == len(set(decided)) == 81
        assert matrix_loops == []

    def test_pair_search_walks_one_s_of_each_sign_orbit(self, sl2, monkeypatch):
        # Over {-1,0,1}, (N, S) is a pair exactly when (-N, -S) is, so the
        # trie is walked for S = 0 and the 9,841 S whose first nonzero entry
        # is positive: (3^9 + 1) / 2 of the 3^9.
        calls = _count_calls(monkeypatch, verdicts_module._pair_keys)
        ad = sl2.representations["adjoint"]
        found = grid_search(sl2.algebra, ad, "nijenhuis_pair", GRID, cap=3**18)
        assert len(found) == 941
        decided = [s_op for _, s_op in calls]
        assert len(decided) == len(set(decided)) == 9842
        assert all(s > kernel.negated(s) for s in decided if any(s))

    def test_kn_search_decides_the_twist_once_per_t_and_minus_t(self, aff1, monkeypatch):
        # The twist and the bracket match have degree 1 in T: the 21
        # Kupershmidt T over {-1,0,1} are 0 and ten pairs {T, -T}.
        rho = aff1.representations["coadjoint"]
        calls = _count_method_calls(monkeypatch, "kn_pairs")
        assert len(grid_search(aff1.algebra, rho, "kn_structure", GRID)) == 1101
        decided = [t_op for t_op, *_ in calls]
        assert len(decided) == len(set(decided)) == 11
        assert set(decided).isdisjoint(kernel.negated(t) for t in decided if any(t))

    def test_kn_search_forms_no_matrix_product(self, aff1, monkeypatch):
        # The twist NT = TS is compared on packed keys, one dot product per
        # distinct N and S with T's tables, and the bracket match reads TS
        # column by column: no _matmul runs.
        rho = aff1.representations["coadjoint"]
        products = _count_calls(monkeypatch, kernel._matmul)
        calls = _count_method_calls(monkeypatch, "kn_pairs")
        assert len(grid_search(aff1.algebra, rho, "kn_structure", GRID)) == 1101
        assert (len(calls), len(products)) == (11, 0)

    def test_aff1_nijenhuis_filter_runs_no_torsion_loop(self, aff1, monkeypatch):
        # On a 2-dimensional algebra every operator is Nijenhuis, so the
        # torsion form's coefficients are all zero and every N passes
        # undecided. The torsion loop runs only for the table, at the 10
        # unit operators E_a and E_a + E_b (a < b) of a 2 x 2 flat.
        loops = _count_calls(monkeypatch, kernel.torsion_defects)
        checks = _count_calls(monkeypatch, verdicts_module.form_vanishes)
        ad = aff1.representations["adjoint"]
        found = grid_search(aff1.algebra, ad, "nijenhuis_pair", ("-1/2", "0", "1/3"))
        assert len(found) == 451
        assert checks == []
        units = [flat for _, flat in loops]
        assert len(units) == 10
        assert all(set(flat) <= {0, 1} and 1 <= sum(flat) <= 2 for flat in units)

    def test_r_matrix_search_decides_one_skew_combo_per_sign_orbit(self, sl2, monkeypatch):
        # 3^3 skew combos over {-1,0,1}: 0 and 13 pairs {X, -X}.
        calls = _count_method_calls(monkeypatch, "is_kupershmidt")
        assert len(grid_search(sl2.algebra, None, "r_matrix", GRID)) == 5
        assert len(calls) == 14

    def test_catalog_representation_is_not_checked_again(self, aff1, monkeypatch):
        calls = count_rep_loops(monkeypatch)
        assert grid_search(aff1.algebra, aff1.representations["adjoint"], "kn_structure", (0, 1))
        assert calls == []

    @pytest.mark.parametrize(
        "kind", ("kupershmidt", "nijenhuis_pair", "kn_structure", "compatible_pair")
    )
    def test_representation_is_validated_against_the_searched_algebra(
        self, abelian2, aff1, kind, monkeypatch
    ):
        # aff1's adjoint action is a representation of aff1, not of the
        # abelian algebra of the same dimension.
        monkeypatch.setattr(catalog, "VerdictKernel", _forbidden)
        with pytest.raises(LieopError, match="search representation is invalid"):
            grid_search(abelian2.algebra, aff1.representations["adjoint"], kind, (0, 1))

    def test_scalar_closure_of_rota_baxter_set(self, aff1):
        # the defining identity is quadratic-homogeneous, so the found set
        # is closed under the scalars that keep entries inside the grid
        found = grid_search(aff1.algebra, None, "rota_baxter", GRID)
        for m in found:
            assert m.scale(-1) in found


def _forbidden(*args, **kwargs):
    raise AssertionError("a candidate was evaluated")


def _count_calls(monkeypatch, real):
    """Wrap a function wherever a lieop module binds it; return the list of
    its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "lieop" or key.startswith("lieop."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _count_method_calls(monkeypatch, name):
    """Wrap the VerdictKernel method; return the list of its calls' arguments
    after self."""
    calls = []
    real = getattr(verdicts_module.VerdictKernel, name)

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(verdicts_module.VerdictKernel, name, counting)
    return calls


def _as_matrix(values, nrows, ncols):
    return Matrix([values[r * ncols : (r + 1) * ncols] for r in range(nrows)])


def reference_grid_search(g, rho, kind, entry_set):
    """The nested-loop oracle: build and test every candidate of the product."""
    values = sorted({Fraction(v) for v in entry_set})
    n = g.dim
    m = rho.module_dim if rho is not None else 0
    slots = {
        "nijenhuis": n * n,
        "rota_baxter": n * n,
        "kupershmidt": n * m,
        "nijenhuis_pair": n * n + m * m,
        "kn_structure": n * m + m * m + n * n,
        "r_matrix": n * (n - 1) // 2,
        "compatible_pair": 2 * n * m,
    }[kind]
    found = []
    for combo in itertools.product(values, repeat=slots):
        if kind == "nijenhuis":
            cand = _as_matrix(combo, n, n)
            if is_nijenhuis(g, cand).ok:
                found.append(cand)
        elif kind == "rota_baxter":
            cand = _as_matrix(combo, n, n)
            if is_rota_baxter(g, cand).ok:
                found.append(cand)
        elif kind == "kupershmidt":
            cand = _as_matrix(combo, n, m)
            if is_kupershmidt(g, rho, cand).ok:
                found.append(cand)
        elif kind == "nijenhuis_pair":
            n_op = _as_matrix(combo[: n * n], n, n)
            s_op = _as_matrix(combo[n * n :], m, m)
            if is_nijenhuis_pair(g, rho, n_op, s_op).ok:
                found.append((n_op, s_op))
        elif kind == "kn_structure":
            t_op = _as_matrix(combo[: n * m], n, m)
            s_op = _as_matrix(combo[n * m : n * m + m * m], m, m)
            n_op = _as_matrix(combo[n * m + m * m :], n, n)
            if not is_kupershmidt(g, rho, t_op).ok:
                continue
            if is_kn_structure(g, rho, t_op, s_op, n_op).ok:
                found.append((t_op, s_op, n_op))
        elif kind == "r_matrix":
            rows = [[0] * n for _ in range(n)]
            it = iter(combo)
            for i in range(n):
                for j in range(i + 1, n):
                    c = next(it)
                    rows[i][j] = c
                    rows[j][i] = -c
            cand = Bivector(Matrix(rows))
            if is_r_matrix(g, cand).ok:
                found.append(cand)
        else:  # compatible_pair
            t1 = _as_matrix(combo[: n * m], n, m)
            t2 = _as_matrix(combo[n * m :], n, m)
            if not is_kupershmidt(g, rho, t1).ok:
                continue
            if not is_kupershmidt(g, rho, t2).ok:
                continue
            if are_compatible_kupershmidt(g, rho, t1, t2).ok:
                found.append((t1, t2))
    return found


INTEGER_GRID = ("-1", "0", "1")
FRACTIONAL_GRID = ("-1/2", "0", "1/3")
TWO_POINT_FRACTIONAL = ("-1/2", "1/3")

# (kind, algebra, representation, grid): each small enough for the
# reference, and together covering every kind on both kinds of grid.
CONTRACT_CASES = [
    ("nijenhuis", "sl2", None, ("0", "1")),
    ("nijenhuis", "aff1", None, FRACTIONAL_GRID),
    ("rota_baxter", "sl2", None, ("0", "1")),
    ("rota_baxter", "mixed_aff1", None, FRACTIONAL_GRID),
    ("kupershmidt", "aff1", "coadjoint", INTEGER_GRID),
    ("kupershmidt", "mixed_aff1", "adjoint", FRACTIONAL_GRID),
    ("nijenhuis_pair", "aff1", "coadjoint", ("0", "1")),
    ("nijenhuis_pair", "mixed_aff1", "adjoint", TWO_POINT_FRACTIONAL),
    ("kn_structure", "aff1", "adjoint", ("0", "1")),
    ("kn_structure", "abelian_1", "coadjoint", FRACTIONAL_GRID),
    ("r_matrix", "sl2", None, INTEGER_GRID),
    ("r_matrix", "heis3", None, FRACTIONAL_GRID),
    ("compatible_pair", "aff1", "coadjoint", ("0", "1")),
    ("compatible_pair", "mixed_aff1", "coadjoint", TWO_POINT_FRACTIONAL),
    # Three module columns: the last one is solved for, not enumerated.
    ("kupershmidt", "heis3", "coadjoint", ("0", "1")),
    # TWO_POINT_FRACTIONAL has no Rota-Baxter operator on sl2; this grid has two.
    ("rota_baxter", "sl2", None, ("-1", "-1/2")),
]


def _contract_inputs(algebra, rep):
    if algebra == "mixed_aff1":
        g = MIXED_AFF1
        reps = {"adjoint": adjoint_rep(g), "coadjoint": coadjoint_rep(g)}
    else:
        entry = get_entry(algebra)
        g, reps = entry.algebra, entry.representations
    if rep == "nilpotent":
        # abelian_1 on a plane by a nilpotent matrix: a 2-dimensional module
        # small enough for the reference, on which some (N, S) fail.
        return g, Representation(g, [Matrix([[0, 1], [0, 0]])])
    return g, reps[rep] if rep else None


# Grids that equal their negation, where the search decides one candidate
# per sign orbit, and a near miss, where it must decide every candidate.
SIGN_CLOSED_GRIDS = {
    "int": INTEGER_GRID,
    "half": ("-1/2", "0", "1/2"),
    "zero_free": ("-1", "1"),
    "empty": (),
    "near_miss": ("-1", "0", "2"),
}
ALL_SIGN_GRIDS = tuple(SIGN_CLOSED_GRIDS)
# (kind, algebra, representation, grid names): every kind on every grid,
# each input chosen so that every nonempty grid has results.
SIGN_CASES = [
    (kind, algebra, rep, grid)
    for kind, algebra, rep, grids in (
        ("nijenhuis", "aff1", None, ALL_SIGN_GRIDS),
        ("nijenhuis", "sl2", None, ("int",)),
        ("rota_baxter", "aff1", None, ALL_SIGN_GRIDS),
        ("rota_baxter", "sl2", None, ("int",)),
        ("r_matrix", "sl2", None, ("int", "half", "empty", "near_miss")),
        ("r_matrix", "aff1", None, ("zero_free",)),
        ("kupershmidt", "aff1", "coadjoint", ALL_SIGN_GRIDS),
        ("nijenhuis_pair", "abelian_1", "nilpotent", ("int", "half", "empty", "near_miss")),
        ("nijenhuis_pair", "aff1", "coadjoint", ("zero_free",)),
        ("kn_structure", "abelian_1", "nilpotent", ("int", "half", "empty", "near_miss")),
        ("kn_structure", "abelian_1", "coadjoint", ("zero_free",)),
        ("compatible_pair", "aff1", "coadjoint", ALL_SIGN_GRIDS),
    )
    for grid in grids
]


def _sign_maps(kind):
    """The kind's sign maps: each identity is homogeneous of even degree in
    the operators it pairs, and the KN twist and bracket match of degree 1
    in T and 1 in (N, S), so a result set over a grid closed under negation
    is closed under these."""
    if kind == "r_matrix":
        return [lambda r: Bivector(r.matrix.scale(-1))]
    if kind in ("nijenhuis_pair", "compatible_pair"):
        return [lambda r: (r[0].scale(-1), r[1].scale(-1))]
    if kind == "kn_structure":
        return [
            lambda r: (r[0].scale(-1), r[1], r[2]),
            lambda r: (r[0], r[1].scale(-1), r[2].scale(-1)),
        ]
    return [lambda r: r.scale(-1)]


# Per kind, an input whose searches over a grid of up to three values stay
# well under a second.
PROPERTY_INPUTS = {
    "nijenhuis": ("heis3", None),
    "rota_baxter": ("sl2", None),
    "r_matrix": ("sl2", None),
    "kupershmidt": ("heis3", "coadjoint"),
    "nijenhuis_pair": ("aff1", "adjoint"),
    "kn_structure": ("abelian_1", "nilpotent"),
    "compatible_pair": ("aff1", "coadjoint"),
}


class TestGridSearchContract:
    def test_cases_cover_every_kind(self):
        assert {case[0] for case in CONTRACT_CASES} == set(SEARCH_KINDS)

    @pytest.mark.parametrize(
        "kind,algebra,rep,grid", CONTRACT_CASES, ids=lambda v: v if isinstance(v, str) else None
    )
    def test_same_ordered_results_as_the_reference(self, kind, algebra, rep, grid):
        g, rho = _contract_inputs(algebra, rep)
        expected = reference_grid_search(g, rho, kind, grid)
        assert expected
        assert grid_search(g, rho, kind, grid) == expected

    def test_sign_cases_cover_every_kind_on_every_grid(self):
        covered = {(kind, grid) for kind, _, _, grid in SIGN_CASES}
        assert covered == set(itertools.product(SEARCH_KINDS, SIGN_CLOSED_GRIDS))

    @pytest.mark.parametrize(
        "kind,algebra,rep,grid", SIGN_CASES, ids=lambda v: v if isinstance(v, str) else None
    )
    def test_sign_closed_grids_give_the_reference_results(self, kind, algebra, rep, grid):
        g, rho = _contract_inputs(algebra, rep)
        values = SIGN_CLOSED_GRIDS[grid]
        expected = reference_grid_search(g, rho, kind, values)
        assert bool(expected) == bool(values)
        assert grid_search(g, rho, kind, values) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(SEARCH_KINDS)),
        value=st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
        with_zero=st.booleans(),
    )
    def test_results_are_closed_under_the_sign_maps(self, kind, value, with_zero):
        g, rho = _contract_inputs(*PROPERTY_INPUTS[kind])
        grid = (-value, value) + ((0,) if with_zero else ())
        found = grid_search(g, rho, kind, grid)
        if with_zero:
            assert found  # the zero operators at least
        for sign in _sign_maps(kind):
            assert {sign(r) for r in found} == set(found)

    def test_cap_counts_nominal_candidates_before_evaluating_any(self, aff1, monkeypatch):
        monkeypatch.setattr(catalog, "VerdictKernel", _forbidden)
        ad = aff1.representations["adjoint"]
        # 2 ** 12 triples, although staging would evaluate far fewer.
        with pytest.raises(GridCapExceeded, match="4096 candidates"):
            grid_search(aff1.algebra, ad, "kn_structure", (0, 1), cap=4095)

    def test_representation_of_another_dimension_is_rejected(self, aff1, heis3):
        with pytest.raises(ShapeError):
            grid_search(aff1.algebra, heis3.representations["adjoint"], "kupershmidt", (0, 1))

    def test_invalid_representation_is_rejected(self, aff1):
        bad = Representation(aff1.algebra, (Matrix.identity(1), Matrix.identity(1)), check=False)
        for kind in ("kupershmidt", "nijenhuis_pair", "kn_structure", "compatible_pair"):
            with pytest.raises(LieopError, match="representation is invalid"):
                grid_search(aff1.algebra, bad, kind, (0, 1))
