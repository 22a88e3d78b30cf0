import itertools
from fractions import Fraction

import pytest
from hypothesis import given

from lieop import (
    BilinearForm,
    Bivector,
    Bracket,
    LieopError,
    Matrix,
    PreconditionFailure,
    Representation,
    ShapeError,
    Vector,
    ad_action,
    are_compatible_kupershmidt,
    check_bilinear_form,
    check_jacobi,
    check_nt_kupershmidt_condition,
    deformed_algebra,
    hierarchy,
    invert,
    is_invertible,
    is_kdn_structure,
    is_kn_structure,
    is_kupershmidt,
    is_nijenhuis,
    is_r_matrix,
    is_r_matrix_nijenhuis,
    is_rbn_structure,
    is_rota_baxter,
    is_skew_endomorphism,
    kdn_from_compatible,
    mat_mul,
    nijenhuis_from_kupershmidt_pair,
    rbn_to_rmn,
    rmn_to_rbn,
)
from lieop import kernel, operators, reps, structures
from lieop.catalog import get_entry, grid_search
from lieop.structures import compatible_via_combos

from conftest import GRID, count_bracket_builds, small_fractions


def kupershmidt_ops(entry, rep="adjoint"):
    return grid_search(
        entry.algebra, entry.representations[rep], "kupershmidt", GRID
    )


def count_calls(monkeypatch, module, name):
    """Wrap module.name for the test; returns the list of its calls' arguments."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def kn_diag():
    """(g, rho, T, S, N) of aff1's kn_diag bundle, loaded before any
    counting starts so that the catalog's own verification is not counted."""
    e = get_entry("aff1")
    op = next(o for o in e.operators if o.name == "kn_diag")
    return (e.algebra, e.representations[op.rep], *(op.matrices[key] for key in "TSN"))


class TestKnKdn:
    @given(small_fractions)
    def test_scalar_triples(self, lam):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        s_op = Matrix.identity(2).scale(lam)
        assert is_kn_structure(g, rho, t_op, s_op, s_op).ok
        assert is_kdn_structure(g, rho, t_op, s_op, s_op).ok

    def test_zero_t_with_any_pair(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p = Matrix.diagonal([1, 0])
        assert is_kn_structure(g, rho, Matrix.zeros(2, 2), p, p).ok

    def test_non_kupershmidt_t_raises_distinct_error(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        with pytest.raises(PreconditionFailure) as exc:
            is_kn_structure(g, rho, Matrix.identity(2), Matrix.identity(2), Matrix.identity(2))
        assert exc.value.name == "kupershmidt"

    def test_condition_failure_is_a_verdict_not_an_error(self, aff1):
        # T Kupershmidt but N T != T S: twist condition fails in the report
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        report = is_kn_structure(g, rho, t_op, Matrix.zeros(2, 2), Matrix.identity(2))
        assert not report.ok
        assert "twist" in {w.condition for w in report.witnesses}

    def test_catalog_triples_verify(self):
        for name, op_name in [("aff1", "kn_diag"), ("heis3", "kn_diag")]:
            e = get_entry(name)
            op = next(o for o in e.operators if o.name == op_name)
            rho = e.representations[op.rep]
            verdict = is_kn_structure(
                e.algebra, rho, op.matrices["T"], op.matrices["S"], op.matrices["N"]
            )
            assert verdict.ok

    def test_invertible_t_promotes_kn_to_kdn(self, abelian2):
        # exercised on every invertible-T KN instance we can enumerate
        g, rho = abelian2.algebra, abelian2.representations["adjoint"]
        for t_op, s_op, n_op in grid_search(g, rho, "kn_structure", (Fraction(0), Fraction(1))):
            if is_invertible(t_op):
                assert is_kdn_structure(g, rho, t_op, s_op, n_op).ok

    def test_perfect_pair_promotes_kn_to_kdn(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        s_op = Matrix.identity(2).scale(3)
        # (3Id, 3Id) is perfect, so the KN triple is also KdN
        assert is_kn_structure(g, rho, t_op, s_op, s_op).ok
        assert is_kdn_structure(g, rho, t_op, s_op, s_op).ok


class TestDerivedKupershmidt:
    def test_deformed_algebra_route(self):
        # T stays Kupershmidt for the deformed bracket with the hat action,
        # and N T is Kupershmidt for the original data
        from lieop import rho_hat, rho_tilde

        for name, op_name in [("aff1", "kn_diag"), ("heis3", "kn_diag")]:
            e = get_entry(name)
            op = next(o for o in e.operators if o.name == op_name)
            g, rho = e.algebra, e.representations[op.rep]
            t_op, s_op, n_op = op.matrices["T"], op.matrices["S"], op.matrices["N"]
            hat = rho_hat(rho, n_op, s_op)
            assert is_kupershmidt(deformed_algebra(g, n_op), hat, t_op).ok
            assert is_kupershmidt(g, rho, mat_mul(n_op, t_op)).ok

    def test_kdn_uses_tilde_route(self, aff1):
        from lieop import rho_tilde

        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        op = next(o for o in aff1.operators if o.name == "kdn_coadjoint")
        t_op, s_op, n_op = op.matrices["T"], op.matrices["S"], op.matrices["N"]
        tilde = rho_tilde(coad, n_op, s_op)
        assert is_kupershmidt(deformed_algebra(g, n_op), tilde, t_op).ok

    def test_s_nijenhuis_on_sub_adjacent(self):
        from lieop import promote, sub_adjacent_bracket

        for name, op_name in [("aff1", "kn_diag"), ("heis3", "kn_diag")]:
            e = get_entry(name)
            op = next(o for o in e.operators if o.name == op_name)
            g, rho = e.algebra, e.representations[op.rep]
            sub = promote(sub_adjacent_bracket(g, rho, op.matrices["T"]))
            assert is_nijenhuis(sub, op.matrices["S"]).ok


class TestCompatibility:
    def test_self_zero_and_scalar(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        z = Matrix.zeros(2, 2)
        assert are_compatible_kupershmidt(g, rho, t_op, t_op).ok
        assert are_compatible_kupershmidt(g, rho, t_op, z).ok
        assert are_compatible_kupershmidt(g, rho, t_op, t_op.scale(-4)).ok

    def test_precondition_enforced(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        with pytest.raises(PreconditionFailure):
            are_compatible_kupershmidt(g, rho, Matrix.identity(2), Matrix.zeros(2, 2))

    def test_identity_matches_combo_route_on_grid(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        ops = kupershmidt_ops(aff1, "coadjoint")
        assert len(ops) > 2
        for t1, t2 in itertools.product(ops[:12], repeat=2):
            assert (
                are_compatible_kupershmidt(g, coad, t1, t2).ok
                == compatible_via_combos(g, coad, t1, t2)
            )

    def test_incompatible_pair_exists_and_witnessed(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        ops = kupershmidt_ops(aff1, "coadjoint")
        bad = [
            (t1, t2)
            for t1, t2 in itertools.product(ops, repeat=2)
            if not are_compatible_kupershmidt(g, coad, t1, t2).ok
        ]
        assert bad, "grid is expected to contain incompatible pairs"


def reference_are_compatible(g, rho, t1, t2):
    """The definition: each operator's hypothesis is checked in full by
    is_kupershmidt, which validates rho against g every time."""
    for name, t in (("kupershmidt_t1", t1), ("kupershmidt_t2", t2)):
        structures._require(name, is_kupershmidt(g, rho, t))
    return structures._compatibility_report(g, rho, t1, t2)


def _outcome(check, *args):
    try:
        report = check(*args)
    except LieopError as exc:
        failed = getattr(exc, "report", None)
        return (
            type(exc).__name__,
            str(exc),
            getattr(exc, "name", None),
            failed.to_json() if failed is not None else None,
        )
    return report.to_json()


class TestCompatibilityHypothesisParity:
    """are_compatible_kupershmidt validates rho once, yet raises and reports
    exactly what the full per-operator checks do, in the same order."""

    def cases(self):
        aff1, heis3 = get_entry("aff1"), get_entry("heis3")
        g, ad = aff1.algebra, aff1.representations["adjoint"]
        abelian = get_entry("abelian_2").algebra
        invalid = Representation(g, (Matrix.identity(1), Matrix.identity(1)), check=False)
        trivial = Representation(g, [Matrix([[0]])] * 2)
        rb, zero, ident = Matrix.diagonal([1, 0]), Matrix.zeros(2, 2), Matrix.identity(2)
        column, tall = Matrix([[1], [0]]), Matrix.zeros(3, 2)
        return {
            "compatible": (g, ad, rb, zero),
            "t1_fails": (g, ad, ident, zero),
            "t2_fails": (g, ad, rb, ident),
            "both_fail": (g, ad, ident, ident),
            "t1_misshaped": (g, ad, tall, zero),
            "t1_misshaped_rho_invalid": (g, invalid, tall, column),
            "t2_misshaped": (g, ad, rb, tall),
            "t2_misshaped_t1_fails": (g, ad, ident, tall),
            "rho_invalid": (g, invalid, column, column),
            "rho_invalid_t2_misshaped": (g, invalid, column, tall),
            "rho_of_another_algebra": (abelian, ad, rb, zero),
            "bracket_of_another_dim": (heis3.algebra, ad, rb, zero),
            "bracket_of_another_dim_module_dim_one": (heis3.algebra, trivial, column, column),
        }

    def test_same_exceptions_and_reports(self):
        for name, args in self.cases().items():
            expected = _outcome(reference_are_compatible, *args)
            assert _outcome(are_compatible_kupershmidt, *args) == expected, name

    def test_rho_is_validated_once(self, aff1, monkeypatch):
        # The catalog's adjoint action passed against g when it was built;
        # an unchecked copy is checked by the check of T1 alone.
        g, ad = aff1.algebra, aff1.representations["adjoint"]
        unchecked = Representation(g, ad.matrices, check=False)
        t1, t2 = Matrix.diagonal([1, 0]), Matrix.zeros(2, 2)
        for rho, loops in ((ad, 0), (unchecked, 1)):
            calls = count_calls(monkeypatch, reps, "check_representation")
            assert are_compatible_kupershmidt(g, rho, t1, t2).ok
            assert len(calls) == loops


class TestNijenhuisFromPairs:
    def test_equal_and_scaled_inputs(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        t_op = Matrix([[0, 1], [-1, 0]])
        assert nijenhuis_from_kupershmidt_pair(g, coad, t_op, t_op) == Matrix.identity(2)
        assert nijenhuis_from_kupershmidt_pair(
            g, coad, t_op.scale(3), t_op
        ) == Matrix.identity(2).scale(3)

    def test_biconditional_on_invertible_grid_pairs(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        inv_ops = [t for t in kupershmidt_ops(aff1, "coadjoint") if is_invertible(t)]
        assert inv_ops
        for t1, t2 in itertools.product(inv_ops, repeat=2):
            compat = are_compatible_kupershmidt(g, coad, t1, t2).ok
            nij = is_nijenhuis(g, mat_mul(t1, invert(t2))).ok
            assert compat == nij

    def test_invertible_rota_baxter_quotients_on_abelian(self, abelian2):
        # every operator is Rota-Baxter there and every quotient is Nijenhuis
        g, rho = abelian2.algebra, abelian2.representations["adjoint"]
        r1 = Matrix([[1, 1], [0, 1]])
        r2 = Matrix([[2, 0], [1, 1]])
        assert are_compatible_kupershmidt(g, rho, r1, r2).ok
        assert is_nijenhuis(g, mat_mul(r1, invert(r2))).ok

    def test_no_invertible_rota_baxter_on_aff1(self, aff1):
        # the inverse of an invertible Rota-Baxter operator is a derivation,
        # and every derivation of aff1 is singular
        assert not [
            r for r in kupershmidt_ops(aff1, "adjoint") if is_invertible(r)
        ]


class TestNtCondition:
    def test_identity_and_zero(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        assert check_nt_kupershmidt_condition(g, rho, t_op, Matrix.identity(2)).ok
        assert check_nt_kupershmidt_condition(g, rho, t_op, Matrix.zeros(2, 2)).ok

    def test_equivalence_with_nt_kupershmidt(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        nij_ops = grid_search(g, None, "nijenhuis", GRID)
        for t_op in kupershmidt_ops(aff1):
            for n_op in nij_ops:
                cond = check_nt_kupershmidt_condition(g, rho, t_op, n_op).ok
                assert cond == is_kupershmidt(g, rho, mat_mul(n_op, t_op)).ok
                if cond and is_invertible(n_op):
                    assert are_compatible_kupershmidt(
                        g, rho, t_op, mat_mul(n_op, t_op)
                    ).ok


class TestHierarchy:
    def test_identity_pair_repeats_t(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        eye = Matrix.identity(2)
        ops = hierarchy(g, rho, t_op, eye, eye, 3)
        assert ops == [t_op] * 4

    @given(small_fractions)
    def test_scalar_pair_scales_geometrically(self, lam):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        s_op = Matrix.identity(2).scale(lam)
        ops = hierarchy(g, rho, t_op, s_op, s_op, 3)
        assert ops == [t_op.scale(lam**k) for k in range(4)]

    def test_catalog_structures_full_checks(self):
        for name, op_name in [
            ("aff1", "kn_diag"),
            ("heis3", "kn_diag"),
            ("abelian_2", "kn_invertible"),
            ("aff1", "kdn_coadjoint"),
        ]:
            e = get_entry(name)
            op = next(o for o in e.operators if o.name == op_name)
            ops = hierarchy(
                e.algebra,
                e.representations[op.rep],
                op.matrices["T"],
                op.matrices["S"],
                op.matrices["N"],
                5,
            )
            assert len(ops) == 6
            assert ops[0] == op.matrices["T"]
            # The hierarchy decides each pair by the sum alone; the
            # cross-checked route must agree.
            rho = e.representations[op.rep]
            for a, b in itertools.combinations(range(6), 2):
                assert are_compatible_kupershmidt(e.algebra, rho, ops[a], ops[b]).ok

    def test_rejects_non_structure(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        with pytest.raises(PreconditionFailure):
            hierarchy(g, rho, t_op, Matrix.zeros(2, 2), Matrix.identity(2), 2)

    def test_kupershmidt_checks_are_not_rerun(self, monkeypatch):
        # One check of T in the hypothesis. The T_1..T_10 and the 55
        # pairwise sums are decided by the kernel's Kupershmidt loop, so a
        # reporting call past the hypothesis is a rerun.
        args = kn_diag()
        calls = count_calls(monkeypatch, structures, "is_kupershmidt")
        assert len(hierarchy(*args, 10)) == 11
        assert len(calls) == 1

    def test_each_power_and_report_is_computed_once(self, monkeypatch):
        # 10 products for S^1..S^10, 10 for T_k = N T_(k-1), k = 1..10, 11
        # for the T S^k they are compared with, and NT and TS in the
        # hypothesis (rho's validation makes 2 more, in lieop.linalg); no
        # power of N is formed. One Kupershmidt report, the hypothesis's,
        # and no scalar-combination samples.
        args = kn_diag()
        products = count_calls(monkeypatch, structures, "mat_mul")
        reports = count_calls(monkeypatch, operators, "_kupershmidt_report")
        combos = count_calls(monkeypatch, structures, "compatible_via_combos")
        assert len(hierarchy(*args, 10)) == 11
        assert (len(products), len(reports), len(combos)) == (33, 1, 0)

    def test_morphism_identity_is_read_off_the_compatibility_loop(self, monkeypatch):
        # Every T_k is Kupershmidt and every bracket match holds, so each
        # morphism identity is minus a compatibility defect, read off the
        # pairwise sums. T's bracket is deformed once per S^0..S^10, plus
        # once in the hypothesis's bracket match; the bracket matches read
        # those deformations and deform nothing themselves.
        args = kn_diag()
        deformations = count_calls(monkeypatch, structures, "deformed_sub_adjacent")
        inner = count_calls(monkeypatch, kernel, "deformed_sub_adjacent")
        assert len(hierarchy(*args, 10)) == 11
        assert (len(deformations), len(inner)) == (12, 0)

    def test_kdn_hypothesis_is_checked_once(self, monkeypatch):
        # KdN but not KN: the pair loop fails and the dual-pair loop passes.
        # T is still checked once, as in the KN case. Falling back from the
        # KN check to the KdN one would check it twice.
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        t_op, s_op, n_op = Matrix([[0, 0], [1, 0]]), Matrix.diagonal([0, 1]), Matrix.zeros(2, 2)
        assert not is_kn_structure(g, rho, t_op, s_op, n_op).ok
        assert is_kdn_structure(g, rho, t_op, s_op, n_op).ok
        calls = count_calls(monkeypatch, structures, "is_kupershmidt")
        assert len(hierarchy(g, rho, t_op, s_op, n_op, 10)) == 11
        assert len(calls) == 1

    def test_failed_hypothesis_lists_each_witness_once(self, aff1):
        # Neither KN nor KdN: the report lists what fails in either, once.
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        triple = (Matrix.diagonal([1, 0]), Matrix.zeros(2, 2), Matrix.identity(2))
        with pytest.raises(PreconditionFailure) as failure:
            hierarchy(g, rho, *triple, 2)
        assert failure.value.name == "kn_or_kdn"
        seen = [(w.condition, w.indices) for w in failure.value.report.witnesses]
        either = {
            (w.condition, w.indices)
            for check in (is_kn_structure, is_kdn_structure)
            for w in check(g, rho, *triple).witnesses
        }
        assert seen and len(seen) == len(set(seen)) and set(seen) == either

    def test_hierarchy_builds_no_bracket(self, monkeypatch):
        # The hypothesis's KN conditions, the bracket match and the morphism
        # identity all run as kernel loops, which build no bracket; only
        # kn_certificates builds the two brackets the KN conditions compare.
        args = kn_diag()
        calls = count_bracket_builds(monkeypatch)
        assert len(hierarchy(*args, 10)) == 11
        assert calls == []


class TestKdnFromCompatible:
    def test_equal_and_scaled(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        t_op = Matrix([[0, 1], [-1, 0]])
        first, second = kdn_from_compatible(g, coad, t_op, t_op)
        assert first.ok and second.ok
        first, second = kdn_from_compatible(g, coad, t_op, t_op.scale(2))
        assert first.ok and second.ok

    def test_grid_found_pairs_both_verify(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        inv_ops = [t for t in kupershmidt_ops(aff1, "coadjoint") if is_invertible(t)]
        tested = 0
        for t_op, t1_op in itertools.product(inv_ops, repeat=2):
            if not are_compatible_kupershmidt(g, coad, t_op, t1_op).ok:
                continue
            first, second = kdn_from_compatible(g, coad, t_op, t1_op)
            assert first.ok and second.ok
            s_op, n_op = mat_mul(invert(t_op), t1_op), mat_mul(t1_op, invert(t_op))
            for t, verdict in ((t_op, first), (t1_op, second)):
                assert verdict.to_json() == is_kdn_structure(g, coad, t, s_op, n_op).to_json()
            tested += 1
        assert tested > 0

    def test_each_hypothesis_is_checked_once(self, aff1, monkeypatch):
        # The compatibility check covers both operators (2 checks and 3
        # scalar-combination samples); rho, a catalog action, was validated
        # when it was built; the two triples share (N, S), whose dual pair
        # and torsion run once.
        g, coad = aff1.algebra, aff1.representations["coadjoint"]
        t_op = Matrix([[0, 1], [-1, 0]])
        kupershmidt = count_calls(monkeypatch, structures, "is_kupershmidt")
        rho_checks = count_calls(monkeypatch, reps, "check_representation")
        torsion = count_calls(monkeypatch, operators, "is_nijenhuis")
        dual_pairs = count_calls(monkeypatch, structures, "is_dual_nijenhuis_pair")
        first, second = kdn_from_compatible(g, coad, t_op, t_op.scale(2))
        assert first.ok and second.ok
        counts = tuple(map(len, (kupershmidt, rho_checks, torsion, dual_pairs)))
        assert counts == (5, 0, 1, 1)

    def test_requires_invertible_t(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        with pytest.raises(PreconditionFailure) as exc:
            kdn_from_compatible(g, rho, t_op, t_op)
        assert exc.value.name == "t_invertible"


class TestRMatrix:
    def test_zero_and_abelian(self, aff1):
        assert is_r_matrix(aff1.algebra, Bivector(Matrix.zeros(2, 2))).ok
        g3 = get_entry("abelian_3").algebra
        pi = Bivector(Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
        assert is_r_matrix(g3, pi).ok

    def test_dim2_always_passes(self, aff1):
        # the obstruction lives in the third exterior power, which vanishes
        pi = Bivector(Matrix([[0, 1], [-1, 0]]))
        assert is_r_matrix(aff1.algebra, pi).ok

    def test_antisymmetry_enforced(self):
        with pytest.raises(ShapeError):
            Bivector(Matrix([[0, 1], [1, 0]]))

    def test_matches_coadjoint_kupershmidt_on_grids(self):
        for name in ("aff1", "heis3"):
            e = get_entry(name)
            g, coad = e.algebra, e.representations["coadjoint"]
            n = g.dim
            for combo in itertools.product(GRID, repeat=n * (n - 1) // 2):
                rows = [[Fraction(0)] * n for _ in range(n)]
                it = iter(combo)
                for i in range(n):
                    for j in range(i + 1, n):
                        c = next(it)
                        rows[i][j] = c
                        rows[j][i] = -c
                pi_mat = Matrix(rows)
                assert (
                    is_r_matrix(g, Bivector(pi_mat)).ok
                    == is_kupershmidt(g, coad, pi_mat).ok
                )

    def test_failing_bivector_on_sl2(self, sl2):
        # e
        found = grid_search(sl2.algebra, None, "r_matrix", (Fraction(0), Fraction(1)))
        all_bivectors = 2 ** 3
        assert len(found) < all_bivectors  # sl2 does reject some candidates


class TestRawBrackets:
    """The Rota-Baxter and r-matrix identities are read on any bracket: the
    action families behind them are not validated, so a bracket that fails
    Jacobi still gets a report, with the defects of the defining formula."""

    BROKEN = Bracket(3, {(0, 1): Vector([0, 0, 1]), (0, 2): Vector([1, 0, 0])})

    @staticmethod
    def _pairs(n):
        for i in range(n):
            for j in range(i + 1, n):
                yield (i, j), Vector.basis(n, i), Vector.basis(n, j)

    def test_bracket_fails_jacobi(self):
        assert not check_jacobi(self.BROKEN).ok

    def test_rota_baxter_reports(self):
        g, r_op = self.BROKEN, Matrix([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
        expected = []
        for idx, x, y in self._pairs(3):
            rx, ry = r_op @ x, r_op @ y
            d = g(rx, ry) - (r_op @ (g(rx, y) + g(x, ry)))
            if not d.is_zero():
                expected.append(("rota_baxter", idx, d))
        report = is_rota_baxter(g, r_op)
        assert expected and report.checked == "rota_baxter" and not report.ok
        assert [(w.condition, w.indices, w.defect) for w in report.witnesses] == expected

    def test_r_matrix_reports(self):
        g = self.BROKEN
        p = Matrix([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]])

        def coad(x):
            return -ad_action(g, x).transpose()

        expected = []
        for idx, a, b in self._pairs(3):
            pa, pb = p @ a, p @ b
            d = g(pa, pb) - (p @ (coad(pa) @ b - (coad(pb) @ a)))
            if not d.is_zero():
                expected.append(("yang_baxter", idx, d))
        report = is_r_matrix(g, Bivector(p))
        assert expected and report.checked == "r_matrix" and not report.ok
        assert [(w.condition, w.indices, w.defect) for w in report.witnesses] == expected


class TestRmnRbn:
    def test_zero_bivector_with_any_nijenhuis(self, sl2):
        g = sl2.algebra
        pi = Bivector(Matrix.zeros(3, 3))
        assert is_r_matrix_nijenhuis(g, pi, Matrix.identity(3).scale(7)).ok

    def test_r_matrix_with_identity_nijenhuis(self, aff1):
        pi = Bivector(Matrix([[0, 1], [-1, 0]]))
        assert is_r_matrix_nijenhuis(aff1.algebra, pi, Matrix.identity(2)).ok

    def test_zero_rota_baxter_with_any_nijenhuis(self, aff1):
        g = aff1.algebra
        assert is_rbn_structure(g, Matrix.zeros(2, 2), Matrix.diagonal([2, 5])).ok

    @given(small_fractions)
    def test_scaled_identity_nijenhuis(self, lam):
        g = get_entry("aff1").algebra
        r_op = Matrix.diagonal([1, 0])
        assert is_rbn_structure(g, r_op, Matrix.identity(2).scale(lam)).ok

    def test_rmn_equals_kdn_with_transpose(self, aff1):
        g = aff1.algebra
        coad = aff1.representations["coadjoint"]
        nij_ops = grid_search(g, None, "nijenhuis", (Fraction(0), Fraction(1)))
        for c in GRID:
            pi_mat = Matrix([[0, c], [-c, 0]])
            for n_op in nij_ops:
                direct = is_r_matrix_nijenhuis(g, Bivector(pi_mat), n_op).ok
                kdn = is_kdn_structure(g, coad, pi_mat, n_op.transpose(), n_op).ok
                assert direct == kdn

    def test_rbn_equals_kn_with_same_n(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        nij_ops = grid_search(g, None, "nijenhuis", (Fraction(0), Fraction(1)))
        for r_op in kupershmidt_ops(aff1):
            for n_op in nij_ops:
                direct = is_rbn_structure(g, r_op, n_op).ok
                kn = is_kn_structure(g, rho, r_op, n_op, n_op).ok
                assert direct == kn

    def test_precondition_failures_distinct(self, aff1, heis3):
        g = aff1.algebra
        with pytest.raises(PreconditionFailure) as exc:
            is_rbn_structure(g, Matrix.identity(2), Matrix.identity(2))
        assert exc.value.name == "rota_baxter"
        # every 2x2 operator is Nijenhuis on aff1 (the torsion cancels
        # identically), so a Nijenhuis failure needs dimension 3
        with pytest.raises(PreconditionFailure) as exc:
            is_rbn_structure(heis3.algebra, Matrix.zeros(3, 3), Matrix.diagonal([1, 1, 0]))
        assert exc.value.name == "nijenhuis"

    def test_every_operator_is_nijenhuis_on_aff1(self, aff1):
        # symbolic cancellation pinned by exhaustive enumeration
        g = aff1.algebra
        for combo in itertools.product(GRID, repeat=4):
            assert is_nijenhuis(g, Matrix([combo[:2], combo[2:]])).ok


class TestBilinearForm:
    def test_identity_on_abelian(self):
        g = get_entry("abelian_3").algebra
        assert check_bilinear_form(g, BilinearForm(Matrix.identity(3))).ok

    def test_sl2_trace_form_matches_pinned_matrix(self, sl2):
        # oracle: recompute entrywise traces of composed adjoint actions
        g = sl2.algebra
        ad_mats = [ad_action(g, Vector.basis(3, i)) for i in range(3)]
        computed = Matrix(
            [[mat_mul(ad_mats[i], ad_mats[j]).trace() for j in range(3)] for i in range(3)]
        )
        assert computed == Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        assert check_bilinear_form(g, BilinearForm(computed)).ok

    def test_degenerate_form_witnessed(self, sl2):
        report = check_bilinear_form(sl2.algebra, BilinearForm(Matrix.zeros(3, 3)))
        assert not report.ok
        assert "nondegenerate" in {w.condition for w in report.witnesses}

    def test_aff1_admits_no_invariant_nondegenerate_form(self, aff1):
        # exhaustive symmetric grid: ad-invariance forces degeneracy
        g = aff1.algebra
        for a, b, c in itertools.product(GRID, repeat=3):
            form = BilinearForm(Matrix([[a, b], [b, c]]))
            report = check_bilinear_form(g, form)
            if report.ok:
                pytest.fail(f"unexpected invariant nondegenerate form {form}")

    def test_symmetry_enforced(self):
        with pytest.raises(ShapeError):
            BilinearForm(Matrix([[0, 1], [2, 0]]))


class TestSkewEndomorphism:
    def test_zero_always_skew(self, sl2):
        assert is_skew_endomorphism(sl2.algebra, Matrix.zeros(3, 3), sl2.bilinear_form).ok

    def test_identity_form_reduces_to_antisymmetry(self):
        g = get_entry("abelian_3").algebra
        form = BilinearForm(Matrix.identity(3))
        anti = Matrix([[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
        assert is_skew_endomorphism(g, anti, form).ok
        assert not is_skew_endomorphism(g, Matrix.identity(3), form).ok

    def test_sl2_catalog_operator_is_skew(self, sl2):
        r_op = next(o for o in sl2.operators if o.name == "rb_skew").matrices["R"]
        assert is_skew_endomorphism(sl2.algebra, r_op, sl2.bilinear_form).ok

    def test_invalid_form_rejected(self, aff1):
        form = BilinearForm(Matrix.identity(2))
        with pytest.raises(PreconditionFailure):
            is_skew_endomorphism(aff1.algebra, Matrix.zeros(2, 2), form)


class TestConversions:
    def test_trivial_pair_on_abelian(self):
        e = get_entry("abelian_3")
        g = e.algebra
        form = BilinearForm(Matrix.identity(3))
        pi, n_op = rbn_to_rmn(g, Matrix.zeros(3, 3), Matrix.identity(3), form)
        assert pi.matrix.is_zero()
        r_op, _ = rmn_to_rbn(g, pi, n_op, form)
        assert r_op.is_zero()

    def test_identity_form_transports_antisymmetric_operators(self):
        g = get_entry("abelian_3").algebra
        form = BilinearForm(Matrix.identity(3))
        r_op = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        pi, n_op = rbn_to_rmn(g, r_op, Matrix.identity(3), form)
        assert pi.matrix == r_op

    def test_sl2_round_trip_bit_exact(self, sl2):
        g, form = sl2.algebra, sl2.bilinear_form
        r_op = next(o for o in sl2.operators if o.name == "rb_skew").matrices["R"]
        n_op = Matrix.identity(3)
        pi, n1 = rbn_to_rmn(g, r_op, n_op, form)
        assert is_r_matrix_nijenhuis(g, pi, n1).ok
        r_back, n2 = rmn_to_rbn(g, pi, n1, form)
        assert r_back == r_op
        assert n2 == n_op

    def test_grid_found_skew_rbn_pairs_convert(self, sl2):
        # skew endomorphisms of the trace form are the three-parameter
        # family below; the Rota-Baxter members form RBN pairs with the
        # identity and must convert to verified RMN pairs
        g, form = sl2.algebra, sl2.bilinear_form
        found = 0
        for b, c, e in itertools.product((Fraction(-1), Fraction(0), Fraction(1)), repeat=3):
            r_op = Matrix([[0, b, c], [-2 * c, e, 0], [-2 * b, 0, -e]])
            assert is_skew_endomorphism(g, r_op, form).ok
            if not is_rota_baxter(g, r_op).ok:
                continue
            pi, n_op = rbn_to_rmn(g, r_op, Matrix.identity(3), form)
            assert is_r_matrix_nijenhuis(g, pi, n_op).ok
            found += 1
        assert found > 1

    def test_form_compatibility_enforced(self, sl2):
        g, form = sl2.algebra, sl2.bilinear_form
        # N = diag(1,2,3) does not commute with the induced sharp map
        with pytest.raises(PreconditionFailure) as exc:
            rbn_to_rmn(g, Matrix.zeros(3, 3), Matrix.diagonal([1, 2, 3]), form)
        assert exc.value.name == "form_nijenhuis_compatible"

    def test_conversions_check_each_hypothesis_once(self, sl2, monkeypatch):
        # The Gram matrix is inverted once per conversion, and the skew
        # check, the form-compatibility check and pi all read that inverse.
        g, form = sl2.algebra, sl2.bilinear_form
        bundle = next(o for o in sl2.operators if o.name == "rbn_identity")
        r_op, n_op = bundle.matrices["R"], bundle.matrices["N"]
        torsion = count_calls(monkeypatch, structures, "is_nijenhuis")
        forms = count_calls(monkeypatch, structures, "check_bilinear_form")
        inverses = count_calls(monkeypatch, structures, "invert")
        brackets = count_bracket_builds(monkeypatch)
        pi, n1 = rbn_to_rmn(g, r_op, n_op, form)
        assert (len(torsion), len(forms), len(inverses), len(brackets)) == (1, 1, 1, 0)
        del torsion[:], forms[:], inverses[:]
        r_back, n2 = rmn_to_rbn(g, pi, n1, form)
        assert (len(torsion), len(forms), len(inverses), len(brackets)) == (1, 1, 1, 0)
        assert (r_back, n2) == (r_op, n_op)
