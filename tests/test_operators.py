import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from lieop import (
    Bivector,
    Bracket,
    LieopError,
    Matrix,
    Representation,
    ShapeError,
    Vector,
    adjoint_matrices,
    check_jacobi,
    check_pre_lie,
    deform_bracket_by_s,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_perfect_pair,
    is_r_matrix,
    is_rota_baxter,
    kupershmidt_defect,
    nijenhuis_defect,
    nijenhuis_pair_semidirect_test,
    pre_lie_nijenhuis,
    pre_lie_product,
    promote,
    rho_hat,
    sub_adjacent_bracket,
)
from lieop.catalog import get_entry
from lieop.reps import dual_representation

from conftest import GRID, count_rep_loops, matrices, small_fractions


def grid_matrices(n, m=None):
    m = n if m is None else m
    for combo in itertools.product(GRID, repeat=n * m):
        yield Matrix([combo[r * m : (r + 1) * m] for r in range(n)])


class TestNijenhuis:
    @given(small_fractions)
    def test_scalar_multiples_of_identity(self, lam):
        g = get_entry("aff1").algebra
        assert is_nijenhuis(g, Matrix.identity(2).scale(lam)).ok

    def test_everything_on_abelian(self):
        g = get_entry("abelian_2").algebra
        for n_op in grid_matrices(2):
            assert is_nijenhuis(g, n_op).ok

    @given(small_fractions, small_fractions)
    def test_diagonal_family_on_aff1(self, a, d):
        # torsion at (e1,e2) is ad*e2 - ad*e2 termwise
        g = get_entry("aff1").algebra
        assert is_nijenhuis(g, Matrix.diagonal([a, d])).ok

    def test_defect_antisymmetric(self, heis3):
        g = heis3.algebra
        n_op = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        x, y = Vector.basis(3, 0), Vector.basis(3, 1)
        assert nijenhuis_defect(g, n_op, x, y) == -nijenhuis_defect(g, n_op, y, x)

    def test_failing_operator_witnessed(self, heis3):
        # N = diag(1,1,0): torsion at (e1,e2) = (1 - 0)(1 - 0) e3
        report = is_nijenhuis(heis3.algebra, Matrix.diagonal([1, 1, 0]))
        assert not report.ok
        assert report.witnesses[0].indices == (0, 1)
        assert report.witnesses[0].defect == Vector([0, 0, 1])


class TestRotaBaxter:
    def test_zero_and_abelian(self, aff1):
        assert is_rota_baxter(aff1.algebra, Matrix.zeros(2, 2)).ok
        g = get_entry("abelian_2").algebra
        for r_op in grid_matrices(2):
            assert is_rota_baxter(g, r_op).ok

    def test_projection_passes_identity_fails(self, aff1):
        g = aff1.algebra
        assert is_rota_baxter(g, Matrix.diagonal([1, 0])).ok
        report = is_rota_baxter(g, Matrix.identity(2))
        assert not report.ok  # [x,y] != 2[x,y] on a nonabelian algebra

    def test_grid_membership_matches_direct_identity(self, aff1):
        # independent oracle: evaluate the defining identity from raw
        # structure constants, then compare membership over the whole grid
        g = aff1.algebra

        def oracle(r_op):
            e1, e2 = Vector.basis(2, 0), Vector.basis(2, 1)
            lhs = g(r_op @ e1, r_op @ e2)
            rhs = r_op @ (g(r_op @ e1, e2) + g(e1, r_op @ e2))
            return lhs == rhs

        for r_op in grid_matrices(2):
            assert oracle(r_op) == is_rota_baxter(g, r_op).ok

    def test_action_family_is_built_once_per_bracket(self, monkeypatch):
        # Rota-Baxter and r-matrix checks read the bracket's cached
        # adjoint and coadjoint families instead of rebuilding them.
        from lieop import reps

        built = []
        for name in ("_ad_family", "_coad_family"):
            build = getattr(reps, name)
            monkeypatch.setattr(reps, name, lambda g, b=build: built.append(b) or b(g))
        g = Bracket(2, {(0, 1): Vector([0, 1])})
        for r_op in grid_matrices(2):
            is_rota_baxter(g, r_op)
            is_r_matrix(g, Bivector(Matrix([[0, r_op[0, 1]], [-r_op[0, 1], 0]])))
        assert len(built) == 2


class TestKupershmidt:
    def test_zero_map(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        assert is_kupershmidt(g, rho, Matrix.zeros(2, 2)).ok

    def test_adjoint_specialization_equals_rota_baxter(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        for t_op in grid_matrices(2):
            assert is_kupershmidt(g, rho, t_op).ok == is_rota_baxter(g, t_op).ok

    def test_identity_fails_on_nonabelian(self, aff1):
        # defect = [u,v] - 2[u,v] = -[u,v]
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        report = is_kupershmidt(g, rho, Matrix.identity(2))
        assert not report.ok
        u, v = Vector.basis(2, 0), Vector.basis(2, 1)
        assert kupershmidt_defect(g, rho, Matrix.identity(2), u, v) == -g(u, v)

    def test_invalid_action_reported(self, aff1):
        from lieop.reps import Representation

        bad = Representation(
            aff1.algebra, (Matrix.identity(1), Matrix.identity(1)), check=False
        )
        report = is_kupershmidt(aff1.algebra, bad, Matrix.zeros(2, 1))
        assert not report.ok
        assert report.witnesses[0].condition == "rep_axiom"


class TestPairs:
    @given(small_fractions)
    def test_scalar_pair(self, lam):
        e = get_entry("heis3")
        g, rho = e.algebra, e.representations["adjoint"]
        n_op = Matrix.identity(3).scale(lam)
        s_op = Matrix.identity(3).scale(lam)
        assert is_nijenhuis_pair(g, rho, n_op, s_op).ok
        assert is_dual_nijenhuis_pair(g, rho, n_op, s_op).ok
        assert is_perfect_pair(g, rho, n_op, s_op).ok

    def test_zero_pair(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        z = Matrix.zeros(2, 2)
        assert is_nijenhuis_pair(g, rho, z, z).ok

    def test_projection_pair_is_not_dual(self, aff1):
        # direct expansion: the dual identity at e2 leaves ad(e2)S^2 standing
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p = Matrix.diagonal([1, 0])
        assert is_nijenhuis_pair(g, rho, p, p).ok
        report = is_dual_nijenhuis_pair(g, rho, p, p)
        assert not report.ok
        assert not is_perfect_pair(g, rho, p, p).ok

    def test_commuting_s_makes_pairs_perfect(self, aff1):
        # S = lambda Id commutes with every action matrix
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        n_op = Matrix.diagonal([2, 5])
        s_op = Matrix.identity(2).scale(Fraction(3, 2))
        assert is_perfect_pair(g, rho, n_op, s_op).ok

    def test_transpose_duality_over_grid(self, heis3):
        g = heis3.algebra
        rho = heis3.representations["adjoint"]
        dual = dual_representation(rho)
        for combo in itertools.product(GRID, repeat=6):
            n_op = Matrix.diagonal(combo[:3])
            s_op = Matrix.diagonal(combo[3:])
            assert (
                is_nijenhuis_pair(g, rho, n_op, s_op).ok
                == is_dual_nijenhuis_pair(g, dual, n_op, s_op.transpose()).ok
            )

    @settings(max_examples=40)
    @given(matrices(2), matrices(2))
    def test_semidirect_route_agrees(self, n_op, s_op):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        assert (
            nijenhuis_pair_semidirect_test(g, rho, n_op, s_op).ok
            == is_nijenhuis_pair(g, rho, n_op, s_op).ok
        )

    def test_semidirect_route_builds_the_dual_once(self, aff1, monkeypatch):
        # S = lambda Id commutes with every action matrix, so each pair is
        # perfect and is tested on the dual semidirect product too. The dual
        # family is built, and its axiom loop run, on the first of them only.
        g = aff1.algebra
        rho = Representation(g, aff1.representations["adjoint"].matrices)
        calls = count_rep_loops(monkeypatch)
        for lam in (1, 2, Fraction(1, 3)):
            for n_op in (Matrix.identity(2), Matrix([[1, 2], [0, 1]])):
                s_op = Matrix.identity(2).scale(lam)
                assert is_perfect_pair(g, rho, n_op, s_op).ok
                assert nijenhuis_pair_semidirect_test(g, rho, n_op, s_op).ok
        assert len(calls) == 1
        assert rho.dual is rho.dual == dual_representation(rho)

    def test_semidirect_mixed_witness(self, aff1):
        # a failing pair must be witnessed at a mixed algebra/module index
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        report = nijenhuis_pair_semidirect_test(
            g, rho, Matrix.identity(2), Matrix([[0, 1], [0, 0]])
        )
        assert not report.ok
        i, j = report.witnesses[0].indices
        assert i < g.dim <= j

    def test_semidirect_route_rejects_a_rep_of_another_algebra(self, aff1, heis3):
        # The same ShapeError as is_nijenhuis_pair, not an IndexError.
        args = (heis3.algebra, aff1.representations["adjoint"], Matrix.identity(2), Matrix.identity(2))
        with pytest.raises(ShapeError):
            is_nijenhuis_pair(*args)
        with pytest.raises(ShapeError, match="bracket dim 3 != algebra dim 2"):
            nijenhuis_pair_semidirect_test(*args)

    def test_semidirect_route_on_a_plain_jacobi_bracket(self, aff1):
        # The report on the bare Bracket is the one on its promoted algebra.
        raw = Bracket(aff1.algebra.dim, aff1.algebra.table)
        rho = aff1.representations["adjoint"]
        for n_op, s_op in ((Matrix.identity(2), Matrix([[0, 1], [0, 0]])), (Matrix.identity(2),) * 2):
            report = nijenhuis_pair_semidirect_test(raw, rho, n_op, s_op)
            expected = nijenhuis_pair_semidirect_test(promote(raw), rho, n_op, s_op)
            assert report.to_json() == expected.to_json()

    def test_semidirect_route_rejects_a_bracket_failing_jacobi(self):
        raw = Bracket(3, {(0, 1): Vector([0, 0, 1]), (0, 2): Vector([1, 0, 0])})
        rho = Representation(raw, adjoint_matrices(raw), check=False)
        with pytest.raises(LieopError, match="Jacobi identity fails"):
            nijenhuis_pair_semidirect_test(raw, rho, Matrix.identity(3), Matrix.identity(3))


class TestPreLie:
    def test_zero_map_gives_zero_product(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p = pre_lie_product(g, rho, Matrix.zeros(2, 2))
        assert check_pre_lie(p).ok
        assert p(Vector([1, 2]), Vector([3, 4])).is_zero()

    def test_kupershmidt_operator_gives_pre_lie(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p = pre_lie_product(g, rho, Matrix.diagonal([1, 0]))
        assert check_pre_lie(p).ok

    def test_identity_product_on_aff1_fails(self, aff1):
        # with T = Id the product is the bracket itself; its associator is
        # symmetric iff [[u,v],w] = 0, which fails on aff1 at ((e1,e2),e1)
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        report = check_pre_lie(pre_lie_product(g, rho, Matrix.identity(2)))
        assert not report.ok

    def test_identity_product_on_heis3_passes(self, heis3):
        # heis3 is 2-step nilpotent, so the bracket is itself pre-Lie
        g, rho = heis3.algebra, heis3.representations["adjoint"]
        assert check_pre_lie(pre_lie_product(g, rho, Matrix.identity(3))).ok

    def test_pre_lie_torsion_specializes_pair_condition(self, aff1):
        # for a KN triple, S has vanishing torsion for the induced product
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p_op = Matrix.diagonal([1, 0])
        product = pre_lie_product(g, rho, p_op)
        assert pre_lie_nijenhuis(product, p_op).ok


class TestModuleBrackets:
    def test_commutator_of_pre_lie_is_sub_adjacent(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        p = pre_lie_product(g, rho, t_op)
        assert p.commutator_bracket() == sub_adjacent_bracket(g, rho, t_op)

    def test_homomorphism_property(self, aff1):
        # T[u,v]^T = [Tu, Tv] for Kupershmidt T
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        for t_op in grid_matrices(2):
            if not is_kupershmidt(g, rho, t_op).ok:
                continue
            sub = sub_adjacent_bracket(g, rho, t_op)
            assert check_jacobi(sub).ok
            for i in range(2):
                for j in range(i + 1, 2):
                    u, v = Vector.basis(2, i), Vector.basis(2, j)
                    assert t_op @ sub(u, v) == g(t_op @ u, t_op @ v)

    def test_deform_by_identity_and_zero(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        sub = sub_adjacent_bracket(g, rho, Matrix.diagonal([1, 0]))
        assert deform_bracket_by_s(sub, Matrix.identity(2)) == sub
        assert deform_bracket_by_s(sub, Matrix.zeros(2, 2)).is_zero()

    @given(small_fractions)
    def test_deform_by_scalar_scales(self, lam):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        sub = sub_adjacent_bracket(g, rho, Matrix.diagonal([1, 0]))
        scaled = deform_bracket_by_s(sub, Matrix.identity(2).scale(lam))
        for i in range(2):
            for j in range(i + 1, 2):
                assert scaled.basis_bracket(i, j) == sub.basis_bracket(i, j).scale(lam)

    def test_bracket_from_hat_with_identity_pair(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        t_op = Matrix.diagonal([1, 0])
        hat = rho_hat(rho, Matrix.identity(2), Matrix.identity(2))
        assert sub_adjacent_bracket(g, hat, t_op) == sub_adjacent_bracket(g, rho, t_op)

    def test_zero_map_gives_zero_bracket(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        assert sub_adjacent_bracket(g, rho, Matrix.zeros(2, 2)).is_zero()
