import pytest
from hypothesis import given, settings

from lieop import (
    Matrix,
    Representation,
    ShapeError,
    ValidationError,
    check_representation,
    deformed_algebra,
    dual_representation,
    hierarchy,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis_pair,
    rho_hat,
    rho_tilde,
)
from lieop.catalog import get_entry, list_catalog

from conftest import count_rep_loops, matrices


class TestCheckRepresentation:
    def test_zero_action_is_representation(self, aff1):
        rho = Representation(
            aff1.algebra, (Matrix.zeros(3, 3), Matrix.zeros(3, 3)), check=False
        )
        assert check_representation(rho).ok

    def test_adjoint_passes_for_all_catalog(self):
        for name in list_catalog():
            e = get_entry(name)
            assert check_representation(e.representations["adjoint"]).ok

    def test_commutator_mismatch_witnessed(self, aff1):
        # rho(e1) = rho(e2) = I: then rho([e1,e2]) = I but [I, I] = 0
        rho = Representation(
            aff1.algebra, (Matrix.identity(1), Matrix.identity(1)), check=False
        )
        report = check_representation(rho)
        assert not report.ok
        assert report.witnesses[0].indices == (0, 1)
        assert report.witnesses[0].defect == Matrix.identity(1)

    def test_constructor_validates_eagerly(self, aff1):
        with pytest.raises(ValidationError):
            Representation(aff1.algebra, (Matrix.identity(1), Matrix.identity(1)))

    @pytest.mark.parametrize("check", [True, False])
    def test_zero_dimensional_module_is_refused(self, aff1, check):
        # As a document's module_dim of 0 is; the pair loop and the search
        # would otherwise split their flats into rows of length 0.
        with pytest.raises(ShapeError, match="zero-dimensional module"):
            Representation(aff1.algebra, (Matrix([]), Matrix([])), check=check)


class TestCheckAgainst:
    def test_failing_family_is_checked_on_every_call(self, aff1, monkeypatch):
        bad = Representation(aff1.algebra, (Matrix.identity(1), Matrix.identity(1)), check=False)
        t_op = Matrix([[1], [0]])
        calls = count_rep_loops(monkeypatch)
        first, second = (is_kupershmidt(aff1.algebra, bad, t_op) for _ in range(2))
        assert len(calls) == 2
        assert not first.ok
        assert first.to_json() == second.to_json()
        assert first.witnesses == check_representation(bad).witnesses

    def test_unchecked_family_is_checked_once_through_a_hierarchy(self, aff1, monkeypatch):
        op = next(o for o in aff1.operators if o.name == "kn_diag")
        rho = Representation(aff1.algebra, aff1.representations[op.rep].matrices, check=False)
        calls = count_rep_loops(monkeypatch)
        assert len(hierarchy(aff1.algebra, rho, *(op.matrices[key] for key in "TSN"), 10)) == 11
        assert len(calls) == 1


class TestDualRepresentation:
    def test_dual_of_zero_is_zero(self, abelian2):
        rho = abelian2.representations["adjoint"]
        assert all(m.is_zero() for m in dual_representation(rho).matrices)

    def test_involution(self, sl2):
        rho = sl2.representations["adjoint"]
        assert dual_representation(dual_representation(rho)) == rho

    def test_coadjoint_aff1(self, aff1):
        # ad*(e1) = -ad(e1)^T
        coad = aff1.representations["coadjoint"]
        assert coad.matrices[0] == Matrix([[0, 0], [0, -1]])
        assert coad.matrices[1] == Matrix([[0, 1], [0, 0]])

    def test_dual_always_valid(self):
        for name in list_catalog():
            rho = get_entry(name).representations["adjoint"]
            assert check_representation(dual_representation(rho)).ok


class TestDeformedActions:
    def test_identity_pair_fixes_rho(self, aff1):
        rho = aff1.representations["adjoint"]
        eye = Matrix.identity(2)
        assert rho_hat(rho, eye, eye).matrices == rho.matrices
        assert rho_tilde(rho, eye, eye).matrices == rho.matrices

    def test_zero_pair_kills_action(self, aff1):
        rho = aff1.representations["adjoint"]
        z = Matrix.zeros(2, 2)
        assert all(m.is_zero() for m in rho_hat(rho, z, z).matrices)

    def test_s_zero_collapses_both(self, heis3):
        rho = heis3.representations["adjoint"]
        n_op = Matrix.diagonal([1, 1, 0])
        z = Matrix.zeros(3, 3)
        assert rho_hat(rho, n_op, z).matrices == rho_tilde(rho, n_op, z).matrices

    def test_aff1_projection_pair(self, aff1):
        # rho_hat(e2) = ad(N e2) + [ad(e2), S] with N e2 = 0
        rho = aff1.representations["adjoint"]
        p = Matrix.diagonal([1, 0])
        hat = rho_hat(rho, p, p)
        assert hat.matrices[1] == Matrix([[0, 0], [-1, 0]])
        # and the candidate is a representation of the deformed algebra
        assert check_representation(hat, bracket=deformed_algebra(aff1.algebra, p)).ok

    @settings(max_examples=25)
    @given(matrices(2), matrices(2))
    def test_hat_represents_deformed_algebra_for_pairs(self, n_op, s_op):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        if is_nijenhuis_pair(g, rho, n_op, s_op).ok:
            hat = rho_hat(rho, n_op, s_op)
            assert check_representation(hat, bracket=deformed_algebra(g, n_op)).ok

    @settings(max_examples=25)
    @given(matrices(2), matrices(2))
    def test_tilde_represents_deformed_algebra_for_dual_pairs(self, n_op, s_op):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        if is_dual_nijenhuis_pair(g, rho, n_op, s_op).ok:
            tilde = rho_tilde(rho, n_op, s_op)
            assert check_representation(tilde, bracket=deformed_algebra(g, n_op)).ok

    @settings(max_examples=25)
    @given(matrices(2), matrices(2))
    def test_dual_of_tilde_is_hat_on_dual(self, n_op, s_op):
        # <tilde(x) a, v> duality: the dual family of rho_tilde(rho, N, S)
        # is rho_hat(rho*, N, S^T)
        rho = get_entry("aff1").representations["adjoint"]
        lhs = dual_representation_matrices(rho_tilde(rho, n_op, s_op))
        rhs = rho_hat(dual_representation(rho), n_op, s_op.transpose()).matrices
        assert lhs == rhs


def dual_representation_matrices(rho):
    return tuple(-m.transpose() for m in rho.matrices)
