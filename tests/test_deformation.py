import pytest
from hypothesis import given, settings

from lieop import (
    Bracket,
    DeformationPair,
    Matrix,
    PreconditionFailure,
    Representation,
    Vector,
    check_deformation_pair,
    check_trivial_equivalence,
    deformed_algebra,
    is_nijenhuis_pair,
    rho_hat,
    trivial_deformation_from_pair,
)
from lieop.catalog import get_entry

from conftest import count_bound_calls, count_bracket_builds, matrices


def _zero_pair(g, rho):
    return DeformationPair(
        omega=Bracket.zero(g.dim),
        varpi=Representation(
            g, tuple(Matrix.zeros(rho.module_dim, rho.module_dim) for _ in range(g.dim)),
            check=False,
        ),
    )


def _rescaling_pair(g, rho):
    # omega = the bracket itself, varpi = rho: deforms to (1+t)[x,y], (1+t)rho
    return DeformationPair(
        omega=Bracket(g.dim, g.table),
        varpi=Representation(g, rho.matrices, check=False),
    )


class TestCheckDeformationPair:
    def test_zero_pair_passes(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        assert check_deformation_pair(g, rho, _zero_pair(g, rho)).ok

    def test_rescaling_pair_passes(self, heis3):
        g, rho = heis3.algebra, heis3.representations["adjoint"]
        assert check_deformation_pair(g, rho, _rescaling_pair(g, rho)).ok

    def test_identity_shift_passes_every_condition(self, aff1):
        # omega = 0 with varpi(e1) = I, varpi(e2) = 0: evaluating the four
        # displays directly, every commutator involves I or 0 and vanishes,
        # and varpi([e1,e2]) = varpi(e2) = 0, so the checker must accept.
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        varpi = Representation(g, (Matrix.identity(2), Matrix.zeros(2, 2)), check=False)
        d = DeformationPair(omega=Bracket.zero(2), varpi=varpi)
        assert check_deformation_pair(g, rho, d).ok

    def test_mixed_condition_fails_and_is_witnessed(self, aff1):
        # omega = 0, varpi(e1) = 0, varpi(e2) = E12: the mixed condition at
        # (e1,e2) reads E12 = [ad(e1), E12] = -E12, which fails
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        e12 = Matrix([[0, 1], [0, 0]])
        varpi = Representation(g, (Matrix.zeros(2, 2), e12), check=False)
        d = DeformationPair(omega=Bracket.zero(2), varpi=varpi)
        report = check_deformation_pair(g, rho, d)
        assert not report.ok
        assert {w.condition for w in report.witnesses} == {"mixed"}
        assert report.witnesses[0].defect == e12.scale(2)

    def test_varpi_rep_condition_fails_when_commutators_mismatch(self, aff1):
        # omega = bracket, varpi(e1) = 0, varpi(e2) = ad(e2): condition
        # varpi(omega(e1,e2)) = [varpi(e1), varpi(e2)] reads ad(e2) = 0
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        varpi = Representation(g, (Matrix.zeros(2, 2), rho.matrices[1]), check=False)
        d = DeformationPair(omega=Bracket(2, g.table), varpi=varpi)
        report = check_deformation_pair(g, rho, d)
        assert not report.ok
        assert "varpi_rep" in {w.condition for w in report.witnesses}


class TestTrivialDeformation:
    def test_zero_pair(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        z = Matrix.zeros(2, 2)
        d = trivial_deformation_from_pair(g, rho, z, z)
        assert d.omega.is_zero()
        assert all(m.is_zero() for m in d.varpi.matrices)

    def test_identity_pair_reproduces_structure(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        eye = Matrix.identity(2)
        d = trivial_deformation_from_pair(g, rho, eye, eye)
        assert d.omega == Bracket(2, g.table)
        assert d.varpi.matrices == rho.matrices

    def test_rejects_non_pair(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        # (Id, E12) fails the pair identity at e1: 0 = S ad(e1) = E21-ish
        with pytest.raises(PreconditionFailure):
            trivial_deformation_from_pair(
                g, rho, Matrix.identity(2), Matrix([[0, 1], [0, 0]])
            )

    def test_projection_pair_round_trip(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        p = Matrix.diagonal([1, 0])
        d = trivial_deformation_from_pair(g, rho, p, p)
        assert check_deformation_pair(g, rho, d).ok
        assert check_trivial_equivalence(g, rho, p, p, d).ok

    @settings(max_examples=40)
    @given(matrices(2), matrices(2))
    def test_pairs_generate_trivial_deformations(self, n_op, s_op):
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        if not is_nijenhuis_pair(g, rho, n_op, s_op).ok:
            return
        d = trivial_deformation_from_pair(g, rho, n_op, s_op)
        assert check_deformation_pair(g, rho, d).ok
        assert check_trivial_equivalence(g, rho, n_op, s_op, d).ok


class TestTrivialEquivalence:
    def test_identity_certificate(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        eye = Matrix.identity(2)
        d = _rescaling_pair(g, rho)
        assert check_trivial_equivalence(g, rho, eye, eye, d).ok

    def test_zero_certificate(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        z = Matrix.zeros(2, 2)
        assert check_trivial_equivalence(g, rho, z, z, _zero_pair(g, rho)).ok

    def test_omega_mismatch_witnessed(self, aff1):
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        eye = Matrix.identity(2)
        report = check_trivial_equivalence(g, rho, eye, eye, _zero_pair(g, rho))
        assert not report.ok
        conditions = {w.condition for w in report.witnesses}
        assert "omega_match" in conditions

    @settings(max_examples=40)
    @given(matrices(2), matrices(2))
    def test_equivalence_certificate_forces_pair(self, n_op, s_op):
        # build d from the defining formulas, so the match conditions hold
        # by construction; if the remaining two also hold, (N,S) must be a
        # Nijenhuis pair
        e = get_entry("aff1")
        g, rho = e.algebra, e.representations["adjoint"]
        d = DeformationPair(
            omega=deformed_algebra(g, n_op),
            varpi=rho_hat(rho, n_op, s_op),
        )
        if check_trivial_equivalence(g, rho, n_op, s_op, d).ok:
            assert is_nijenhuis_pair(g, rho, n_op, s_op).ok


class TestKernelRoute:
    """Both checks run lieop.kernel's integer loops on the images of g, rho,
    omega and varpi: they build no bracket and evaluate none."""

    @pytest.mark.parametrize("name", ("aff1", "heis3"))
    def test_checks_build_and_evaluate_no_bracket(self, name, monkeypatch):
        e = get_entry(name)
        g, rho = e.algebra, e.representations["adjoint"]
        p = Matrix.diagonal([1] + [0] * (g.dim - 1))
        d = trivial_deformation_from_pair(g, rho, p, p)
        builds = count_bracket_builds(monkeypatch)
        evaluations = count_bound_calls(monkeypatch, (Bracket.__call__, Representation.act))
        assert check_deformation_pair(g, rho, d).ok
        assert check_trivial_equivalence(g, rho, p, p, d).ok
        assert (builds, evaluations) == ([], [])

    def test_the_counters_see_bound_calls(self, aff1, monkeypatch):
        # The pin above is not vacuous: LieAlgebra inherits Bracket.__call__,
        # and the wrapped methods count calls on catalog objects too.
        g, rho = aff1.algebra, aff1.representations["adjoint"]
        evaluations = count_bound_calls(monkeypatch, (Bracket.__call__, Representation.act))
        x, y = Vector.basis(2, 0), Vector.basis(2, 1)
        assert g(x, y) == y
        assert rho.act(y) == rho.matrices[1]
        assert evaluations == ["__call__", "act"]
