from fractions import Fraction

import pytest
from hypothesis import given, settings

from lieop import (
    Bracket,
    LieAlgebra,
    LieopError,
    Matrix,
    ShapeError,
    ValidationError,
    Vector,
    adjoint_matrices,
    check_jacobi,
    deformed_algebra,
    is_nijenhuis,
    promote,
    semidirect_product,
)
from lieop.catalog import get_entry, list_catalog
from lieop.reps import adjoint_rep

from conftest import matrices, vectors


class TestBracketEval:
    def test_self_bracket_vanishes(self, aff1):
        x = Vector([2, Fraction(-1, 3)])
        assert aff1.algebra(x, x).is_zero()

    @given(vectors(2), vectors(2))
    def test_antisymmetry(self, x, y):
        g = get_entry("aff1").algebra
        assert g(x, y) == -g(y, x)

    @given(vectors(3), vectors(3), vectors(3))
    def test_bilinearity(self, x, y, z):
        g = get_entry("heis3").algebra
        assert g(x + y, z) == g(x, z) + g(y, z)
        assert g(x, y + z) == g(x, y) + g(x, z)

    def test_abelian_is_zero(self):
        g = get_entry("abelian_3").algebra
        assert g(Vector([1, 2, 3]), Vector([4, 5, 6])).is_zero()

    def test_aff1_structure(self, aff1):
        g = aff1.algebra
        e1, e2 = Vector.basis(2, 0), Vector.basis(2, 1)
        assert g(e1, e2) == e2

    def test_dimension_mismatch(self, aff1):
        with pytest.raises(ShapeError):
            aff1.algebra(Vector([1, 2, 3]), Vector([1, 2, 3]))


class TestFrozenTable:
    def test_table_cannot_be_assigned(self, aff1):
        with pytest.raises(TypeError):
            aff1.algebra.table[(0, 1)] = Vector([1, 0])
        raw = Bracket(2, {(0, 1): Vector([0, 1])})
        with pytest.raises(TypeError):
            raw.table[(0, 1)] = Vector([1, 0])
        with pytest.raises(TypeError):
            del raw.table[(0, 1)]

    def test_equality_and_hash_unchanged(self, aff1):
        raw = Bracket(2, {(0, 1): Vector([0, 1])})
        assert raw == aff1.algebra and hash(raw) == hash(aff1.algebra)
        assert promote(raw).table == aff1.algebra.table


class TestJacobi:
    def test_all_catalog_algebras_pass(self):
        for name in list_catalog():
            assert check_jacobi(get_entry(name).algebra).ok

    def test_dim2_vacuous(self):
        # any antisymmetric product in dim 2 has no basis triples to violate
        b = Bracket(2, {(0, 1): Vector([5, -7])})
        assert check_jacobi(b).ok

    def test_violation_witnessed(self):
        # [e1,e2]=e3, [e1,e3]=e1: the cyclic sum at (e1,e2,e3) is -e3
        b = Bracket(
            3, {(0, 1): Vector([0, 0, 1]), (0, 2): Vector([1, 0, 0])}
        )
        report = check_jacobi(b)
        assert not report.ok
        assert [w.indices for w in report.witnesses] == [(0, 1, 2)]
        assert report.witnesses[0].defect == Vector([0, 0, -1])

    def test_promote_rejects_non_jacobi(self):
        b = Bracket(
            3, {(0, 1): Vector([0, 0, 1]), (0, 2): Vector([1, 0, 0])}
        )
        with pytest.raises(ValidationError):
            promote(b)


class TestAdjoint:
    def test_abelian_adjoint_zero(self):
        rho = adjoint_rep(get_entry("abelian_2").algebra)
        assert all(m.is_zero() for m in rho.matrices)

    def test_aff1_matrices(self, aff1):
        # read off [e1,e2] = e2 and [e2,e1] = -e2
        rho = aff1.representations["adjoint"]
        assert rho.matrices[0] == Matrix([[0, 0], [0, 1]])
        assert rho.matrices[1] == Matrix([[0, 0], [-1, 0]])

    def test_module_dim_is_algebra_dim(self):
        for name in list_catalog():
            g = get_entry(name).algebra
            assert adjoint_rep(g).module_dim == g.dim


class TestDeformedAlgebra:
    def test_identity_gives_same_table(self, aff1):
        g = aff1.algebra
        assert deformed_algebra(g, Matrix.identity(2)) == Bracket(g.dim, g.table)

    def test_zero_gives_zero(self, aff1):
        assert deformed_algebra(aff1.algebra, Matrix.zeros(2, 2)).is_zero()

    def test_aff1_projection(self, aff1):
        # [e1,e2]_N = [Ne1,e2] + [e1,Ne2] - N[e1,e2] = e2 + 0 - 0
        g = aff1.algebra
        d = deformed_algebra(g, Matrix.diagonal([1, 0]))
        assert d.basis_bracket(0, 1) == Vector([0, 1])

    @settings(max_examples=30)
    @given(matrices(2))
    def test_nijenhuis_deformation_satisfies_jacobi(self, n_op):
        g = get_entry("aff1").algebra
        if is_nijenhuis(g, n_op).ok:
            d = deformed_algebra(g, n_op)
            assert check_jacobi(d).ok
            # N is then a morphism from the deformed product to the original
            for i in range(2):
                for j in range(i + 1, 2):
                    x, y = Vector.basis(2, i), Vector.basis(2, j)
                    assert n_op @ d(x, y) == g(n_op @ x, n_op @ y)

    def test_deformation_jacobi_and_morphism_over_catalog_grids(self):
        # exhaustive over {0,1} entries for the 3-dimensional algebras and
        # {-1,0,1} for the smaller ones
        import itertools

        from conftest import GRID

        for name in list_catalog():
            g = get_entry(name).algebra
            n = g.dim
            values = GRID if n <= 2 else (0, 1)
            for combo in itertools.product(values, repeat=n * n):
                n_op = Matrix([combo[r * n : (r + 1) * n] for r in range(n)])
                if not is_nijenhuis(g, n_op).ok:
                    continue
                d = deformed_algebra(g, n_op)
                assert check_jacobi(d).ok
                for i in range(n):
                    for j in range(i + 1, n):
                        x, y = Vector.basis(n, i), Vector.basis(n, j)
                        assert n_op @ d(x, y) == g(n_op @ x, n_op @ y)


class TestSemidirect:
    def test_abelian_zero_action(self):
        g = get_entry("abelian_2").algebra
        rho = get_entry("abelian_2").representations["adjoint"]
        big = semidirect_product(g, rho)
        assert big.dim == 4
        assert big.is_zero()

    def test_adjoint_semidirect_all_catalog(self):
        for name in list_catalog():
            g = get_entry(name).algebra
            big = semidirect_product(g, adjoint_rep(g))
            assert big.dim == 2 * g.dim
            assert check_jacobi(big).ok

    def test_projects_to_original_bracket(self, aff1):
        g = aff1.algebra
        big = semidirect_product(g, aff1.representations["adjoint"])
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                top = big.basis_bracket(i, j).coords[: g.dim]
                assert Vector(top) == g.basis_bracket(i, j)

    def test_cache_keeps_basis_names_apart(self):
        first = LieAlgebra.from_structure(2, {(0, 1): {1: 1}}, basis_names=("a", "b"))
        second = LieAlgebra.from_structure(2, {(0, 1): {1: 1}}, basis_names=("p", "q"))
        assert first == second  # bracket equality ignores the names
        assert semidirect_product(first, adjoint_rep(first)).basis_names == ("a", "b", "v1", "v2")
        assert semidirect_product(second, adjoint_rep(second)).basis_names == ("p", "q", "v1", "v2")

    def test_rejects_invalid_action(self, aff1):
        from lieop.reps import Representation

        bad = Representation(
            aff1.algebra,
            (Matrix.identity(1), Matrix.identity(1)),
            check=False,
        )
        with pytest.raises(ValidationError):
            semidirect_product(aff1.algebra, bad)

    def test_action_is_validated_against_g(self, aff1, abelian2):
        # aff1's adjoint action on the abelian bracket: the axiom fails
        # against g, though it holds against rho.algebra.
        with pytest.raises(ValidationError, match="not a representation") as err:
            semidirect_product(abelian2.algebra, aff1.representations["adjoint"])
        assert [w.condition for w in err.value.report.witnesses] == ["rep_axiom"]

    def test_action_of_another_dimension_is_rejected(self, aff1, heis3):
        with pytest.raises(ShapeError, match="bracket dim 3 != algebra dim 2"):
            semidirect_product(heis3.algebra, aff1.representations["adjoint"])

    def test_plain_jacobi_bracket_is_promoted(self, aff1):
        raw = Bracket(aff1.algebra.dim, aff1.algebra.table)
        rho = aff1.representations["adjoint"]
        big = semidirect_product(raw, rho)
        assert big == semidirect_product(promote(raw), rho)
        assert big.basis_names == ("e1", "e2", "v1", "v2")

    def test_plain_bracket_is_promoted_once(self, aff1, monkeypatch):
        # The memo is keyed on the raw bracket, so a repeated call skips
        # promotion and its Jacobi check.
        from lieop import lie

        monkeypatch.setattr(lie, "_SEMIDIRECT_CACHE", {})
        calls = []

        def counted(b):
            calls.append(b)
            return promote(b)

        monkeypatch.setattr(lie, "promote", counted)
        raw = Bracket(aff1.algebra.dim, aff1.algebra.table)
        rho = aff1.representations["adjoint"]
        first = semidirect_product(raw, rho)
        assert semidirect_product(raw, rho) is first
        assert len(calls) == 1

    def test_plain_bracket_failing_jacobi_is_rejected(self):
        from lieop.reps import Representation

        raw = Bracket(3, {(0, 1): Vector([0, 0, 1]), (0, 2): Vector([1, 0, 0])})
        rho = Representation(raw, adjoint_matrices(raw), check=False)
        with pytest.raises(LieopError, match="Jacobi identity fails"):
            semidirect_product(raw, rho)
