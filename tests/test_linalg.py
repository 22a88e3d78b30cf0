import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieop import (
    Matrix,
    NoSolution,
    NotInvertible,
    ShapeError,
    Vector,
    adjoint_rep,
    block_diag,
    check_deformation_pair,
    check_trivial_equivalence,
    det,
    invert,
    is_dual_nijenhuis_pair,
    is_nijenhuis_pair,
    mat_mul,
    nijenhuis_pair_semidirect_test,
    parse_rational,
    rational,
    solve,
    trivial_deformation_from_pair,
)
from lieop.catalog import get_entry
from lieop.linalg import format_rational, nullspace_vector

from conftest import MIXED_AFF1, matrices, small_fractions, vectors


class TestRationalWire:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    def test_format_round_trip(self):
        for text in ["0", "5", "-5", "2/3", "-11/4"]:
            assert format_rational(parse_rational(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "1/0", "1/-2", "- 1", "1.5", "+3", "", "3/", "/2", "0x1", "1 /2",
            # ASCII digits only, and nothing after the last one.
            "1\n", "1/2\n", "\u0663", "\uff11", "1/1\u0660",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(small_fractions)
    def test_canonical(self, q):
        assert parse_rational(format_rational(q)) == q


class TestMatMul:
    def test_identity_absorbs(self):
        m = Matrix([[1, 2], [3, 4]])
        assert mat_mul(Matrix.identity(2), m) == m
        assert mat_mul(m, Matrix.identity(2)) == m

    def test_zero_annihilates(self):
        m = Matrix([[1, 2], [3, 4]])
        assert mat_mul(m, Matrix.zeros(2, 2)).is_zero()

    def test_hand_product(self):
        # hand multiplication: rows of the left against the swap matrix
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert mat_mul(a, b) == Matrix([[2, 1], [4, 3]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))

    @given(matrices(2), matrices(2), matrices(2))
    def test_associative(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestInvert:
    def test_identity(self):
        assert invert(Matrix.identity(3)) == Matrix.identity(3)

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertible):
            invert(Matrix.zeros(2, 2))

    def test_diagonal(self):
        d = Matrix.diagonal([2, Fraction(1, 2)])
        assert invert(d) == Matrix.diagonal([Fraction(1, 2), 2])

    def test_non_square(self):
        with pytest.raises(ShapeError):
            invert(Matrix.zeros(2, 3))

    @settings(max_examples=60)
    @given(matrices(3))
    def test_double_inverse(self, m):
        if det(m) == 0:
            with pytest.raises(NotInvertible):
                invert(m)
            return
        inv = invert(m)
        assert mat_mul(m, inv) == Matrix.identity(3)
        assert mat_mul(inv, m) == Matrix.identity(3)
        assert invert(inv) == m


class TestSolve:
    def test_identity(self):
        v = Vector([3, -2])
        assert solve(Matrix.identity(2), v) == v

    def test_zero_inconsistent(self):
        with pytest.raises(NoSolution):
            solve(Matrix.zeros(2, 2), Vector([1, 0]))

    def test_back_substitution(self):
        # by hand: x2 = 1, then x1 = 3 - x2 = 2
        a = Matrix([[1, 1], [0, 1]])
        assert solve(a, Vector([3, 1])) == Vector([2, 1])

    def test_underdetermined_returns_a_solution(self):
        a = Matrix([[1, 1]])
        x = solve(a, Vector([5]))
        assert a @ x == Vector([5])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            solve(Matrix.zeros(2, 2), Vector([1, 2, 3]))

    @settings(max_examples=60)
    @given(matrices(3), vectors(3))
    def test_solution_satisfies_system(self, a, b):
        try:
            x = solve(a, b)
        except NoSolution:
            # inconsistency witnessed: no x can exist, spot-check via rank logic
            assert det(a) == 0
            return
        assert a @ x == b


class TestDeterminant:
    def test_known_values(self):
        assert det(Matrix([[1, 2], [3, 4]])) == -2
        assert det(Matrix.identity(4)) == 1
        assert det(Matrix.diagonal([Fraction(1, 2), 6])) == 3

    @settings(max_examples=60)
    @given(matrices(3), matrices(3))
    def test_multiplicative(self, a, b):
        assert det(mat_mul(a, b)) == det(a) * det(b)

    @given(matrices(3))
    def test_transpose_invariant(self, a):
        assert det(a.transpose()) == det(a)


class TestNullspace:
    def test_trivial_kernel(self):
        assert nullspace_vector(Matrix.identity(3)) is None

    @settings(max_examples=40)
    @given(matrices(3))
    def test_kernel_vector_annihilated(self, a):
        v = nullspace_vector(a)
        if v is None:
            assert det(a) != 0
        else:
            assert not v.is_zero()
            assert (a @ v).is_zero()


class TestExactness:
    @given(vectors(4))
    def test_additive_inverse_is_canonical_zero(self, v):
        assert (v + (-v)) == Vector.zero(4)
        assert (v - v).is_zero()

    @given(matrices(2), small_fractions)
    def test_scale_matches_repeated_addition(self, m, c):
        assert m.scale(c) + m.scale(1 - c) == m


# ---------------------------------------------------------------------------
# The scalar contract: an int exactly for integer values, never a float
# ---------------------------------------------------------------------------

scalars = st.one_of(st.integers(min_value=-3, max_value=3), small_fractions)


def _exact(values) -> bool:
    return all(type(c) is int or type(c) is Fraction for c in values)


def _canonical(values) -> bool:
    """int for every integer value, a non-integer Fraction otherwise."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in values
    )


def _entries(m: Matrix):
    return [c for row in m.rows for c in row]


def _as_fractions(m: Matrix):
    return [[Fraction(c) for c in row] for row in m.rows]


def _ref_reduce(rows, main_cols):
    """Gauss-Jordan over Fractions, pivoting in the first main_cols columns;
    returns the reduced rows and the pivot columns."""
    rows = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for c in range(main_cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _ref_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _ref_solve(a, b):
    """The solution with every free variable zero, or None."""
    n = len(a[0])
    rows, pivots = _ref_reduce([row + [c] for row, c in zip(a, b)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        x[c] = rows[k][n]
    return x


def _ref_invert(a):
    n = len(a)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows, pivots = _ref_reduce([row + e for row, e in zip(a, eye)], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def _ref_nullspace(a):
    """The kernel vector that is 1 on the first free column and 0 on the
    other free columns, or None."""
    n = len(a[0])
    rows, pivots = _ref_reduce(a, n)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for k, c in enumerate(pivots):
        x[c] = -rows[k][free]
    return x


class TestScalarContract:
    @given(
        st.one_of(
            st.integers(min_value=-(10**30), max_value=10**30),
            st.fractions(max_denominator=10**6),
            st.booleans(),
            st.fractions(max_denominator=50).map(format_rational),
        )
    )
    def test_rational_is_an_int_exactly_for_integers(self, value):
        q = rational(value)
        want = Fraction(value)
        assert q == want
        assert type(q) is (int if want.denominator == 1 else Fraction)

    def test_rational_examples(self):
        assert type(rational("3")) is int and rational("3") == 3
        assert type(parse_rational("-4")) is int
        assert type(rational(Fraction(6, 3))) is int
        assert rational(True) == 1 and type(rational(True)) is int
        assert type(rational(False)) is int
        assert rational("1/2") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [1.0, 0.5, float("nan"), None, 1j])
    def test_rational_refuses_floats_and_others(self, bad):
        with pytest.raises(TypeError):
            rational(bad)

    @given(vectors(4, scalars), vectors(4, scalars), scalars)
    def test_vector_arithmetic(self, v, w, c):
        assert _canonical(v.coords) and _canonical(w.coords)
        fv, fw, fc = [Fraction(x) for x in v], [Fraction(x) for x in w], Fraction(c)
        for got, want in (
            (v + w, [a + b for a, b in zip(fv, fw)]),
            (v - w, [a - b for a, b in zip(fv, fw)]),
            (-v, [-a for a in fv]),
            (v.scale(c), [fc * a for a in fv]),
        ):
            assert list(got.coords) == want
            assert _exact(got.coords)

    @given(matrices(2, 3, scalars), matrices(2, 3, scalars), scalars)
    def test_matrix_arithmetic(self, a, b, c):
        fa, fb, fc = _as_fractions(a), _as_fractions(b), Fraction(c)
        for got, want in (
            (a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(fa, fb)]),
            (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(fa, fb)]),
            (a.scale(c), [[fc * x for x in row] for row in fa]),
        ):
            assert [list(row) for row in got.rows] == want
            assert _exact(_entries(got))

    @given(matrices(2, 3, scalars), matrices(3, 2, scalars), vectors(3, scalars))
    def test_mat_mul_and_apply(self, a, b, v):
        fa, fb, fv = _as_fractions(a), _as_fractions(b), [Fraction(x) for x in v]
        product = mat_mul(a, b)
        assert [list(row) for row in product.rows] == [
            [sum((fa[i][k] * fb[k][j] for k in range(3)), Fraction(0)) for j in range(2)]
            for i in range(2)
        ]
        assert _exact(_entries(product))
        image = a.apply(v)
        assert list(image.coords) == [
            sum((x * y for x, y in zip(row, fv)), Fraction(0)) for row in fa
        ]
        assert _exact(image.coords)

    @given(matrices(3, elements=scalars))
    def test_det(self, a):
        d = det(a)
        assert d == _ref_det(_as_fractions(a))
        assert _canonical([d])

    @settings(max_examples=60)
    @given(matrices(3, elements=scalars), vectors(3, scalars))
    def test_solve(self, a, b):
        want = _ref_solve(_as_fractions(a), [Fraction(c) for c in b])
        if want is None:
            with pytest.raises(NoSolution):
                solve(a, b)
            return
        x = solve(a, b)
        assert list(x.coords) == want
        assert _canonical(x.coords)

    @settings(max_examples=60)
    @given(matrices(3, elements=scalars))
    def test_invert(self, a):
        want = _ref_invert(_as_fractions(a))
        if want is None:
            with pytest.raises(NotInvertible):
                invert(a)
            return
        inv = invert(a)
        assert [list(row) for row in inv.rows] == want
        assert _canonical(_entries(inv))

    @settings(max_examples=60)
    @given(matrices(3, 4, scalars))
    def test_nullspace_vector(self, a):
        v = nullspace_vector(a)
        want = _ref_nullspace(_as_fractions(a))
        assert (v is None) == (want is None)
        if v is not None:
            assert list(v.coords) == want
            assert _canonical(v.coords)

    @given(matrices(2, 3, scalars), matrices(1, 2, scalars))
    def test_trusted_constructors_build_canonical_values(self, a, b):
        for m in (Matrix.identity(3), Matrix.zeros(2, 3), block_diag(a, b)):
            assert _canonical(_entries(m))
            assert m == Matrix(m.rows)
        assert block_diag(a, b) == Matrix(
            [list(row) + [0, 0] for row in a.rows] + [[0, 0, 0] + list(row) for row in b.rows]
        )
        cols = [a.column(j) for j in range(a.ncols)]
        assert all(_canonical(col.coords) for col in cols)
        assert Matrix.from_columns(cols) == a
        basis = Vector.basis(4, 2)
        assert basis == Vector([0, 0, 1, 0]) and _canonical(basis.coords)

    def test_from_columns_of_unequal_dims(self):
        with pytest.raises(ShapeError):
            Matrix.from_columns([Vector([1, 2]), Vector([1])])

# ---------------------------------------------------------------------------
# Reporting predicates, pinned to one digest
# ---------------------------------------------------------------------------

GRID3 = (-1, 0, 1)
FRACTIONAL_GRID = (Fraction(-1, 2), Fraction(0), Fraction(1, 3))


def _full_pairs(grid):
    return [
        (Matrix([c[0:2], c[2:4]]), Matrix([c[4:6], c[6:8]]))
        for c in itertools.product(grid, repeat=8)
    ]


def _pair_records(g, rho, pairs):
    """Every verdict and witness the pair and deformation checks report."""
    out = []
    for n_op, s_op in pairs:
        direct = is_nijenhuis_pair(g, rho, n_op, s_op)
        row = [
            direct.to_json(),
            is_dual_nijenhuis_pair(g, rho, n_op, s_op).to_json(),
            nijenhuis_pair_semidirect_test(g, rho, n_op, s_op).to_json(),
        ]
        if direct.ok:
            d = trivial_deformation_from_pair(g, rho, n_op, s_op)
            row.append(check_deformation_pair(g, rho, d).to_json())
            row.append(check_trivial_equivalence(g, rho, n_op, s_op, d).to_json())
        out.append(row)
    return out


class TestVerdictDigest:
    """The reports of the sweep predicates on a fixed sample of candidates,
    hashed: a change in scalar representation must not move a verdict, a
    witness or a defect. The digest was taken with all-Fraction scalars."""

    DIGEST = "07519fc736405f88702f1f0787678719bc326fd7729b10fb103e4d5ef143039d"

    def test_sweep_sample_reports_unchanged(self):
        aff1, heis3 = get_entry("aff1"), get_entry("heis3")
        families = (
            # every 7th candidate of the acceptance sweep families
            (aff1.algebra, aff1.representations["adjoint"], _full_pairs(GRID3)[::7]),
            (
                heis3.algebra,
                heis3.representations["adjoint"],
                [
                    (Matrix.diagonal(c[:3]), Matrix.diagonal(c[3:]))
                    for c in itertools.product(GRID3, repeat=6)
                ][::7],
            ),
            # fractional structure constants and operators
            (MIXED_AFF1, adjoint_rep(MIXED_AFF1), _full_pairs(FRACTIONAL_GRID)[::49]),
        )
        digest = hashlib.sha256()
        for g, rho, pairs in families:
            digest.update(json.dumps(_pair_records(g, rho, pairs)).encode())
        assert digest.hexdigest() == self.DIGEST
