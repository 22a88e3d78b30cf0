"""Differential tests of the Nijenhuis and Kupershmidt-family witness loops.

The torsion and Kupershmidt reports run the integer loops of lieop.kernel.
The torsion loop reads the structure constants as sparse triples; it is
compared with its reference on algebras of dimension 2 to 6, among them
abelian_3 (where every pair skips the bracket term) and semidirect
products that the pair test builds. The compatibility and NT-condition
reports read the Kupershmidt report three times, as the polarization
K(T1 + T2) - K(T1) - K(T2); the NT condition is N applied to the
polarization at (T, NT). The sub-adjacent
bracket computes each action rho(T e_i) once per call. The references
here are per-tuple loops over the public nijenhuis_defect and
kupershmidt_defect, which stay the definitions, evaluated at every basis
pair. Reports must agree in to_json().

The (N, S) pair reports run the integer pair loop of lieop.kernel, which
reads each identity off the commutators C_k = [rho(e_k), S]. Their
references below expand the four-term identities, as the predicates'
docstrings state them, term by term; they are the check of C_k itself,
since the search kernel reads the same C_k.

The KN bracket match runs lieop.kernel's bracket-match loop, in the search
and in the KN conditions alike. Its reference is the Matrix definition:
the sub-adjacent bracket of NT against the S-deformation of T's.

hierarchy() decides its claims with kernel loops alone, and reads the
morphism identity off the compatibility loop: it decides that identity
only where its premises hold, T_k and T_(k+i) Kupershmidt and the bracket
match at k + i, and reports the failed premise elsewhere. Its reference is
the Matrix route: per-tuple Kupershmidt checks, sub-adjacent brackets,
the S^p-deformed brackets and the N^i-deformed algebras. The tests call
the bracket-match loop directly too, at every k, and check the identity
the shortcut rests on, the morphism defect being minus the polarization,
with the references alone.

The two deformation checks, and the trivial deformation's constructors
deformed_algebra and rho_hat, run lieop.kernel's loops too. Their
references evaluate the eight conditions per basis tuple in Vector and
Matrix arithmetic, through Bracket.__call__ and Representation.act. A
property over random (omega, varpi, N, S), whose scales differ from g's
and rho's, compares the reports; one near-miss per condition pins its
label and indices, cocycle and omega_jacobi on heis3.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieop import (
    Bivector,
    Bracket,
    DeformationPair,
    Matrix,
    Representation,
    ShapeError,
    StructureCheckError,
    Vector,
    check_deformation_pair,
    check_jacobi,
    check_nt_kupershmidt_condition,
    check_trivial_equivalence,
    commutator,
    deformed_algebra,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_perfect_pair,
    is_r_matrix,
    is_rota_baxter,
    kupershmidt_defect,
    mat_mul,
    nijenhuis_defect,
    rho_hat,
    rho_tilde,
    semidirect_product,
    sub_adjacent_bracket,
)
from lieop.catalog import get_entry, grid_search
from lieop.kernel import (
    bracket_match_defects,
    deformed_sub_adjacent,
    integer_image,
    shared_images,
    sub_adjacent_ads,
)
from lieop.operators import _kupershmidt_report
from lieop.report import Witness, report_from_witnesses
from lieop.reps import adjoint_rep, coadjoint_rep
from lieop.structures import (
    _compatibility_report,
    _hierarchy_failures,
    _kn_conditions,
    _polarization,
    compatible_via_combos,
)

from conftest import GRID, MIXED_AFF1, THIRD_SL2, matrices, small_fractions, vectors

REPS = ("adjoint", "coadjoint")
SL2 = get_entry("sl2").algebra
FRACTIONAL_GRID = (Fraction(-1, 2), Fraction(0), Fraction(1, 3))


def grid_matrices(n, m, grid=GRID):
    for combo in itertools.product(grid, repeat=n * m):
        yield Matrix([combo[r * m : (r + 1) * m] for r in range(n)])


def _basis_pairs(m):
    for i in range(m):
        for j in range(i + 1, m):
            yield i, j, Vector.basis(m, i), Vector.basis(m, j)


def reference_nijenhuis(g, n_op):
    witnesses = []
    for i, j, x, y in _basis_pairs(g.dim):
        d = nijenhuis_defect(g, n_op, x, y)
        if not d.is_zero():
            witnesses.append(Witness("torsion", (i, j), d))
    return report_from_witnesses(witnesses, checked="nijenhuis")


def reference_kupershmidt(g, rho, t_op, label="kupershmidt", checked="kupershmidt"):
    witnesses = []
    for i, j, u, v in _basis_pairs(rho.module_dim):
        d = kupershmidt_defect(g, rho, t_op, u, v)
        if not d.is_zero():
            witnesses.append(Witness(label, (i, j), d))
    return report_from_witnesses(witnesses, checked=checked)


def _polarized(g, rho, t1, t2, u, v):
    return (
        kupershmidt_defect(g, rho, t1 + t2, u, v)
        - kupershmidt_defect(g, rho, t1, u, v)
        - kupershmidt_defect(g, rho, t2, u, v)
    )


def reference_compatibility(g, rho, t1, t2):
    witnesses = []
    for i, j, u, v in _basis_pairs(rho.module_dim):
        d = _polarized(g, rho, t1, t2, u, v)
        if not d.is_zero():
            witnesses.append(Witness("compatibility", (i, j), d))
    return report_from_witnesses(witnesses, checked="compatible_kupershmidt")


def reference_nt_condition(g, rho, t_op, n_op):
    nt = mat_mul(n_op, t_op)
    witnesses = []
    for i, j, u, v in _basis_pairs(rho.module_dim):
        d = n_op @ _polarized(g, rho, t_op, nt, u, v)
        if not d.is_zero():
            witnesses.append(Witness("nt_condition", (i, j), d))
    return report_from_witnesses(witnesses, checked="nt_kupershmidt_condition")


def reference_sub_adjacent(rho, t_op):
    m = rho.module_dim

    def entry(i, j):
        u, v = Vector.basis(m, i), Vector.basis(m, j)
        return rho.act(t_op @ u) @ v - (rho.act(t_op @ v) @ u)

    return Bracket.from_function(m, entry)


def _four_term_report(g, rho, n_op, s_op, label, checked, defect_at):
    witnesses = list(is_nijenhuis(g, n_op).witnesses)
    for i, rx in enumerate(rho.matrices):
        defect = defect_at(rho.act(n_op.column(i)), rx, mat_mul(s_op, s_op))
        if not defect.is_zero():
            witnesses.append(Witness(label, (i,), defect))
    return report_from_witnesses(witnesses, checked=checked)


def reference_pair(g, rho, n_op, s_op):
    """rho(Nx)S - S rho(Nx) - S rho(x) S + S^2 rho(x)."""
    return _four_term_report(
        g, rho, n_op, s_op, "pair", "nijenhuis_pair",
        lambda rnx, rx, s2: mat_mul(rnx, s_op) - mat_mul(s_op, rnx)
        - mat_mul(s_op, mat_mul(rx, s_op)) + mat_mul(s2, rx),
    )


def reference_dual_pair(g, rho, n_op, s_op):
    """rho(Nx)S - S rho(Nx) - rho(x) S^2 + S rho(x) S."""
    return _four_term_report(
        g, rho, n_op, s_op, "dual_pair", "dual_nijenhuis_pair",
        lambda rnx, rx, s2: mat_mul(rnx, s_op) - mat_mul(s_op, rnx)
        - mat_mul(rx, s2) + mat_mul(s_op, mat_mul(rx, s_op)),
    )


def reference_perfect_pair(g, rho, n_op, s_op):
    """The pair witnesses, then S^2 rho(x) + rho(x) S^2 - 2 S rho(x) S."""
    s2 = mat_mul(s_op, s_op)
    witnesses = list(reference_pair(g, rho, n_op, s_op).witnesses)
    for i, rx in enumerate(rho.matrices):
        defect = (
            mat_mul(s2, rx) + mat_mul(rx, s2) - mat_mul(s_op, mat_mul(rx, s_op)).scale(2)
        )
        if not defect.is_zero():
            witnesses.append(Witness("perfect", (i,), defect))
    return report_from_witnesses(witnesses, checked="perfect_pair")


PAIR_CHECKS = (
    (is_nijenhuis_pair, reference_pair),
    (is_dual_nijenhuis_pair, reference_dual_pair),
    (is_perfect_pair, reference_perfect_pair),
)


def assert_pair_checks_agree(g, rho, n_op, s_op):
    for check, reference in PAIR_CHECKS:
        expected = reference(g, rho, n_op, s_op)
        assert check(g, rho, n_op, s_op).to_json() == expected.to_json()


def assert_compatibility_agrees(g, rho, t1, t2):
    """The hoisted report equals the reference, or both disagree with the
    scalar-combination cross-check, which then raises."""
    expected = reference_compatibility(g, rho, t1, t2)
    if expected.ok != compatible_via_combos(g, rho, t1, t2):
        with pytest.raises(StructureCheckError):
            _compatibility_report(g, rho, t1, t2)
    else:
        assert _compatibility_report(g, rho, t1, t2).to_json() == expected.to_json()


class TestExhaustiveAff1:
    @pytest.mark.parametrize("rep", REPS)
    def test_kupershmidt(self, aff1, rep):
        g, rho = aff1.algebra, aff1.representations[rep]
        for t_op in grid_matrices(2, 2):
            expected = reference_kupershmidt(g, rho, t_op)
            assert is_kupershmidt(g, rho, t_op).to_json() == expected.to_json()

    def test_rota_baxter(self, aff1):
        g, ad = aff1.algebra, aff1.representations["adjoint"]
        for r_op in grid_matrices(2, 2):
            expected = reference_kupershmidt(g, ad, r_op, "rota_baxter", "rota_baxter")
            assert is_rota_baxter(g, r_op).to_json() == expected.to_json()

    @pytest.mark.parametrize("name", ("aff1", "sl2"))
    def test_r_matrix(self, name):
        e = get_entry(name)
        g, coad = e.algebra, e.representations["coadjoint"]
        n = g.dim
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in itertools.product(GRID, repeat=len(upper)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), c in zip(upper, values):
                rows[i][j], rows[j][i] = c, -c
            pi = Bivector(Matrix(rows))
            expected = reference_kupershmidt(g, coad, pi.matrix, "yang_baxter", "r_matrix")
            assert is_r_matrix(g, pi).to_json() == expected.to_json()

    @pytest.mark.parametrize("rep", REPS)
    def test_compatibility(self, aff1, rep):
        g, rho = aff1.algebra, aff1.representations[rep]
        ops = list(grid_matrices(2, 2))[::3]
        for t1 in ops:
            for t2 in ops:
                assert_compatibility_agrees(g, rho, t1, t2)


    @pytest.mark.parametrize("rep", REPS)
    def test_pair_loops(self, aff1, rep):
        g, rho = aff1.algebra, aff1.representations[rep]
        ops = list(grid_matrices(2, 2))[::3]
        for n_op in ops:
            for s_op in ops:
                assert_pair_checks_agree(g, rho, n_op, s_op)


class TestMixedAff1:
    @pytest.mark.parametrize(
        "g, make_rep, grid",
        (
            pytest.param(MIXED_AFF1, adjoint_rep, GRID, id="adjoint_rep"),
            pytest.param(MIXED_AFF1, coadjoint_rep, GRID, id="coadjoint_rep"),
            pytest.param(SL2, adjoint_rep, (0, 1), id="sl2-adjoint_rep"),
            pytest.param(SL2, coadjoint_rep, (0, 1), id="sl2-coadjoint_rep"),
        ),
    )
    def test_nt_condition(self, g, make_rep, grid):
        rho = make_rep(g)
        ts = [t for t in grid_matrices(g.dim, g.dim, grid) if is_kupershmidt(g, rho, t).ok]
        ns = [n for n in grid_matrices(g.dim, g.dim, grid) if is_nijenhuis(g, n).ok]
        assert ts and ns
        most = 0
        for t_op in ts:
            for n_op in ns:
                expected = reference_nt_condition(g, rho, t_op, n_op)
                actual = check_nt_kupershmidt_condition(g, rho, t_op, n_op)
                assert actual.to_json() == expected.to_json()
                most = max(most, len(actual.witnesses))
        # Some report fails at every basis pair: on sl2 that is three
        # witnesses, so their order is compared too.
        assert most == g.dim * (g.dim - 1) // 2

    @pytest.mark.parametrize("make_rep", (adjoint_rep, coadjoint_rep))
    def test_sub_adjacent_bracket(self, make_rep):
        g = MIXED_AFF1
        rho = make_rep(g)
        for t_op in grid_matrices(2, 2):
            actual = sub_adjacent_bracket(g, rho, t_op)
            expected = reference_sub_adjacent(rho, t_op)
            assert actual == expected
            assert actual.to_json() == expected.to_json()


def _bracket_and_action(data):
    """A catalog entry's algebra and representation; MIXED_AFF1's, whose
    scale is 6; or a deformed catalog bracket with the entry's own action,
    whose scale differs from the bracket's. The last is in general no
    representation of its bracket, which is then not rho.algebra."""
    name = data.draw(st.sampled_from(("aff1", "heis3", "sl2", "mixed_aff1", "deformed")))
    rep = data.draw(st.sampled_from(REPS))
    if name == "mixed_aff1":
        return MIXED_AFF1, (adjoint_rep if rep == "adjoint" else coadjoint_rep)(MIXED_AFF1)
    if name != "deformed":
        entry = get_entry(name)
        return entry.algebra, entry.representations[rep]
    entry = get_entry(data.draw(st.sampled_from(("aff1", "heis3", "sl2"))))
    g = deformed_algebra(entry.algebra, data.draw(matrices(entry.algebra.dim)))
    return g, entry.representations[rep]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_operators_match_the_per_tuple_loops(data):
    """On a deformed bracket, of which rho is in general no representation,
    the loops behind the public predicates are compared instead: the
    Kupershmidt report and the polarization."""
    g, rho = _bracket_and_action(data)
    t1 = data.draw(matrices(g.dim, rho.module_dim))
    t2 = data.draw(matrices(g.dim, rho.module_dim))
    expected = reference_kupershmidt(g, rho, t1)
    assert sub_adjacent_bracket(g, rho, t1) == reference_sub_adjacent(rho, t1)
    if g is rho.algebra:
        assert is_kupershmidt(g, rho, t1).to_json() == expected.to_json()
        assert_compatibility_agrees(g, rho, t1, t2)
        return
    report = _kupershmidt_report(g, rho, t1, "kupershmidt", "kupershmidt")
    assert report.to_json() == expected.to_json()
    polarization = report_from_witnesses(
        (Witness("compatibility", ij, c) for ij, c in _polarization(g, rho, t1, t2) if not c.is_zero()),
        checked="compatible_kupershmidt",
    )
    assert polarization.to_json() == reference_compatibility(g, rho, t1, t2).to_json()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_pairs_match_the_four_term_identities(data):
    """Over the inputs of _bracket_and_action (the pair identities read the
    action alone, so none is refused); half the time S is scaled by 1/5,
    a denominator N's entries never have, so that the scale b N and S
    share is neither one's own."""
    g, rho = _bracket_and_action(data)
    n_op = data.draw(matrices(g.dim))
    apart = Fraction(1, data.draw(st.sampled_from((1, 5))))
    s_op = data.draw(matrices(rho.module_dim)).scale(apart)
    assert_pair_checks_agree(g, rho, n_op, s_op)


def reference_bracket_match(g, rho, t_op, s_op, n_op):
    """[e_i,e_j]^{NT} - ([e_i,e_j]^T)_S at every module basis pair i < j."""
    via_nt = sub_adjacent_bracket(g, rho, mat_mul(n_op, t_op))
    deformed = deformed_algebra(sub_adjacent_bracket(g, rho, t_op), s_op)
    return {
        (i, j): via_nt.basis_bracket(i, j) - deformed.basis_bracket(i, j)
        for i, j, _, _ in _basis_pairs(rho.module_dim)
    }


def kernel_bracket_match(rho, t_op, s_op, n_op):
    """The loop's defects at every module basis pair, divided by a*b^2."""
    n, m = n_op.nrows, rho.module_dim
    flat, b = integer_image([c for op in (t_op, s_op, n_op) for row in op.rows for c in row])
    t_flat, s_flat, n_flat = flat[: n * m], flat[n * m : n * m + m * m], flat[n * m + m * m :]
    nt_flat = [
        sum(n_flat[r * n + k] * t_flat[k * m + c] for k in range(n))
        for r in range(n)
        for c in range(m)
    ]
    image = rho.integer_image
    deformed = deformed_sub_adjacent(sub_adjacent_ads(image, t_flat), s_flat)
    defects = list(bracket_match_defects(image, deformed, nt_flat))
    assert [ij for ij, _ in defects] == sorted(ij for ij, _ in defects)
    scale = image.scale * b * b
    found = {ij: Vector(Fraction(c, scale) for c in defect) for ij, defect in defects}
    return {(i, j): found.get((i, j), Vector.zero(m)) for i, j, _, _ in _basis_pairs(m)}, set(found)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_triples_match_the_bracket_match_definition(data):
    """Over the inputs of _bracket_and_action; half the time S is scaled by
    1/5, a denominator T's and N's entries never have. The KN conditions
    report the same defects as bracket_match witnesses."""
    g, rho = _bracket_and_action(data)
    n, m = g.dim, rho.module_dim
    t_op = data.draw(matrices(n, m))
    n_op = data.draw(matrices(n))
    apart = Fraction(1, data.draw(st.sampled_from((1, 5))))
    s_op = data.draw(matrices(m)).scale(apart)
    expected = reference_bracket_match(g, rho, t_op, s_op, n_op)
    actual, yielded = kernel_bracket_match(rho, t_op, s_op, n_op)
    assert actual == expected
    assert yielded == {ij for ij, d in expected.items() if not d.is_zero()}
    witnesses = _kn_conditions(g, rho, t_op, s_op, n_op, "kn").witnesses
    assert [w.to_json() for w in witnesses if w.condition == "bracket_match"] == [
        Witness("bracket_match", ij, d).to_json()
        for ij, d in expected.items()
        if not d.is_zero()
    ]


def powers(op, k_max):
    """op^0 .. op^k_max."""
    return list(itertools.accumulate([op] * k_max, mat_mul, initial=Matrix.identity(op.nrows)))


def reference_hierarchy_failures(g, rho, ops, s_pows, n_pows):
    """The claims of hierarchy() that fail, as its error messages and in its
    order, decided on Matrix objects: the per-tuple Kupershmidt reference
    for each T_k and each pairwise sum, the sub-adjacent bracket of T_k
    against the S^k-deformation of T's, and the morphism identity
    T_k[u,v]_{S^(k+i)} = [T_k u, T_k v]_{N^i} at each module basis pair,
    read off the S^p-deformed sub-adjacent brackets and the N^i-deformed
    algebras. The identity at (k, i) is checked only where its premises
    hold: T_k and T_(k+i) Kupershmidt and the bracket match at k + i."""
    t_op, count, m = ops[0], len(ops), rho.module_dim
    kupershmidt = [reference_kupershmidt(g, rho, op).ok for op in ops]
    for k, op in enumerate(ops):
        if op != mat_mul(t_op, s_pows[k]):
            yield f"N^{k} T != T S^{k}"
        if not kupershmidt[k]:
            yield f"T_{k} is not a Kupershmidt operator"
    for a, b in itertools.combinations(range(count), 2):
        if not reference_kupershmidt(g, rho, ops[a] + ops[b]).ok:
            yield f"T_{a} and T_{b} are not compatible"
    base = reference_sub_adjacent(rho, t_op)
    deformed = [deformed_algebra(base, s_pow) for s_pow in s_pows]
    n_deformed = [deformed_algebra(g, n_pow) for n_pow in n_pows]
    matched = [reference_sub_adjacent(rho, op) == deformed[k] for k, op in enumerate(ops)]
    for k, op in enumerate(ops):
        if not matched[k]:
            yield f"bracket of T_{k} differs from the S^{k}-deformed bracket"
        cols = [op.column(a) for a in range(m)]
        for i in range(count - k):
            if not (kupershmidt[k] and kupershmidt[k + i] and matched[k + i]):
                continue
            for a, b, _, _ in _basis_pairs(m):
                if op @ deformed[k + i].basis_bracket(a, b) != n_deformed[i](cols[a], cols[b]):
                    yield f"morphism identity fails at k={k}, i={i}, pair ({a},{b})"


def reference_morphism(g, rho, t_op, tk, s_pow, n_pow):
    """T_k[e_a,e_b]_{S^p} - [T_k e_a, T_k e_b]_{N^i} at every module basis pair."""
    deformed = deformed_algebra(reference_sub_adjacent(rho, t_op), s_pow)
    n_deformed = deformed_algebra(g, n_pow)
    return {
        (a, b): tk @ deformed.basis_bracket(a, b) - n_deformed(tk.column(a), tk.column(b))
        for a, b, _, _ in _basis_pairs(rho.module_dim)
    }


def hierarchy_images(rho, ops, s_pows):
    """What _hierarchy_failures hands its bracket-match loop: the images of
    the T_k under the scale b they share with the S^p, the S^p-deformed
    sub-adjacent brackets of T, and b."""
    count, image = len(ops), rho.integer_image
    flats, b = shared_images(ops + s_pows)
    ads = sub_adjacent_ads(image, flats[0])
    deformed = [list(deformed_sub_adjacent(ads, s_flat)) for s_flat in flats[count:]]
    return flats[:count], deformed, b


def in_order(defects):
    defects = list(defects)
    assert [ij for ij, _ in defects] == sorted(ij for ij, _ in defects)
    return defects


def divided(defects, scale, m):
    """A loop's integer defects divided by its scale, at every module basis pair."""
    found = {ij: Vector(Fraction(c, scale) for c in defect) for ij, defect in defects}
    return {(i, j): found.get((i, j), Vector.zero(m)) for i, j, _, _ in _basis_pairs(m)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_triples_match_the_hierarchy_references(data):
    """Over the inputs of _bracket_and_action and random (T, S, N), whose
    entries are fractional half the time, at k_max <= 3 (so k, i <= 3):
    the claims that the hierarchy's kernel loops find failing are, in
    order, those the Matrix references find failing; and the bracket-match
    loop at every k, run on the hierarchy's images, yields the reference's
    defects divided by a*b^2. Random triples mostly fail; the catalog's
    pass (test below)."""
    g, rho = _bracket_and_action(data)
    n, m = g.dim, rho.module_dim
    elements = small_fractions if data.draw(st.booleans()) else st.integers(-2, 2)
    t_op, s_op, n_op = (data.draw(matrices(r, c, elements)) for r, c in ((n, m), (m, m), (n, n)))
    k_max = data.draw(st.integers(0, 3))
    s_pows, n_pows = powers(s_op, k_max), powers(n_op, k_max)
    ops = [mat_mul(n_pow, t_op) for n_pow in n_pows]
    expected = list(reference_hierarchy_failures(g, rho, ops, s_pows, n_pows))
    assert list(_hierarchy_failures(g, rho, ops, s_pows)) == expected
    t_flats, deformed, b = hierarchy_images(rho, ops, s_pows)
    image = rho.integer_image
    for k, t_flat in enumerate(t_flats):
        defects = in_order(bracket_match_defects(image, deformed[k], [x * b for x in t_flat]))
        expected_match = reference_bracket_match(g, rho, t_op, s_pows[k], n_pows[k])
        assert divided(defects, image.scale * b**2, m) == expected_match


@functools.cache
def searched_kupershmidt(name, rep):
    entry = get_entry(name)
    g, rho = entry.algebra, entry.representations[rep]
    return g, rho, grid_search(g, rho, "kupershmidt", (-1, 0, 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_searched_operators_match_the_hierarchy_references(data):
    """T drawn from a Kupershmidt search, N at random over {-1, 0, 1} and S
    too, or zero (as in the grid test below), 1 <= k_max <= 3. Random T
    almost never pass the Kupershmidt check, so the test above hardly
    reaches the (k, i) whose morphism identity _hierarchy_failures reads
    off the compatibility loop; here T_0 always passes and some T_k do
    too. At every (k, c = k + i) whose premises hold, the reference's
    morphism defect is minus the per-tuple polarization of T_k and T_c,
    the identity lieop.kernel derives and the shortcut rests on, and zero
    at k = c. Few draws make that defect nonzero; the grid test below pins
    36 triples that do."""
    name, rep = data.draw(st.sampled_from((("aff1", "adjoint"), ("aff1", "coadjoint"), ("sl2", "adjoint"))))
    g, rho, found = searched_kupershmidt(name, rep)
    n, m = g.dim, rho.module_dim
    t_op = data.draw(st.sampled_from(found))
    elements = st.integers(-1, 1)
    s_op = data.draw(st.one_of(st.just(Matrix.zeros(m, m)), matrices(m, m, elements)))
    n_op = data.draw(matrices(n, n, elements))
    k_max = data.draw(st.integers(1, 3))
    s_pows, n_pows = powers(s_op, k_max), powers(n_op, k_max)
    ops = [mat_mul(n_pow, t_op) for n_pow in n_pows]
    expected = list(reference_hierarchy_failures(g, rho, ops, s_pows, n_pows))
    assert list(_hierarchy_failures(g, rho, ops, s_pows)) == expected
    kupershmidt = [reference_kupershmidt(g, rho, op).ok for op in ops]
    matched = [
        all(d.is_zero() for d in reference_bracket_match(g, rho, t_op, s_pows[c], n_pows[c]).values())
        for c in range(k_max + 1)
    ]
    for k, c in itertools.combinations_with_replacement(range(k_max + 1), 2):
        if not (kupershmidt[k] and kupershmidt[c] and matched[c]):
            continue
        morphism = reference_morphism(g, rho, t_op, ops[k], s_pows[c], n_pows[c - k])
        assert morphism == {
            (a, b): -_polarized(g, rho, ops[k], ops[c], u, v) for a, b, u, v in _basis_pairs(m)
        }
        if k == c:
            assert all(d.is_zero() for d in morphism.values())


NEAR_MISSES = (
    # S = 0, so N^k T != T S^k for k > 0; T_0, T_1 and T_2 = T_1 are
    # Kupershmidt, and the bracket match holds at every k (T_1 induces the
    # zero bracket, which is the 0-deformation of any). But T_0 is
    # compatible with neither T_1 nor T_2, so the morphism identity at
    # (0, 1) and (0, 2), read off the compatibility loop, fails at the one
    # module basis pair.
    pytest.param(
        [[0, -1], [1, -1]], [[0, 0], [0, 0]], [[1, 0], [1, 0]], 2,
        [
            "N^1 T != T S^1",
            "N^2 T != T S^2",
            "T_0 and T_1 are not compatible",
            "T_0 and T_2 are not compatible",
            "morphism identity fails at k=0, i=1, pair (0,1)",
            "morphism identity fails at k=0, i=2, pair (0,1)",
        ],
        id="compatibility",
    ),
    # The bracket match holds at k = 1 and T_0 + T_1 is Kupershmidt, but T_1
    # is not, so the morphism identity at (0, 1) and (1, 0) is not decided:
    # the failed premise is the failure reported.
    pytest.param(
        [[0, -1], [1, -1]], [[-1, 0], [-1, 0]], [[-1, -1], [0, 0]], 1,
        ["N^1 T != T S^1", "T_1 is not a Kupershmidt operator"],
        id="t1-not-kupershmidt",
    ),
    # As above, but T_0 + T_1 is not Kupershmidt either: at (0, 1) the
    # failed premise T_1 is reported, not the failing pairs of the sum.
    pytest.param(
        [[0, -1], [1, -1]], [[-1, -1], [-1, 0]], [[0, -1], [0, 0]], 1,
        ["N^1 T != T S^1", "T_1 is not a Kupershmidt operator", "T_0 and T_1 are not compatible"],
        id="t1-and-sum-not-kupershmidt",
    ),
    # Outside the hypothesis: T = Id is not Kupershmidt on aff1's coadjoint
    # action, and neither is T_0 + T_1 = Id, so no morphism identity is
    # decided (T_1 = 0 and the bracket matches hold at k = 0 and 1).
    pytest.param(
        [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], 1,
        ["T_0 is not a Kupershmidt operator", "T_0 and T_1 are not compatible"],
        id="t0-not-kupershmidt",
    ),
)


@pytest.mark.parametrize("t_rows, s_rows, n_rows, k_max, expected", NEAR_MISSES)
def test_near_misses_match_the_hierarchy_references(t_rows, s_rows, n_rows, k_max, expected):
    """aff1 coadjoint."""
    entry = get_entry("aff1")
    g, rho = entry.algebra, entry.representations["coadjoint"]
    t_op = Matrix(t_rows)
    s_pows, n_pows = powers(Matrix(s_rows), k_max), powers(Matrix(n_rows), k_max)
    ops = [mat_mul(n_pow, t_op) for n_pow in n_pows]
    assert list(reference_hierarchy_failures(g, rho, ops, s_pows, n_pows)) == expected
    assert list(_hierarchy_failures(g, rho, ops, s_pows)) == expected


def test_zero_s_grid_matches_the_hierarchy_references():
    """aff1 coadjoint, S = 0, k_max 2: every Kupershmidt T over {-1, 0, 1}
    against every N over it. With S = 0 the bracket match at k > 0 asks
    that T_k induce the zero bracket, which some T_k do; 36 of the 1,701
    triples then fail the morphism identity at an (k, i) whose premises
    hold, which _hierarchy_failures reads off the compatibility loop."""
    g, rho, found = searched_kupershmidt("aff1", "coadjoint")
    s_pows = powers(Matrix.zeros(2, 2), 2)
    telling = 0
    for t_op in found:
        for n_op in grid_matrices(2, 2):
            n_pows = powers(n_op, 2)
            ops = [mat_mul(n_pow, t_op) for n_pow in n_pows]
            expected = list(reference_hierarchy_failures(g, rho, ops, s_pows, n_pows))
            assert list(_hierarchy_failures(g, rho, ops, s_pows)) == expected
            telling += any(m.startswith("morphism identity fails") for m in expected)
    assert (len(found), telling) == (21, 36)


@pytest.mark.parametrize(
    "name, bundle",
    (("aff1", "kn_diag"), ("heis3", "kn_diag"), ("abelian_2", "kn_invertible"), ("aff1", "kdn_coadjoint")),
)
def test_catalog_triples_pass_the_hierarchy_references(name, bundle):
    entry = get_entry(name)
    op = next(o for o in entry.operators if o.name == bundle)
    g, rho = entry.algebra, entry.representations[op.rep]
    t_op, s_op, n_op = (op.matrices[key] for key in "TSN")
    s_pows, n_pows = powers(s_op, 3), powers(n_op, 3)
    ops = [mat_mul(n_pow, t_op) for n_pow in n_pows]
    assert list(reference_hierarchy_failures(g, rho, ops, s_pows, n_pows)) == []
    assert list(_hierarchy_failures(g, rho, ops, s_pows)) == []


_aff1 = get_entry("aff1")
AFF1_AD = semidirect_product(_aff1.algebra, _aff1.representations["adjoint"])
# An operator with fractional entries that is not Nijenhuis: it deforms
# aff1 x ad into a bracket with scale 6 that fails Jacobi. No such
# operator turned up on the 3-dimensional catalog algebras.
_NOT_NIJENHUIS = Matrix(
    [[Fraction(1, 2), 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, Fraction(-1, 3)]]
)
_heis3, _sl2 = get_entry("heis3"), get_entry("sl2")
NIJENHUIS_ALGEBRAS = {
    "mixed_aff1": MIXED_AFF1,
    "third_sl2": THIRD_SL2,
    "deformed_aff1_ad": deformed_algebra(AFF1_AD, _NOT_NIJENHUIS),
    "aff1_ad": AFF1_AD,
    # The 6-dimensional semidirect products that the pair test builds.
    "heis3_ad": semidirect_product(_heis3.algebra, _heis3.representations["adjoint"]),
    "sl2_coad": semidirect_product(_sl2.algebra, _sl2.representations["coadjoint"]),
    # Every bracket is zero, so the loop skips every N[e_i, e_j].
    "abelian_3": get_entry("abelian_3").algebra,
}


def torsion_candidates(n, grid):
    """Every n x n operator over the grid when n = 2; above that, every
    diagonal one and 100 drawn with a fixed seed."""
    if n == 2:
        yield from grid_matrices(2, 2, grid)
        return
    for diag in itertools.product(grid, repeat=n):
        yield Matrix.diagonal(diag)
    rng = random.Random(f"torsion/{n}")
    for _ in range(100):
        entries = rng.choices(grid, k=n * n)
        yield Matrix([entries[r * n : (r + 1) * n] for r in range(n)])


class TestNijenhuisLoop:
    def test_deformed_bracket_fails_jacobi(self):
        assert not check_jacobi(NIJENHUIS_ALGEBRAS["deformed_aff1_ad"]).ok

    @pytest.mark.parametrize("grid", (GRID, FRACTIONAL_GRID), ids=("int", "frac"))
    @pytest.mark.parametrize("name", sorted(NIJENHUIS_ALGEBRAS))
    def test_grid_operators(self, name, grid):
        g = NIJENHUIS_ALGEBRAS[name]
        verdicts = set()
        for n_op in torsion_candidates(g.dim, grid):
            expected = reference_nijenhuis(g, n_op)
            assert is_nijenhuis(g, n_op).to_json() == expected.to_json()
            verdicts.add(expected.ok)
        # By Cayley-Hamilton, every operator on a 2-dimensional algebra is
        # Nijenhuis; on an abelian one every torsion term vanishes.
        assert verdicts == ({True} if g.dim == 2 or g.is_zero() else {True, False})


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(NIJENHUIS_ALGEBRAS)), data=st.data())
def test_random_operators_match_the_torsion_loop(name, data):
    g = NIJENHUIS_ALGEBRAS[name]
    n_op = data.draw(matrices(g.dim))
    assert is_nijenhuis(g, n_op).to_json() == reference_nijenhuis(g, n_op).to_json()


class TestShapeErrorParity:
    """A bracket whose dimension differs from the representation's algebra:
    every entry point below raises the same ShapeError, the predicates from
    their representation check."""

    MESSAGE = re.escape("bracket dim 3 != algebra dim 2")

    def test_module_dim_one(self, aff1, heis3):
        trivial = Representation(aff1.algebra, [Matrix([[0]])] * 2)
        t_op = Matrix([[1], [0]])
        with pytest.raises(ShapeError, match=self.MESSAGE):
            is_kupershmidt(heis3.algebra, trivial, t_op)
        with pytest.raises(ShapeError, match=self.MESSAGE):
            sub_adjacent_bracket(heis3.algebra, trivial, t_op)
        e = Vector.basis(1, 0)
        with pytest.raises(ShapeError, match=self.MESSAGE):
            kupershmidt_defect(heis3.algebra, trivial, t_op, e, e)

    def test_module_dim_two(self, aff1, heis3):
        rho = aff1.representations["adjoint"]
        t_op = Matrix.identity(2)
        for check in (
            lambda: is_kupershmidt(heis3.algebra, rho, t_op),
            lambda: compatible_via_combos(heis3.algebra, rho, t_op, t_op),
            lambda: sub_adjacent_bracket(heis3.algebra, rho, t_op),
            lambda: kupershmidt_defect(
                heis3.algebra, rho, t_op, Vector.basis(2, 0), Vector.basis(2, 1)
            ),
        ):
            with pytest.raises(ShapeError, match=self.MESSAGE):
                check()


def reference_deformed_algebra(g, n_op):
    """[e_i,e_j]_N = [Ne_i,e_j] + [e_i,Ne_j] - N[e_i,e_j] in Vector arithmetic."""
    dim = g.dim

    def entry(i, j):
        ei, ej = Vector.basis(dim, i), Vector.basis(dim, j)
        return g(n_op @ ei, ej) + g(ei, n_op @ ej) - (n_op @ g(ei, ej))

    return Bracket.from_function(dim, entry)


def reference_rho_hat(rho, n_op, s_op, sign=1):
    """x -> rho(Nx) + sign [rho(x), S] (sign -1 for rho_tilde)."""
    mats = tuple(
        rho.act(n_op.column(i)) + commutator(rho.matrices[i], s_op).scale(sign)
        for i in range(rho.algebra.dim)
    )
    return Representation(rho.algebra, mats, check=False)


def reference_deformation_pair(g, rho, d):
    """The four deformation conditions per basis tuple, on Bracket.__call__
    and Representation.act."""
    n, w, vp = g.dim, d.omega, d.varpi
    witnesses = []
    basis = [Vector.basis(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x, y = basis[i], basis[j]
            for k in range(j + 1, n):
                z = basis[k]
                cocycle = (
                    g(w(x, y), z) + g(w(z, x), y) + g(w(y, z), x)
                    - w(x, g(y, z)) - w(z, g(x, y)) - w(y, g(z, x))
                )
                if not cocycle.is_zero():
                    witnesses.append(Witness("cocycle", (i, j, k), cocycle))
                omega_jacobi = w(w(x, y), z) + w(w(z, x), y) + w(w(y, z), x)
                if not omega_jacobi.is_zero():
                    witnesses.append(Witness("omega_jacobi", (i, j, k), omega_jacobi))
            varpi_rep = vp.act(w(x, y)) - commutator(vp.matrices[i], vp.matrices[j])
            if not varpi_rep.is_zero():
                witnesses.append(Witness("varpi_rep", (i, j), varpi_rep))
            mixed = (
                rho.act(w(x, y))
                + vp.act(g(x, y))
                - commutator(rho.matrices[i], vp.matrices[j])
                - commutator(vp.matrices[i], rho.matrices[j])
            )
            if not mixed.is_zero():
                witnesses.append(Witness("mixed", (i, j), mixed))
    return report_from_witnesses(witnesses, checked="deformation_pair")


def reference_trivial_equivalence(g, rho, n_op, s_op, d):
    """The four trivialization conditions, against the reference deformed
    bracket and in Matrix arithmetic."""
    n = g.dim
    witnesses = []
    expected_omega = reference_deformed_algebra(g, n_op)
    for i, j, x, y in _basis_pairs(n):
        omega_match = d.omega(x, y) - expected_omega(x, y)
        if not omega_match.is_zero():
            witnesses.append(Witness("omega_match", (i, j), omega_match))
        n_morphism = (n_op @ d.omega(x, y)) - g(n_op @ x, n_op @ y)
        if not n_morphism.is_zero():
            witnesses.append(Witness("n_morphism", (i, j), n_morphism))
    for i in range(n):
        rnx = rho.act(n_op.column(i))
        varpi_match = d.varpi.matrices[i] - (rnx + commutator(rho.matrices[i], s_op))
        if not varpi_match.is_zero():
            witnesses.append(Witness("varpi_match", (i,), varpi_match))
        intertwine = mat_mul(rnx, s_op) - mat_mul(s_op, d.varpi.matrices[i])
        if not intertwine.is_zero():
            witnesses.append(Witness("intertwine", (i,), intertwine))
    return report_from_witnesses(witnesses, checked="trivial_equivalence")


def assert_deformation_checks_agree(g, rho, n_op, s_op, d):
    expected = reference_deformation_pair(g, rho, d)
    assert check_deformation_pair(g, rho, d).to_json() == expected.to_json()
    expected = reference_trivial_equivalence(g, rho, n_op, s_op, d)
    assert check_trivial_equivalence(g, rho, n_op, s_op, d).to_json() == expected.to_json()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_deformations_match_the_references(data):
    """Over the inputs of _bracket_and_action. S is scaled by 1/5 half the
    time, so that the scale b N and S share is neither one's own. omega is
    the N-deformed bracket, whose scale is then a multiple of g's, or, half
    the time, random with fractional constants; varpi is rho_hat's, or
    random, so the scales of omega and varpi differ from those of g and rho.
    The constructors must give the reference objects, and both checks the
    reference reports."""
    g, rho = _bracket_and_action(data)
    n, m = g.dim, rho.module_dim
    n_op = data.draw(matrices(n))
    apart = Fraction(1, data.draw(st.sampled_from((1, 5))))
    s_op = data.draw(matrices(m)).scale(apart)
    omega, varpi = reference_deformed_algebra(g, n_op), reference_rho_hat(rho, n_op, s_op)
    assert deformed_algebra(g, n_op).to_json() == omega.to_json()
    assert deformed_algebra(g, n_op) == omega
    assert rho_hat(rho, n_op, s_op).matrices == varpi.matrices
    assert rho_tilde(rho, n_op, s_op).matrices == reference_rho_hat(rho, n_op, s_op, -1).matrices
    if data.draw(st.booleans()):
        omega = Bracket.from_function(n, lambda i, j: data.draw(vectors(n)))
    if data.draw(st.booleans()):
        varpi = Representation(rho.algebra, [data.draw(matrices(m)) for _ in range(n)], check=False)
    assert_deformation_checks_agree(g, rho, n_op, s_op, DeformationPair(omega, varpi))


def _deformation(n, omega, varpi):
    """A DeformationPair from sparse constants {(i, j): coords} and action
    matrices as rows."""
    algebra = get_entry({2: "aff1", 3: "heis3"}[n]).algebra
    table = {ij: Vector(coords) for ij, coords in omega.items()}
    return DeformationPair(
        Bracket(n, table), Representation(algebra, [Matrix(rows) for rows in varpi], check=False)
    )


_Z3 = [[0, 0, 0]] * 3
DEFORMATION_NEAR_MISSES = (
    # heis3 ([e1,e2] = e3) acting trivially on a line, varpi = 0: omega
    # with w(e1,e3) = e1 is no cocycle, since its cyclic sum reads
    # [w(e3,e1), e2] = -[e1, e2] = -e3, yet the zero action and varpi kill
    # every other condition. A faithful rho rules this out: the mixed
    # condition implies rho applied to the cocycle defect vanishes.
    pytest.param(
        "trivial", {(0, 2): [1, 0, 0]}, [[[0]]] * 3, [("cocycle", (0, 1, 2))], id="cocycle"
    ),
    # heis3 adjoint: w(e1,e2) = -e2 and w(e2,e3) = -e3 fail Jacobi at the
    # one triple, w(w(e1,e2),e3) = w(-e2,e3) = e3; varpi is chosen so that
    # the mixed condition holds.
    pytest.param(
        "adjoint",
        {(0, 1): [0, -1, 0], (1, 2): [0, 0, -1]},
        [[[0, 0, 0], [0, 0, 0], [0, 0, -1]], [[0, 0, 0], [0, 0, 0], [0, -1, 0]], _Z3],
        [("omega_jacobi", (0, 1, 2))],
        id="omega_jacobi",
    ),
    # heis3 adjoint: the rescaling pair (omega = [,], varpi = ad), with e1
    # added to w(e1,e2) and E12 to varpi(e1): only varpi stops being a
    # representation of omega, at (e1, e2).
    pytest.param(
        "adjoint",
        {(0, 1): [1, 0, 1]},
        [[[0, 1, 0], [0, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0], [-1, 0, 0]], _Z3],
        [("varpi_rep", (0, 1))],
        id="varpi_rep",
    ),
    # heis3 adjoint, varpi = 0 and w(e2,e3) = -e1: rho(w(e2,e3)) = -ad(e1)
    # is the only term left of the mixed condition at (e2, e3).
    pytest.param("adjoint", {(1, 2): [-1, 0, 0]}, [_Z3] * 3, [("mixed", (1, 2))], id="mixed"),
)


@pytest.mark.parametrize("rep, omega, varpi, expected", DEFORMATION_NEAR_MISSES)
def test_deformation_pair_near_misses(rep, omega, varpi, expected):
    """heis3: each case fails one condition, at the basis tuples given."""
    g = get_entry("heis3").algebra
    if rep == "trivial":
        rho = Representation(g, [Matrix([[0]])] * 3)
    else:
        rho = get_entry("heis3").representations[rep]
    d = _deformation(3, omega, varpi)
    report = check_deformation_pair(g, rho, d)
    assert [(w.condition, w.indices) for w in report.witnesses] == expected
    assert report.to_json() == reference_deformation_pair(g, rho, d).to_json()


EQUIVALENCE_NEAR_MISSES = (
    # aff1 ([e1,e2] = e2), N = E22, S = 0: [e1,e2]_N = 0, and omega =
    # -e1 there lies in N's kernel, so only omega_match fails.
    pytest.param(
        [[0, 0], [0, 1]], [[0, 0], [0, 0]], {(0, 1): [-1, 0]},
        [[[0, 0], [0, 0]], [[0, 0], [-1, 0]]],
        [("omega_match", (0, 1))],
        id="omega_match",
    ),
    # heis3, N not Nijenhuis, S = 0: omega = [,]_N and varpi = rho_hat, so
    # both matches hold, but N omega(e2,e3) = Ne3 = -e1, while
    # [Ne2,Ne3] = [-e3,-e1] = 0.
    pytest.param(
        [[0, 0, -1], [0, 0, 0], [0, -1, 0]], [[0] * 3] * 3, {(0, 1): [1, 0, 0], (1, 2): [0, 0, 1]},
        [_Z3, _Z3, [[0, 0, 0], [0, 0, 0], [0, -1, 0]]],
        [("n_morphism", (1, 2))],
        id="n_morphism",
    ),
    # aff1, S = 0, omega = [,]_N = 0: varpi(e1) is off rho_hat's by E22,
    # and S = 0 keeps the intertwining.
    pytest.param(
        [[0, 0], [-1, -1]], [[0, 0], [0, 0]], {},
        [[[0, 0], [1, 1]], [[0, 0], [1, 0]]],
        [("varpi_match", (0,))],
        id="varpi_match",
    ),
    # aff1: omega and varpi are the N-deformed bracket and rho_hat, but
    # (N, S) is no Nijenhuis pair, which shows at e1 only.
    pytest.param(
        [[1, 0], [1, 1]], [[0, 0], [-1, 0]], {(0, 1): [0, 1]},
        [[[0, 0], [-2, 1]], [[0, 0], [-1, 0]]],
        [("intertwine", (0,))],
        id="intertwine",
    ),
)


@pytest.mark.parametrize("n_rows, s_rows, omega, varpi, expected", EQUIVALENCE_NEAR_MISSES)
def test_trivial_equivalence_near_misses(n_rows, s_rows, omega, varpi, expected):
    """Adjoint actions: each case fails one condition, at the basis tuples given."""
    n = len(n_rows)
    entry = get_entry({2: "aff1", 3: "heis3"}[n])
    g, rho = entry.algebra, entry.representations["adjoint"]
    n_op, s_op = Matrix(n_rows), Matrix(s_rows)
    d = _deformation(n, omega, varpi)
    report = check_trivial_equivalence(g, rho, n_op, s_op, d)
    assert [(w.condition, w.indices) for w in report.witnesses] == expected
    assert report.to_json() == reference_trivial_equivalence(g, rho, n_op, s_op, d).to_json()
