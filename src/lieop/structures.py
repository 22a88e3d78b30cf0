"""Composite structures: KN/KdN triples, compatibility, hierarchies,
r-matrices, invariant bilinear forms, and the Rota-Baxter <-> r-matrix
conversions.

Dual-space conventions: covectors are coordinate vectors in the dual basis,
the pairing is the standard dot product, the dual of a linear map is its
transpose, and the coadjoint action of x is -ad(x)^T. A bivector is stored
as the antisymmetric matrix of its induced map from covectors to vectors.

A bilinear form is stored as its Gram matrix M on the algebra basis,
M[i][j] = B(e_i, e_j). The induced map from covectors to vectors is then
the inverse matrix, and ad-invariance of the form, ad(x)^T M + M ad(x) = 0,
is equivalent to that map intertwining the coadjoint and adjoint actions.

Every predicate returns a CheckReport. KN, KdN, RBN and RMN compare two
brackets on the module, the NT-induced one and the S-deformation of the
T-induced one: RBN is KN for (ad, T = R, S = N, N) and RMN for
(coad, T = p, S = N^T, N). lieop.kernel's bracket-match loop decides the
comparison without building either bracket; kn_certificates,
rbn_certificates and rmn_certificates build them, for output only.

Compatibility is the polarization K(T1 + T2) - K(T1) - K(T2) of the
Kupershmidt report K, and the NT condition is N applied to it at (T, NT).

Every composite check checks each of its hypotheses once and raises
PreconditionFailure when one fails: its verdict is only defined under
those hypotheses, and a failed hypothesis must never be conflated with a
failed condition. Once every T_k is known to be Kupershmidt, the hierarchy
decides the compatibility of T_a and T_b by the sum T_a + T_b being
Kupershmidt, which is exact as the defect is the polarization above. The
morphism identity at (k, i) is minus that polarization at (T_k, T_(k+i))
wherever T_k and T_(k+i) are Kupershmidt and the bracket match holds at
k + i, so the hierarchy reads it off those sums; where one of those
premises fails, the premise is the failure it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, repeat
from operator import add
from typing import Iterator

from .errors import (
    PreconditionFailure,
    ShapeError,
    StructureCheckError,
)
from .kernel import (
    bracket_match_defects,
    deformed_sub_adjacent,
    kupershmidt_defects,
    shared_images,
    sub_adjacent_ads,
)
from .lie import Bracket, BracketLike, ad_action, deformed_algebra
from .linalg import (
    Matrix,
    Vector,
    invert,
    is_invertible,
    mat_mul,
    nullspace_vector,
)
from .operators import (
    _kupershmidt_report,
    _pair_witnesses,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis,
    is_rota_baxter,
    sub_adjacent_bracket,
)
from .report import CheckReport, Witness, report_from_witnesses
from .reps import Representation, _check_pair_shapes


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric matrix of the induced map from covectors to vectors."""

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_square():
            raise ShapeError("bivector matrix must be square")
        if not self.matrix.is_antisymmetric():
            raise ShapeError("bivector matrix must be antisymmetric")

    def to_json(self):
        return self.matrix.to_json()


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric Gram matrix M[i][j] = B(e_i, e_j) of a form on the algebra."""

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_square():
            raise ShapeError("bilinear form matrix must be square")
        if not self.matrix.is_symmetric():
            raise ShapeError("bilinear form matrix must be symmetric")

    def sharp(self) -> Matrix:
        """Matrix of the induced map from covectors to vectors (the inverse
        Gram matrix); only defined for nondegenerate forms."""
        return invert(self.matrix)


# ---------------------------------------------------------------------------
# Kupershmidt-(dual-)Nijenhuis triples
# ---------------------------------------------------------------------------


def _require(name: str, report: CheckReport) -> None:
    if not report.ok:
        raise PreconditionFailure(name, report)


def _kn_conditions(
    g: BracketLike,
    rho: Representation,
    t_op: Matrix,
    s_op: Matrix,
    n_op: Matrix,
    kind: str,
    pair_witnesses: tuple[Witness, ...] = (),
) -> CheckReport:
    """NT = TS and the NT-induced bracket equals the S-deformation of the
    T-induced one, after the witnesses of the (N, S) pair condition. The
    match is read off lieop.kernel's bracket-match loop, which builds
    neither bracket (kn_certificates does)."""
    witnesses = list(pair_witnesses)
    nt = mat_mul(n_op, t_op)
    twist = nt - mat_mul(t_op, s_op)
    if not twist.is_zero():
        witnesses.append(Witness("twist", (), twist))
    witnesses += _bracket_match_witnesses(rho, t_op, s_op, n_op, nt)
    return report_from_witnesses(witnesses, checked=kind)


def kn_certificates(
    g: BracketLike, rho: Representation, t_op: Matrix, s_op: Matrix, n_op: Matrix,
    names: tuple[str, str] = ("via_nt", "deformed_by_s"),
) -> dict[str, Bracket]:
    """The two brackets the KN conditions compare, by name: the NT-induced
    one and the S-deformation of the T-induced one."""
    via_nt, deformed = names
    return {
        via_nt: sub_adjacent_bracket(g, rho, mat_mul(n_op, t_op)),
        deformed: deformed_algebra(sub_adjacent_bracket(g, rho, t_op), s_op),
    }


def _bracket_match_witnesses(
    rho: Representation, t_op: Matrix, s_op: Matrix, n_op: Matrix, nt: Matrix
) -> list[Witness]:
    """The witnesses of the bracket-match loop, each defect divided by
    a*b^2, where T, S and N share the scale b and nt = NT."""
    (t_flat, s_flat, _), b = shared_images((t_op, s_op, n_op))
    image = rho.integer_image
    scale = image.scale * b * b
    # b clears N and T, so b^2 NT = (bN)(bT) is integral.
    nt_flat = [int(c * b * b) for row in nt.rows for c in row]
    deformed = deformed_sub_adjacent(sub_adjacent_ads(image, t_flat), s_flat)
    defects = bracket_match_defects(image, deformed, nt_flat)
    return [
        Witness("bracket_match", ij, Vector(Fraction(c, scale) for c in defect))
        for ij, defect in defects
    ]


def _k_pair_structure(
    g: BracketLike,
    rho: Representation,
    t_op: Matrix,
    s_op: Matrix,
    n_op: Matrix,
    kind: str,
    identities: tuple[str, ...],
) -> CheckReport:
    """The KN and KdN checks, which differ only in the (N, S) pair identity:
    the pair condition holds if one of the identities does. They run in
    order up to the first that holds; each one's witnesses are kept if none does."""
    _require("kupershmidt", is_kupershmidt(g, rho, t_op))
    _check_pair_shapes(rho, n_op, s_op)
    torsion = is_nijenhuis(g, n_op).witnesses
    pair: tuple[Witness, ...] = ()
    for identity in identities:
        witnesses = _pair_witnesses(rho, identity, s_op, n_op)
        if not witnesses:
            pair = ()
            break
        pair += witnesses
    return _kn_conditions(g, rho, t_op, s_op, n_op, kind, pair_witnesses=torsion + pair)


def is_kn_structure(
    g: BracketLike, rho: Representation, t_op: Matrix, s_op: Matrix, n_op: Matrix
) -> CheckReport:
    """T Kupershmidt (hypothesis), (N,S) Nijenhuis pair, NT = TS, and the
    NT-induced bracket equals the S-deformation of the T-induced one."""
    return _k_pair_structure(g, rho, t_op, s_op, n_op, "kn", ("pair",))


def is_kdn_structure(
    g: BracketLike, rho: Representation, t_op: Matrix, s_op: Matrix, n_op: Matrix
) -> CheckReport:
    """Same two compatibility conditions with (N,S) a dual-Nijenhuis pair."""
    return _k_pair_structure(g, rho, t_op, s_op, n_op, "kdn", ("dual_pair",))


# ---------------------------------------------------------------------------
# Compatible Kupershmidt operators
# ---------------------------------------------------------------------------

_COMBO_SAMPLES = ((1, 1), (1, -1), (2, 3))


def compatible_via_combos(
    g: BracketLike, rho: Representation, t1: Matrix, t2: Matrix
) -> bool:
    """Definitional route: k1 T1 + k2 T2 stays Kupershmidt on the samples.

    Given both operators are Kupershmidt, agreement on any sample set with
    k1 k2 != 0 is equivalent to the bilinear compatibility identity.
    """
    return all(
        is_kupershmidt(g, rho, t1.scale(k1) + t2.scale(k2)).ok
        for k1, k2 in _COMBO_SAMPLES
    )


def are_compatible_kupershmidt(
    g: BracketLike, rho: Representation, t1: Matrix, t2: Matrix
) -> CheckReport:
    """[T1u,T2v] + [T2u,T1v] = T1(rho(T2u)v - rho(T2v)u) + T2(rho(T1u)v - rho(T1v)u).

    Both operators must individually be Kupershmidt; the verdict is
    cross-checked against scalar combinations staying Kupershmidt. rho is
    validated against g once, by the check of T1.
    """
    _require("kupershmidt_t1", is_kupershmidt(g, rho, t1))
    _require("kupershmidt_t2", is_kupershmidt(g, rho, t2))
    return _compatibility_report(g, rho, t1, t2)


def _polarization(g: BracketLike, rho: Representation, t1: Matrix, t2: Matrix):
    """C = K(T1 + T2) - K(T1) - K(T2) at every module basis pair i < j, K
    the Kupershmidt defect: the compatibility defect of any T1 and T2, as
    C is the bilinear form of the quadratic K."""
    reports = (
        _kupershmidt_report(g, rho, t, "kupershmidt", "kupershmidt")
        for t in (t1 + t2, t1, t2)
    )
    k12, k1, k2 = ({w.indices: w.defect for w in r.witnesses} for r in reports)
    zero = Vector.zero(g.dim)
    for ij in combinations(range(rho.module_dim), 2):
        yield ij, k12.get(ij, zero) - k1.get(ij, zero) - k2.get(ij, zero)


def _compatibility_report(
    g: BracketLike, rho: Representation, t1: Matrix, t2: Matrix
) -> CheckReport:
    """The compatibility witnesses and their scalar-combination
    cross-check, for operators the caller knows to be Kupershmidt. Both
    read the one Kupershmidt loop, so the cross-check guards only the
    polarization step; the per-tuple reference tests check the loop."""
    witnesses = [
        Witness("compatibility", ij, c)
        for ij, c in _polarization(g, rho, t1, t2)
        if not c.is_zero()
    ]
    report = report_from_witnesses(witnesses, checked="compatible_kupershmidt")
    if report.ok != compatible_via_combos(g, rho, t1, t2):
        raise StructureCheckError(
            "compatibility identity disagrees with the scalar-combination test"
        )
    return report


def nijenhuis_from_kupershmidt_pair(
    g: BracketLike, rho: Representation, t1: Matrix, t2: Matrix
) -> Matrix:
    """N = T1 T2^{-1} for compatible Kupershmidt operators, T2 invertible."""
    if not (t2.is_square() and is_invertible(t2)):
        raise PreconditionFailure("t2_invertible")
    _require("compatible", are_compatible_kupershmidt(g, rho, t1, t2))
    n_op = mat_mul(t1, invert(t2))
    verdict = is_nijenhuis(g, n_op)
    if not verdict.ok:
        raise StructureCheckError("derived operator failed the Nijenhuis check")
    return n_op


def check_nt_kupershmidt_condition(
    g: BracketLike, rho: Representation, t_op: Matrix, n_op: Matrix
) -> CheckReport:
    """N([NTu,Tv] + [Tu,NTv]) = N(T(rho(NTu)v - rho(NTv)u) + NT(rho(Tu)v - rho(Tv)u)).

    Holds iff NT is again Kupershmidt (for T Kupershmidt, N Nijenhuis).
    The defect is N applied to the compatibility defect of (T, NT).
    """
    _require("kupershmidt", is_kupershmidt(g, rho, t_op))
    _require("nijenhuis", is_nijenhuis(g, n_op))
    witnesses = [
        Witness("nt_condition", ij, defect)
        for ij, c in _polarization(g, rho, t_op, mat_mul(n_op, t_op))
        if not (defect := n_op @ c).is_zero()
    ]
    return report_from_witnesses(witnesses, checked="nt_kupershmidt_condition")


# ---------------------------------------------------------------------------
# Hierarchies
# ---------------------------------------------------------------------------


def hierarchy(
    g: BracketLike,
    rho: Representation,
    t_op: Matrix,
    s_op: Matrix,
    n_op: Matrix,
    k_max: int,
) -> list[Matrix]:
    """The operator family T_k = N^k T (= T S^k), k = 0..k_max.

    Requires the triple to be a KN or KdN structure. Every derived claim is
    verified before returning: each power identity N^k T = T S^k, each T_k
    being Kupershmidt, pairwise compatibility, the sub-adjacent bracket of
    T_k agreeing with the S^k-deformation of the T bracket, and the twisted
    morphism identity T_k [u,v]_{S^(k+i)} = [T_k u, T_k v]_{N^i} for
    k + i <= k_max.

    The hypothesis and each claim are decided by lieop.kernel's integer
    loops, and no bracket is built: past the hypothesis, on the images of
    the T_k and the powers of S, the Kupershmidt loop for each T_k and
    each pairwise sum, and the bracket-match loop comparing the bracket
    induced by T_k with the S^k-deformation of T's. The morphism identity
    at (k, i) is minus the compatibility defect of T_k and T_(k+i) once
    both are Kupershmidt and the bracket match holds at k + i, so it is
    read off the pairwise sums; the theorem makes those premises hold, and
    where one fails it is reported instead.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    either = ("pair", "dual_pair")
    _require("kn_or_kdn", _k_pair_structure(g, rho, t_op, s_op, n_op, "kn_or_kdn", either))

    s_pows = list(accumulate([s_op] * k_max, mat_mul, initial=Matrix.identity(s_op.nrows)))
    ops = list(accumulate(repeat(n_op, k_max), lambda t, n: mat_mul(n, t), initial=t_op))
    failure = next(_hierarchy_failures(g, rho, ops, s_pows), None)
    if failure is not None:
        raise StructureCheckError(failure)
    return ops


def _hierarchy_failures(
    g: BracketLike,
    rho: Representation,
    ops: list[Matrix],
    s_pows: list[Matrix],
) -> Iterator[str]:
    """The claims of hierarchy() about T_k = ops[k] = N^k T that fail, each
    as its error message, in the order hierarchy() checks them; rho must
    already be validated against g, and s_pows[p] is S^p for p = 0..k_max.

    Each claim is decided by a kernel loop on the images of the T_k and the
    powers of S, all under one scale b, as every identity is homogeneous in
    the operators. Once every T_k is Kupershmidt, T_a and T_b are
    compatible iff their sum is: the compatibility defect is
    K(T_a + T_b) - K(T_a) - K(T_b).

    The bracket match at k compares [u,v]^{T_k} with the S^k-deformation of
    T's sub-adjacent bracket. Where T_k and T_(k+i) are Kupershmidt and the
    match holds at k + i, the morphism identity at (k, i) fails exactly
    where the Kupershmidt loop of T_k + T_(k+i) does, and nowhere at i = 0
    (lieop.kernel's docstring derives this). Where one of those premises
    fails, its own message reports it and the identity is not decided.
    """
    count, t_op = len(ops), ops[0]
    flats, b = shared_images(ops + s_pows)
    t_flats, s_flats = flats[:count], flats[count:]
    g_image, image = g.integer_image, rho.integer_image

    @cache
    def failing(t_flat: tuple) -> tuple:
        """The pairs where the Kupershmidt loop fails, run once per distinct
        operator: the T_k and their sums repeat wherever N fixes T's image."""
        return tuple(ij for ij, _ in kupershmidt_defects(g_image, image, t_flat))

    own = [failing(tuple(t_flat)) for t_flat in t_flats]
    for k, op in enumerate(ops):
        if op != mat_mul(t_op, s_pows[k]):
            yield f"N^{k} T != T S^{k}"
        if own[k]:
            yield f"T_{k} is not a Kupershmidt operator"
    sums = {}
    for a, c in combinations(range(count), 2):
        sums[a, c] = failing(tuple(map(add, t_flats[a], t_flats[c])))
        if sums[a, c]:
            yield f"T_{a} and T_{c} are not compatible"

    ads = sub_adjacent_ads(image, t_flats[0])
    # The KN bracket match for (T, S^k, N^k) against T's sub-adjacent
    # bracket deformed by S^k; b^2 N^k T is b times T_k's image.
    matched = []
    for t_flat, s_flat in zip(t_flats, s_flats):
        deformed = deformed_sub_adjacent(ads, s_flat)
        defects = bracket_match_defects(image, deformed, [x * b for x in t_flat])
        matched.append(next(defects, None) is None)
    for k in range(count):
        if not matched[k]:
            yield f"bracket of T_{k} differs from the S^{k}-deformed bracket"
        if own[k]:
            continue
        # From c = k + 1, as the polarization at i = 0 is 2 K(T_k) = 0.
        for c in range(k + 1, count):
            if matched[c] and not own[c]:
                for u, v in sums[k, c]:
                    yield f"morphism identity fails at k={k}, i={c - k}, pair ({u},{v})"


def kdn_from_compatible(
    g: BracketLike, rho: Representation, t_op: Matrix, t1_op: Matrix
) -> tuple[CheckReport, CheckReport]:
    """From compatible Kupershmidt T (invertible) and T1, the triples
    (T, T^{-1}T1, T1 T^{-1}) and (T1, T^{-1}T1, T1 T^{-1}) are both KdN."""
    if not (t_op.is_square() and is_invertible(t_op)):
        raise PreconditionFailure("t_invertible")
    _require("compatible", are_compatible_kupershmidt(g, rho, t_op, t1_op))
    t_inv = invert(t_op)
    s_op = mat_mul(t_inv, t1_op)
    n_op = mat_mul(t1_op, t_inv)
    # Both operators and rho are checked above, and the two triples share
    # (N, S), so the dual pair is checked once for both.
    pair = is_dual_nijenhuis_pair(g, rho, n_op, s_op).witnesses
    return tuple(
        _kn_conditions(g, rho, t, s_op, n_op, "kdn", pair_witnesses=pair)
        for t in (t_op, t1_op)
    )


# ---------------------------------------------------------------------------
# r-matrices and bilinear forms
# ---------------------------------------------------------------------------


def is_r_matrix(g: BracketLike, pi: Bivector) -> CheckReport:
    """Operator form of the classical Yang-Baxter equation on dual basis pairs:
    [pa, pb] = p(coad_{pa} b - coad_{pb} a) where p is the induced map.

    That is, p is a Kupershmidt operator for the coadjoint action, which is
    not validated, so g may be any bracket.
    """
    p = pi.matrix
    if p.nrows != g.dim:
        raise ShapeError(f"bivector of size {p.nrows} on algebra of dim {g.dim}")
    return _kupershmidt_report(g, g.coad_family, p, "yang_baxter", "r_matrix")


def is_r_matrix_nijenhuis(g: BracketLike, pi: Bivector, n_op: Matrix) -> CheckReport:
    """r-matrix pi and Nijenhuis N with N p = p N^T and the N p-induced
    bracket on covectors equal to the N^T-deformed p-induced bracket: the
    KN conditions for (coad, T = p, S = N^T, N)."""
    _require("r_matrix", is_r_matrix(g, pi))
    _require("nijenhuis", is_nijenhuis(g, n_op))
    return _kn_conditions(g, *_rmn_as_kn(g, pi, n_op), "rmn")


def _rmn_as_kn(g: BracketLike, pi: Bivector, n_op: Matrix) -> tuple:
    return g.coad_family, pi.matrix, n_op.transpose(), n_op


def rmn_certificates(g: BracketLike, pi: Bivector, n_op: Matrix) -> dict[str, Bracket]:
    return kn_certificates(g, *_rmn_as_kn(g, pi, n_op), ("via_np", "deformed_by_nstar"))


def is_rbn_structure(g: BracketLike, r_op: Matrix, n_op: Matrix) -> CheckReport:
    """Rota-Baxter R and Nijenhuis N with NR = RN and the NR-induced
    bracket equal to the N-deformed R-induced bracket: the KN conditions
    for (ad, T = R, S = N, N)."""
    _require("rota_baxter", is_rota_baxter(g, r_op))
    _require("nijenhuis", is_nijenhuis(g, n_op))
    return _kn_conditions(g, *_rbn_as_kn(g, r_op, n_op), "rbn")


def _rbn_as_kn(g: BracketLike, r_op: Matrix, n_op: Matrix) -> tuple:
    return g.ad_family, r_op, n_op, n_op


def rbn_certificates(g: BracketLike, r_op: Matrix, n_op: Matrix) -> dict[str, Bracket]:
    return kn_certificates(g, *_rbn_as_kn(g, r_op, n_op), ("via_nr", "deformed_by_n"))


def check_bilinear_form(g: BracketLike, form: BilinearForm) -> CheckReport:
    """Nondegeneracy and ad-invariance of a symmetric form.

    Invariance is checked as ad(e_i)^T M + M ad(e_i) = 0; for invertible M
    this is exactly the inverse matrix intertwining coad and ad.
    """
    m = form.matrix
    if m.nrows != g.dim:
        raise ShapeError(f"form of size {m.nrows} on algebra of dim {g.dim}")
    witnesses = []
    kernel = nullspace_vector(m)
    if kernel is not None:
        witnesses.append(Witness("nondegenerate", (), kernel))
    for i in range(g.dim):
        ad_i = ad_action(g, Vector.basis(g.dim, i))
        defect = mat_mul(ad_i.transpose(), m) + mat_mul(m, ad_i)
        if not defect.is_zero():
            witnesses.append(Witness("ad_invariance", (i,), defect))
    return report_from_witnesses(witnesses, checked="bilinear_form")


def is_skew_endomorphism(
    g: BracketLike, r_op: Matrix, form: BilinearForm
) -> CheckReport:
    """R composed with the induced covector-to-vector map is antisymmetric;
    equivalently B(Rx, y) = -B(x, Ry)."""
    _require("bilinear_form", check_bilinear_form(g, form))
    return _skew_report(r_op, form.sharp())


def _skew_report(r_op: Matrix, sharp: Matrix) -> CheckReport:
    """is_skew_endomorphism for a valid form, given its induced map."""
    composed = mat_mul(r_op, sharp)
    defect = composed + composed.transpose()
    witnesses = [] if defect.is_zero() else [Witness("skew", (), defect)]
    return report_from_witnesses(witnesses, checked="skew_endomorphism")


def _require_form_compatible(sharp: Matrix, n_op: Matrix) -> None:
    """The form's induced map intertwines N^T and N."""
    if mat_mul(sharp, n_op.transpose()) != mat_mul(n_op, sharp):
        raise PreconditionFailure("form_nijenhuis_compatible")


def rbn_to_rmn(
    g: BracketLike, r_op: Matrix, n_op: Matrix, form: BilinearForm
) -> tuple[Bivector, Matrix]:
    """Transport a Rota-Baxter-Nijenhuis pair along an invariant form.

    Hypotheses, each checked once and reported distinctly: the form is
    valid, R is a skew endomorphism of it, the form is compatible with N,
    and (R, N) is an RBN structure. The output bivector is R composed with
    the induced map, and the resulting pair is reverified as an
    r-matrix-Nijenhuis structure before returning; N is known to be
    Nijenhuis by then, so only the r-matrix hypothesis is new. The form's
    induced map is formed once, for all three of its uses.
    """
    _require("bilinear_form", check_bilinear_form(g, form))
    sharp = form.sharp()
    _require("skew_endomorphism", _skew_report(r_op, sharp))
    _require_form_compatible(sharp, n_op)
    _require("rbn", is_rbn_structure(g, r_op, n_op))
    pi = Bivector(mat_mul(r_op, sharp))
    _require("r_matrix", is_r_matrix(g, pi))
    if not _kn_conditions(g, *_rmn_as_kn(g, pi, n_op), "rmn").ok:
        raise StructureCheckError("converted pair failed the r-matrix-Nijenhuis check")
    return pi, n_op


def rmn_to_rbn(
    g: BracketLike, pi: Bivector, n_op: Matrix, form: BilinearForm
) -> tuple[Matrix, Matrix]:
    """Inverse transport: R is the bivector's induced map composed with the
    Gram matrix. Exact inverse of rbn_to_rmn, so round trips are identities.
    The form and N are checked once; the converted R is reverified as a
    skew endomorphism and a Rota-Baxter operator; the form's induced map is
    formed once, for both of its uses."""
    _require("bilinear_form", check_bilinear_form(g, form))
    sharp = form.sharp()
    _require_form_compatible(sharp, n_op)
    _require("rmn", is_r_matrix_nijenhuis(g, pi, n_op))
    r_op = mat_mul(pi.matrix, form.matrix)
    if not _skew_report(r_op, sharp).ok:
        raise StructureCheckError("converted operator is not a skew endomorphism")
    _require("rota_baxter", is_rota_baxter(g, r_op))
    if not _kn_conditions(g, *_rbn_as_kn(g, r_op, n_op), "rbn").ok:
        raise StructureCheckError("converted pair failed the Rota-Baxter-Nijenhuis check")
    return r_op, n_op
