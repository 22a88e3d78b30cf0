"""Built-in exemplar algebras, representations, and verified operators.

Catalog data is compiled in, never read from disk, and every structure an
entry asserts is re-verified when the entry is first loaded; a failing
assertion aborts with the witness rather than serving stale ground truth.
The representations check the axiom when they are built, and neither the
load-time verification nor a search on them checks it again.

grid_search is the exhaustive oracle: it returns every operator whose
entries come from a finite scalar set and which satisfies the defining
predicate, in the lexicographic order of the full candidate product. It
refuses (rather than truncates) when that product's nominal candidate
count exceeds the cap, before evaluating any candidate.

It does not test the product candidate by candidate. It enumerates in
stages: T is filtered by the Kupershmidt identity and N by the Nijenhuis
identity on their own, the (N, S) pair condition is decided once for all
T, and only then are the filtered lists multiplied out, in the nesting
order of the full product, where triples are filtered by the twist
NT = TS and the KN bracket match, and pairs of Kupershmidt operators by
their sum being Kupershmidt. Rota-Baxter operators and r-matrices are
searched as the Kupershmidt operators they are, for the adjoint and the
coadjoint action: the search runs the same stages on that action family,
over the skew candidates only for r-matrices. Over a grid that equals its
negation, each stage decides one candidate of each sign orbit and mirrors
what passes: X and -X for the filters, (N, S) and (-N, -S) for the pair
condition, (T1, T2) and (-T1, -T2) for compatibility, and T and -T for the
twist and the bracket match, which keep the same pairs (N, S).

Every verdict comes from the loop that the public predicate itself runs
(lieop.kernel: the Kupershmidt loop, which lieop.verdicts reads), or
from packed integer keys read off the integer images and off those loops
(the torsion, Kupershmidt, pair and bracket-match loops) at unit
operators, on the grid's integer image. That is exact: each identity is
homogeneous, so a candidate's verdict does not depend on the scale b its
entries are cleared by; each has degree at most 2 in its operators (the
bracket match 1 in T and 1 in S, once NT = TS), so its table
holds it whole; each packing base exceeds what the compared entries can
reach; and for two Kupershmidt operators the compatibility defect is the
polarization K(T1 + T2) - K(T1) - K(T2) = K(T1 + T2). A result is
therefore one the public predicate
(is_kn_structure, are_compatible_kupershmidt, ...) accepts, and each
identity is decided once: the search makes no call to the reporting
path. A given representation is validated against g before any
candidate, by Representation.check_against, which runs no loop for one
that has already passed against g (a catalog one, say); the adjoint and
coadjoint families need no validation, since the Rota-Baxter and r-matrix
identities are read on any bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import Optional, Sequence

from .errors import GridCapExceeded, LieopError, ShapeError, StructureCheckError
from .kernel import integer_image, negated, upper_half
from .kinds import CATALOG_KINDS, OPERATOR_SHAPES, SEARCH_KINDS
from .lie import LieAlgebra
from .linalg import Matrix, Scalar, rational
from .reps import Representation, adjoint_rep, coadjoint_rep
from .structures import BilinearForm, Bivector, check_bilinear_form
from .verdicts import VerdictKernel, compatible, form_vanishes

GRID_CAP = 10_000_000


@dataclass(frozen=True)
class CatalogOperator:
    """An operator bundle together with the structure kind it satisfies,
    relative to one of the entry's named representations."""

    name: str
    kind: str
    rep: str
    matrices: dict[str, Matrix]
    provenance: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    representations: dict[str, Representation]
    operators: tuple[CatalogOperator, ...]
    bilinear_form: Optional[BilinearForm] = None
    provenance: str = ""


def _verify_operator(entry: CatalogEntry, op: CatalogOperator) -> None:
    kind = CATALOG_KINDS.get(op.kind)
    if kind is None:
        raise LieopError(f"unknown catalog kind {op.kind!r}")
    stanzas = {"rho": entry.representations.get(op.rep)}
    for key, mat in op.matrices.items():
        stanzas[key] = Bivector(mat) if OPERATOR_SHAPES[key].antisymmetric else mat
    report = kind.check(entry.algebra, *(stanzas[s] for s in kind.stanzas))
    if not report.ok:
        raise StructureCheckError(
            f"catalog assertion {entry.name}/{op.name} ({op.kind}) failed: "
            f"{[w.to_json() for w in report.witnesses]}"
        )


def _verify_entry(entry: CatalogEntry) -> CatalogEntry:
    # The representations checked themselves when they were built.
    if entry.bilinear_form is not None:
        form = check_bilinear_form(entry.algebra, entry.bilinear_form)
        if not form.ok:
            raise StructureCheckError(
                f"catalog bilinear form of {entry.name} is invalid"
            )
    for op in entry.operators:
        _verify_operator(entry, op)
    return entry


def _abelian(n: int) -> CatalogEntry:
    g = LieAlgebra(n, {})
    ops = []
    if n >= 2:
        # Unipotent S = N with T = Id: an invertible-T structure that is
        # simultaneously KN and KdN since every bracket vanishes.
        jordan = Matrix(
            [[1 if j == i or j == i + 1 else 0 for j in range(n)] for i in range(n)]
        )
        ops = [
            CatalogOperator(
                name="kn_invertible",
                kind="kn_structure",
                rep="adjoint",
                matrices={"T": Matrix.identity(n), "S": jordan, "N": jordan},
                provenance="direct: all brackets vanish, so every condition is 0 = 0",
            ),
            CatalogOperator(
                name="kdn_invertible",
                kind="kdn_structure",
                rep="adjoint",
                matrices={"T": Matrix.identity(n), "S": jordan, "N": jordan},
                provenance="direct: all brackets vanish",
            ),
        ]
    return CatalogEntry(
        name=f"abelian_{n}",
        algebra=g,
        representations={"adjoint": adjoint_rep(g), "coadjoint": coadjoint_rep(g)},
        operators=tuple(ops),
        provenance="zero bracket in every basis pair",
    )


def _aff1() -> CatalogEntry:
    g = LieAlgebra.from_structure(2, {(0, 1): {1: 1}})
    d10 = Matrix.diagonal([1, 0])
    ops = (
        CatalogOperator(
            name="rb_diag",
            kind="rota_baxter",
            rep="adjoint",
            matrices={"R": d10},
            provenance="exhaustive grid over entries in {-1,0,1}",
        ),
        CatalogOperator(
            name="nij_diag",
            kind="nijenhuis",
            rep="adjoint",
            matrices={"N": Matrix.diagonal([2, 5])},
            provenance="diagonal operators: torsion at (e1,e2) cancels termwise",
        ),
        CatalogOperator(
            name="pair_diag",
            kind="nijenhuis_pair",
            rep="adjoint",
            matrices={"N": d10, "S": d10},
            provenance="hand expansion of the pair identity at both basis vectors",
        ),
        CatalogOperator(
            name="kn_diag",
            kind="kn_structure",
            rep="adjoint",
            matrices={"T": d10, "S": d10, "N": d10},
            provenance="hand expansion; T = N = S share the single projection",
        ),
        CatalogOperator(
            name="rmatrix_symplectic",
            kind="r_matrix",
            rep="coadjoint",
            matrices={"pi_sharp": Matrix([[0, 1], [-1, 0]])},
            provenance="dim 2: the cubic Yang-Baxter obstruction vanishes identically",
        ),
        CatalogOperator(
            name="kdn_coadjoint",
            kind="kdn_structure",
            rep="coadjoint",
            matrices={
                "T": Matrix([[0, 1], [-1, 0]]),
                "S": Matrix.identity(2).scale(2),
                "N": Matrix.identity(2).scale(2),
            },
            provenance="derived from the compatible pair (T, 2T) with T invertible",
        ),
        CatalogOperator(
            name="compatible_scaled",
            kind="compatible_pair",
            rep="coadjoint",
            matrices={
                "T": Matrix([[0, 1], [-1, 0]]),
                "T2": Matrix([[0, 2], [-2, 0]]),
            },
            provenance="bilinearity: scalar multiples are always compatible",
        ),
    )
    return CatalogEntry(
        name="aff1",
        algebra=g,
        representations={"adjoint": adjoint_rep(g), "coadjoint": coadjoint_rep(g)},
        operators=ops,
        provenance="[e1,e2] = e2",
    )


def _heis3() -> CatalogEntry:
    g = LieAlgebra.from_structure(3, {(0, 1): {2: 1}})
    ops = (
        CatalogOperator(
            name="rb_shift",
            kind="rota_baxter",
            rep="adjoint",
            matrices={"R": Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])},
            provenance="image is the center, so both sides of the identity vanish",
        ),
        CatalogOperator(
            name="pair_diag",
            kind="nijenhuis_pair",
            rep="adjoint",
            matrices={
                "N": Matrix.diagonal([0, 1, 0]),
                "S": Matrix.diagonal([0, 2, 0]),
            },
            provenance="diagonal family: each condition factors into scalar products",
        ),
        CatalogOperator(
            name="kn_diag",
            kind="kn_structure",
            rep="adjoint",
            matrices={
                "T": Matrix.diagonal([0, 0, 1]),
                "S": Matrix.diagonal([1, 2, 1]),
                "N": Matrix.diagonal([1, 0, 1]),
            },
            provenance="diagonal family: center-valued T kills every derived bracket",
        ),
    )
    return CatalogEntry(
        name="heis3",
        algebra=g,
        representations={"adjoint": adjoint_rep(g), "coadjoint": coadjoint_rep(g)},
        operators=ops,
        provenance="[e1,e2] = e3, center spanned by e3",
    )


def _sl2() -> CatalogEntry:
    g = LieAlgebra.from_structure(
        3,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        basis_names=("h", "e", "f"),
    )
    killing = BilinearForm(Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]]))
    r_skew = Matrix([[0, 1, 0], [0, 0, 0], [-2, 0, 0]])
    pi = Matrix(
        [
            ["0", "0", "1/4"],
            ["0", "0", "0"],
            ["-1/4", "0", "0"],
        ]
    )
    ops = (
        CatalogOperator(
            name="rb_skew",
            kind="rota_baxter",
            rep="adjoint",
            matrices={"R": r_skew},
            provenance="exhaustive grid over skew endomorphisms with entries in {-2..2}",
        ),
        CatalogOperator(
            name="rbn_identity",
            kind="rbn_structure",
            rep="adjoint",
            matrices={"R": r_skew, "N": Matrix.identity(3)},
            provenance="N = Id makes both compatibility conditions tautological",
        ),
        CatalogOperator(
            name="rmatrix_standard",
            kind="r_matrix",
            rep="coadjoint",
            matrices={"pi_sharp": pi},
            provenance="image of rb_skew under the inverse trace-form Gram matrix",
        ),
        CatalogOperator(
            name="rmn_identity",
            kind="rmn_structure",
            rep="coadjoint",
            matrices={"pi_sharp": pi, "N": Matrix.identity(3)},
            provenance="transported from rbn_identity along the trace form",
        ),
    )
    return CatalogEntry(
        name="sl2",
        algebra=g,
        representations={"adjoint": adjoint_rep(g), "coadjoint": coadjoint_rep(g)},
        operators=ops,
        bilinear_form=killing,
        provenance="[h,e] = 2e, [h,f] = -2f, [e,f] = h; trace form of the adjoint",
    )


_BUILDERS = {
    "abelian_1": lambda: _abelian(1),
    "abelian_2": lambda: _abelian(2),
    "abelian_3": lambda: _abelian(3),
    "aff1": _aff1,
    "heis3": _heis3,
    "sl2": _sl2,
}


def list_catalog() -> list[str]:
    return list(_BUILDERS)


@lru_cache(maxsize=None)
def get_entry(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}")
    return _verify_entry(_BUILDERS[name]())


# ---------------------------------------------------------------------------
# Exhaustive grid search
# ---------------------------------------------------------------------------

# Rota-Baxter operators and r-matrices are searched as the Kupershmidt
# operators they are, for these unchecked action families kept on the bracket.
_ACTION_FAMILIES = {"rota_baxter": "ad_family", "r_matrix": "coad_family"}


def grid_search(
    g: LieAlgebra,
    rho: Optional[Representation],
    kind: str,
    entry_set: Sequence[Scalar],
    cap: int = GRID_CAP,
) -> list:
    """All operators over the entry set satisfying the kind's predicate.

    Enumeration is lexicographic over the sorted scalar set, so results are
    deterministic. Raises GridCapExceeded instead of truncating: partial
    output would silently destroy the oracle's exhaustiveness. The cap
    counts every candidate of the full product, however few the stages
    below end up evaluating.
    """
    if kind not in SEARCH_KINDS:
        raise LieopError(f"unknown search kind {kind!r}")
    if g.dim == 0:
        raise LieopError("grid_search needs an algebra of positive dimension")
    values = sorted({rational(v) for v in entry_set})
    row = CATALOG_KINDS[kind]
    n = m = g.dim
    if row.needs_rho:
        if rho is None:
            raise LieopError(f"search kind {kind!r} requires a representation")
        m = rho.module_dim
        if rho.algebra.dim != n:
            raise ShapeError(f"representation of a dim {rho.algebra.dim} algebra, expected {n}")
        # Against g, not rho.algebra: every predicate below reads g's bracket.
        if not rho.check_against(g).ok:
            raise LieopError("search representation is invalid")

    count = len(values) ** row.slots(n, m)
    if count > cap:
        raise GridCapExceeded(f"{count} candidates exceed the cap of {cap}")

    if kind in _ACTION_FAMILIES:
        rho = getattr(g, _ACTION_FAMILIES[kind])
    elif not row.needs_rho:
        rho = None
    return _staged_search(g, rho, kind, values)


def _staged_search(
    g: LieAlgebra, rho: Optional[Representation], kind: str, values: list
) -> list:
    """Filter each factor, then pair the factors.

    The kernel decides each identity in integers on the flat candidates,
    with the loop its public predicate runs or on packed keys from tables
    of it (exact, see the module docstring and lieop.kernel); a Matrix is
    built only for what passes. The loops themselves are tested against
    the per-tuple definitions, and the packed stages against the loops.
    The survivors are visited in the nesting order of the full product,
    which keeps the lexicographic order of the results.

    Over a grid that equals its negation, each identity is decided on one
    candidate of each sign orbit and the rest mirrored: every identity is
    homogeneous of even degree in the operators it pairs (see
    lieop.kernel), so X and -X, or (X, Y) and (-X, -Y), get one verdict.
    Such a grid's product, and every filtered list below, is then closed
    under negation with -flats[i] = flats[-1 - i], since negation reverses
    the lexicographic order.
    """
    kernel = VerdictKernel(g, rho)
    ints, _ = integer_image(values)
    value_of = dict(zip(ints, values))
    symmetric = set(ints) == {-v for v in ints}
    n = g.dim
    m = rho.module_dim if rho is not None else n

    def grid(size: int):
        return itertools.product(ints, repeat=size)

    def solutions(size: int, passes) -> list:
        """The flats of grid(size) that pass, in order: over a symmetric
        grid, only the upper half (kernel.upper_half) is decided, and the
        lower half mirrored from it."""
        if not symmetric:
            return [flat for flat in grid(size) if passes(flat)]
        found = [flat for flat in upper_half(ints, size) if passes(flat)]
        return [negated(flat) for flat in reversed(found) if any(flat)] + found

    def matrix(flat, ncols: int) -> Matrix:
        # value_of's entries are canonical scalars already.
        return Matrix._make(
            tuple(
                tuple(value_of[c] for c in flat[r : r + ncols])
                for r in range(0, len(flat), ncols)
            )
        )

    def kupershmidt_ops() -> list:
        """The Kupershmidt operators T, with their flats."""
        return [(flat, matrix(flat, m)) for flat in kernel.kupershmidt_solutions(ints)]

    def nijenhuis_flats() -> list:
        """The flats of the Nijenhuis N, each decided by one dot product
        with the packed torsion form; where every coefficient is zero,
        every N passes and none is evaluated."""
        form = kernel.torsion_form(max(map(abs, ints), default=0))
        if not form.coefs:
            return list(grid(n * n))
        return solutions(n * n, partial(form_vanishes, form))

    if kind in ("kupershmidt", "rota_baxter"):
        return [t_op for _, t_op in kupershmidt_ops()]
    if kind == "nijenhuis":
        return [matrix(flat, n) for flat in nijenhuis_flats()]
    if kind == "r_matrix":
        # Each skew candidate, over the entries above the diagonal, on its
        # full n x n image.
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def skew(entries) -> list:
            rows = [[0] * n for _ in range(n)]
            for (i, j), c in zip(upper, entries):
                rows[i][j], rows[j][i] = c, -c
            return rows

        def is_r_matrix(combo) -> bool:
            return kernel.is_kupershmidt([c for row in skew(combo) for c in row])

        return [
            Bivector(Matrix._make(tuple(map(tuple, skew([value_of[c] for c in combo])))))
            for combo in solutions(len(upper), is_r_matrix)
        ]

    if kind == "compatible_pair":
        # T1 + T2 = T2 + T1, so each unordered pair is decided once; over a
        # symmetric grid, once per orbit {(a, b), (-a, -b)}, where -t_ops[a]
        # is t_ops[last - a]. Each is one dot product with T1's packed row
        # of the polarization table.
        t_ops = kupershmidt_ops()
        rows = kernel.compatibility_rows([flat for flat, _ in t_ops])
        last = len(t_ops) - 1
        kept = set()
        for a, b in itertools.combinations_with_replacement(range(len(t_ops)), 2):
            mirror = (last - b, last - a)
            if symmetric and mirror < (a, b):
                continue
            if compatible(rows[a], t_ops[b][0]):
                kept.add((a, b))
                if symmetric:
                    kept.add(mirror)
        return [
            (t1, t2)
            for a, (_, t1) in enumerate(t_ops)
            for b, (_, t2) in enumerate(t_ops)
            if (min(a, b), max(a, b)) in kept
        ]

    # Both remaining kinds pair a Nijenhuis N with an S; each distinct N and
    # S is built as a Matrix once.
    n_ops = nijenhuis_flats()
    s_ops = list(grid(m * m))
    n_matrix = cache(lambda i: matrix(n_ops[i], n))
    s_matrix = cache(lambda j: matrix(s_ops[j], m))

    if kind == "nijenhuis_pair":
        return [(n_matrix(i), s_matrix(j)) for i, j in kernel.nijenhuis_pairs(n_ops, s_ops)]

    # kn_structure: a candidate lists T, then S, then N, so S varies slower
    # than N once T is fixed.
    pairs = sorted(kernel.nijenhuis_pairs(n_ops, s_ops), key=lambda p: (p[1], p[0]))
    t_ops = kupershmidt_ops()
    join = kernel.kn_join([flat for flat, _ in t_ops], n_ops, s_ops, pairs)
    last = len(t_ops) - 1
    held: dict = {}

    def kept(a: int) -> list:
        """The pairs that meet the twist and the bracket match with T =
        t_ops[a]. Both have degree 1 in T, so over a symmetric grid -T =
        t_ops[last - a] keeps the same pairs, held until its turn."""
        if a in held:
            return held.pop(a)
        out = kernel.kn_pairs(t_ops[a][0], join)
        if symmetric and last - a > a:
            held[last - a] = out
        return out

    return [
        (t_op, s_matrix(j), n_matrix(i))
        for a, (_, t_op) in enumerate(t_ops)
        for i, j in kept(a)
    ]
