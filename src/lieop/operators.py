"""Single-operator and operator-pair predicates.

All identities here are multilinear, so checking them on basis tuples is
complete; every predicate quantifies over basis indices only and returns a
CheckReport listing each violating tuple with its exact defect.

Conventions for the matrix arguments:
  N : n x n endomorphism of the algebra
  S : m x m endomorphism of the module
  T : n x m linear map from the module into the algebra

The Nijenhuis torsion, the Kupershmidt identity (behind is_kupershmidt,
is_rota_baxter, is_r_matrix and structures' compatibility and NT checks)
and the (N, S) pair identities are reported from lieop.kernel's integer
loops on the bracket's and the action's integer images, each defect
divided by its scale for the witness.

The pair loop reads each pair identity off the commutators
C_k = [rho(e_k), S], each defect the exact one of the four-term identity
in its predicate's docstring:
  Nijenhuis pair       [rho(Nx) - S rho(x), S] = sum_k N_kx C_k - S C_x
  dual Nijenhuis pair  [rho(Nx) - rho(x) S, S] = sum_k N_kx C_k - C_x S
  perfect pair         [S, [S, rho(x)]]        = C_x S - S C_x
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeError
from .kernel import integer_image, kupershmidt_defects, pair_defects, torsion_defects
from .lie import Bracket, BracketLike, deformed_algebra, semidirect_product
from .linalg import Matrix, Vector, block_diag
from .report import CheckReport, Witness, report_from_witnesses
from .reps import Representation, _check_pair_shapes

# [u,v]_S = [Su,v] + [u,Sv] - S[u,v] is lie's deformed product, applied to a
# bracket on the module; Jacobi is not implied in general.
deform_bracket_by_s = deformed_algebra


def _require_endo(g: BracketLike, op: Matrix, name: str) -> None:
    if op.shape != (g.dim, g.dim):
        raise ShapeError(f"{name} has shape {op.shape}, expected ({g.dim},{g.dim})")


def _require_module_map(rho: Representation, t_op: Matrix) -> None:
    n, m = rho.algebra.dim, rho.module_dim
    if t_op.shape != (n, m):
        raise ShapeError(f"T has shape {t_op.shape}, expected ({n},{m})")


# ---------------------------------------------------------------------------
# Nijenhuis / Rota-Baxter / Kupershmidt
# ---------------------------------------------------------------------------


def nijenhuis_defect(g: BracketLike, n_op: Matrix, x: Vector, y: Vector) -> Vector:
    """[Nx,Ny] - N([Nx,y] + [x,Ny] - N[x,y]); zero for all x,y iff N is Nijenhuis."""
    _require_endo(g, n_op, "N")
    nx, ny = n_op @ x, n_op @ y
    return g(nx, ny) - (n_op @ (g(nx, y) + g(x, ny) - (n_op @ g(x, y))))


def is_nijenhuis(g: BracketLike, n_op: Matrix) -> CheckReport:
    """nijenhuis_defect at every basis pair (e_i, e_j), i < j."""
    _require_endo(g, n_op, "N")
    flat, b = integer_image([c for row in n_op.rows for c in row])
    image = g.integer_image
    return _report("torsion", torsion_defects(image, flat), image.scale * b * b, "nijenhuis")


def is_rota_baxter(g: BracketLike, r_op: Matrix) -> CheckReport:
    """[Rx,Ry] = R([Rx,y] + [x,Ry]) on basis pairs (weight zero).

    This is the Kupershmidt identity for the adjoint action. The action is
    not validated, so g may be any bracket, Jacobi or not.
    """
    _require_endo(g, r_op, "R")
    return _kupershmidt_report(g, g.ad_family, r_op, "rota_baxter", "rota_baxter")


def kupershmidt_defect(
    g: BracketLike, rho: Representation, t_op: Matrix, u: Vector, v: Vector
) -> Vector:
    """[Tu,Tv] - T(rho(Tu)v - rho(Tv)u) evaluated in g."""
    _require_module_map(rho, t_op)
    _require_bracket_dim(g, rho)
    tu, tv = t_op @ u, t_op @ v
    return g(tu, tv) - (t_op @ (rho.act(tu) @ v - (rho.act(tv) @ u)))


def is_kupershmidt(g: BracketLike, rho: Representation, t_op: Matrix) -> CheckReport:
    """Kupershmidt (O-operator) identity on module basis pairs.

    g may differ from rho.algebra's own product (a deformed bracket, say);
    rho is validated against g, not against rho.algebra.
    """
    _require_module_map(rho, t_op)
    rep = rho.check_against(g)
    if not rep.ok:
        return CheckReport(False, rep.witnesses, checked="kupershmidt")
    return _kupershmidt_report(g, rho, t_op, "kupershmidt", "kupershmidt")


def _kupershmidt_report(
    g: BracketLike, rho: Representation, t_op: Matrix, label: str, checked: str
) -> CheckReport:
    """kupershmidt_defect at every module basis pair (e_i, e_j), i < j,
    under the caller's witness label."""
    if rho.module_dim > 1:  # kupershmidt_defect raises this at the first basis pair
        _require_bracket_dim(g, rho)
    flat, b = integer_image([c for row in t_op.rows for c in row])
    g_image, rho_image = g.integer_image, rho.integer_image
    scale = g_image.scale * rho_image.scale * b * b
    return _report(label, kupershmidt_defects(g_image, rho_image, flat), scale, checked)


def _report(label: str, defects, scale: int, checked: str) -> CheckReport:
    """The witnesses of an integer loop, each defect divided by its scale."""
    witnesses = [
        Witness(label, indices, Vector(Fraction(c, scale) for c in defect))
        for indices, defect in defects
    ]
    return report_from_witnesses(witnesses, checked=checked)


def _require_bracket_dim(g: BracketLike, rho: Representation) -> None:
    if g.dim != rho.algebra.dim:
        raise ShapeError(f"bracket dim {g.dim} != algebra dim {rho.algebra.dim}")


# ---------------------------------------------------------------------------
# Pairs (N, S)
# ---------------------------------------------------------------------------


def is_nijenhuis_pair(
    g: BracketLike, rho: Representation, n_op: Matrix, s_op: Matrix
) -> CheckReport:
    """N Nijenhuis and rho(Nx)S = S rho(Nx) + S rho(x) S - S^2 rho(x) per basis x.

    The defect is the commutator [rho(Nx) - S rho(x), S].
    """
    _check_pair_shapes(rho, n_op, s_op)
    witnesses = is_nijenhuis(g, n_op).witnesses + _pair_witnesses(rho, "pair", s_op, n_op)
    return report_from_witnesses(witnesses, checked="nijenhuis_pair")


def is_dual_nijenhuis_pair(
    g: BracketLike, rho: Representation, n_op: Matrix, s_op: Matrix
) -> CheckReport:
    """N Nijenhuis and rho(Nx)S = S rho(Nx) + rho(x) S^2 - S rho(x) S per basis x.

    The defect is the commutator [rho(Nx) - rho(x) S, S].
    """
    _check_pair_shapes(rho, n_op, s_op)
    witnesses = is_nijenhuis(g, n_op).witnesses + _pair_witnesses(
        rho, "dual_pair", s_op, n_op
    )
    return report_from_witnesses(witnesses, checked="dual_nijenhuis_pair")


def is_perfect_pair(
    g: BracketLike, rho: Representation, n_op: Matrix, s_op: Matrix
) -> CheckReport:
    """Nijenhuis pair with S^2 rho(x) + rho(x) S^2 = 2 S rho(x) S per basis x.

    The extra defect is the double commutator [S, [S, rho(x)]].
    """
    base = is_nijenhuis_pair(g, rho, n_op, s_op)
    witnesses = base.witnesses + _pair_witnesses(rho, "perfect", s_op)
    return report_from_witnesses(witnesses, checked="perfect_pair")


def _pair_witnesses(
    rho: Representation, identity: str, s_op: Matrix, n_op: Matrix | None = None
) -> tuple[Witness, ...]:
    """The witnesses of lieop.kernel's pair loop for one identity ("pair",
    "dual_pair" or "perfect"; N's torsion is not part of it), each defect
    divided by a*b^2, where N and S share the scale b."""
    ops = (s_op,) if n_op is None else (s_op, n_op)
    flat, b = integer_image([c for op in ops for row in op.rows for c in row])
    image = rho.integer_image
    scale = image.scale * b * b
    m2 = s_op.nrows * s_op.ncols
    return tuple(
        Witness(identity, x, Matrix([[Fraction(c, scale) for c in row] for row in defect]))
        for x, defect in pair_defects(image, identity, flat[:m2], flat[m2:])
    )


def nijenhuis_pair_semidirect_test(
    g: BracketLike, rho: Representation, n_op: Matrix, s_op: Matrix
) -> CheckReport:
    """Pair test via the semidirect product: N (+) S must be Nijenhuis there.

    An independent route to is_nijenhuis_pair. When the pair is perfect,
    N (+) S-transpose is additionally tested on the dual semidirect product.
    """
    _check_pair_shapes(rho, n_op, s_op)
    big = semidirect_product(g, rho)
    report = is_nijenhuis(big, block_diag(n_op, s_op))
    report = CheckReport(report.ok, report.witnesses, checked="pair_semidirect")
    if report.ok and not _pair_witnesses(rho, "perfect", s_op):
        dual_big = semidirect_product(g, rho.dual)
        dual_rep = is_nijenhuis(dual_big, block_diag(n_op, s_op.transpose()))
        report = report.merge(dual_rep, checked="pair_semidirect")
    return report


# ---------------------------------------------------------------------------
# Pre-Lie product and derived brackets on the module
# ---------------------------------------------------------------------------


class PreLieProduct:
    """Bilinear product on the module, stored on all ordered basis pairs."""

    def __init__(self, dim: int, table: list[list[Vector]]):
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ShapeError("pre-Lie table must be dim x dim")
        self.dim = dim
        self.table = tuple(tuple(row) for row in table)

    def __call__(self, u: Vector, v: Vector) -> Vector:
        if u.dim != self.dim or v.dim != self.dim:
            raise ShapeError("vector dims do not match product dim")
        out = Vector.zero(self.dim)
        for i, cu in enumerate(u.coords):
            if not cu:
                continue
            for j, cv in enumerate(v.coords):
                if cv:
                    out = out + self.table[i][j].scale(cu * cv)
        return out

    def commutator_bracket(self) -> Bracket:
        return Bracket.from_function(
            self.dim, lambda i, j: self.table[i][j] - self.table[j][i]
        )


def pre_lie_product(g: BracketLike, rho: Representation, t_op: Matrix) -> PreLieProduct:
    """u * v = rho(Tu) v; genuinely pre-Lie whenever T is Kupershmidt."""
    _require_module_map(rho, t_op)
    m = rho.module_dim
    table = []
    for i in range(m):
        act = rho.act(t_op.column(i))
        table.append([act.column(j) for j in range(m)])
    return PreLieProduct(m, table)


def check_pre_lie(p: PreLieProduct) -> CheckReport:
    """Associator (u*v)*w - u*(v*w) symmetric in u, v on basis triples."""
    witnesses = []
    m = p.dim
    basis = [Vector.basis(m, i) for i in range(m)]

    def assoc(a, b, c):
        return p(p(a, b), c) - p(a, p(b, c))

    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                defect = assoc(basis[i], basis[j], basis[k]) - assoc(
                    basis[j], basis[i], basis[k]
                )
                if not defect.is_zero():
                    witnesses.append(Witness("associator", (i, j, k), defect))
    return report_from_witnesses(witnesses, checked="pre_lie")


def pre_lie_nijenhuis(p: PreLieProduct, s_op: Matrix) -> CheckReport:
    """S(u)*S(v) = S(S(u)*v + u*S(v) - S(u*v)) on all ordered basis pairs.

    The pre-Lie sharpening of the Nijenhuis condition; the product is not
    antisymmetric, so both orders of each pair are checked.
    """
    if s_op.shape != (p.dim, p.dim):
        raise ShapeError(f"S has shape {s_op.shape}, expected ({p.dim},{p.dim})")
    witnesses = []
    basis = [Vector.basis(p.dim, i) for i in range(p.dim)]
    for i in range(p.dim):
        su = s_op @ basis[i]
        for j in range(p.dim):
            sv = s_op @ basis[j]
            lhs = p(su, sv)
            rhs = s_op @ (p(su, basis[j]) + p(basis[i], sv) - (s_op @ p(basis[i], basis[j])))
            defect = lhs - rhs
            if not defect.is_zero():
                witnesses.append(Witness("pre_lie_torsion", (i, j), defect))
    return report_from_witnesses(witnesses, checked="pre_lie_nijenhuis")


def sub_adjacent_bracket(g: BracketLike, rho: Representation, t_op: Matrix) -> Bracket:
    """[u,v]^T = rho(Tu)v - rho(Tv)u on the module.

    The commutator of the pre-Lie product; a Lie bracket whenever T is a
    Kupershmidt operator, in which case T is a morphism onto its image.
    """
    _require_module_map(rho, t_op)
    _require_bracket_dim(g, rho)
    acts = [rho.act(t_op.column(i)) for i in range(rho.module_dim)]
    return Bracket.from_function(
        rho.module_dim, lambda i, j: acts[i].column(j) - acts[j].column(i)
    )
