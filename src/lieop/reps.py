"""Representations as matrix families, duals, and the deformed actions.

A Representation stores one action matrix per basis vector of the algebra;
rho(x) is the linear combination of those matrices by the coordinates of x.
Construction (by default), is_kupershmidt, grid_search and
semidirect_product check the representation axiom through one gate,
Representation.check_against(bracket). Matrices and bracket tables never
change, so it runs the axiom loop once per equal bracket that a family
passes against; a failing family is checked again on every call. The deformed
actions built by rho_hat / rho_tilde are returned unchecked: they satisfy
the axiom only relative to a deformed bracket and only under the matching
pair condition, so the caller decides what to validate them against.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, sub
from typing import Sequence

from .errors import ShapeError, ValidationError
from .kernel import ActionImage, deformed_actions, divided, shared_images
from .lie import BracketLike, adjoint_matrices
from .linalg import Matrix, Vector, commutator
from .report import CheckReport, Witness, report_from_witnesses


class Representation:
    def __init__(
        self,
        algebra: BracketLike,
        matrices: Sequence[Matrix],
        check: bool = True,
    ):
        matrices = tuple(matrices)
        if len(matrices) != algebra.dim:
            raise ShapeError(
                f"{len(matrices)} action matrices for an algebra of dim {algebra.dim}"
            )
        if not matrices:
            raise ShapeError("empty action family")
        m = matrices[0].nrows
        if m == 0:
            raise ShapeError("zero-dimensional module")
        for mat in matrices:
            if mat.shape != (m, m):
                raise ShapeError(f"action matrix of shape {mat.shape}, expected ({m},{m})")
        self.algebra = algebra
        self.module_dim = m
        self.matrices = matrices
        self._passed: set[BracketLike] = set()
        if check:
            rep = self.check_against(algebra)
            if not rep.ok:
                raise ValidationError("representation axiom fails", rep)

    def check_against(self, bracket: BracketLike) -> CheckReport:
        """check_representation(self, bracket), skipped once the family has
        passed against an equal bracket."""
        if bracket in self._passed:
            return report_from_witnesses((), checked="rep_axiom")
        report = check_representation(self, bracket)
        if report.ok:
            self._passed.add(bracket)
        return report

    def act(self, x: Vector) -> Matrix:
        """rho(x) = sum_i x_i rho(e_i)."""
        if x.dim != self.algebra.dim:
            raise ShapeError(f"element of dim {x.dim} in algebra of dim {self.algebra.dim}")
        out = Matrix.zeros(self.module_dim, self.module_dim)
        for c, mat in zip(x.coords, self.matrices):
            if c:
                out = out + mat.scale(c)
        return out

    @cached_property
    def integer_image(self) -> ActionImage:
        """The action matrices in integers (see lieop.kernel)."""
        return ActionImage(self)

    @cached_property
    def dual(self) -> "Representation":
        """dual_representation(self), built (and its axiom checked) once."""
        return dual_representation(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.algebra == other.algebra
            and self.matrices == other.matrices
        )

    def __hash__(self):
        return hash((self.algebra, self.matrices))

    def __repr__(self) -> str:
        return f"Representation(algebra dim {self.algebra.dim}, module dim {self.module_dim})"


def check_representation(
    rho: Representation, bracket: BracketLike | None = None
) -> CheckReport:
    """rho([e_i,e_j]) = [rho(e_i), rho(e_j)] on all basis pairs.

    The bracket argument lets a candidate family be checked against a
    different product than the one it was built over (e.g. a deformed one).
    """
    b = bracket if bracket is not None else rho.algebra
    if b.dim != rho.algebra.dim:
        raise ShapeError(f"bracket dim {b.dim} != algebra dim {rho.algebra.dim}")
    witnesses = []
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            lhs = rho.act(b.basis_bracket(i, j))
            rhs = commutator(rho.matrices[i], rho.matrices[j])
            defect = lhs - rhs
            if not defect.is_zero():
                witnesses.append(Witness("rep_axiom", (i, j), defect))
    return report_from_witnesses(witnesses, checked="rep_axiom")


def adjoint_rep(g: BracketLike) -> Representation:
    """The adjoint action ad(x)y = [x,y] on the algebra itself."""
    return Representation(g, adjoint_matrices(g))


def dual_representation(rho: Representation) -> Representation:
    """Action on the dual module: matrices are negated transposes."""
    return Representation(
        rho.algebra, tuple(-mat.transpose() for mat in rho.matrices)
    )


def coadjoint_rep(g: BracketLike) -> Representation:
    """The coadjoint action, the dual of the adjoint one."""
    return Representation(g, g.coad_family.matrices)


# Unchecked action families for identities that are defined on any bracket:
# the Rota-Baxter and r-matrix checks read them as Kupershmidt identities.
# Each bracket keeps its own (Bracket.ad_family, Bracket.coad_family).


def _ad_family(g: BracketLike) -> Representation:
    return Representation(g, adjoint_matrices(g), check=False)


def _coad_family(g: BracketLike) -> Representation:
    return Representation(g, tuple(-a.transpose() for a in adjoint_matrices(g)), check=False)


def rho_hat(rho: Representation, n_op: Matrix, s_op: Matrix) -> Representation:
    """Candidate action x -> rho(Nx) + rho(x)S - S rho(x).

    A representation of the N-deformed algebra whenever (N, S) is a
    Nijenhuis pair for rho; returned unchecked.
    """
    return _deformed_action(rho, n_op, s_op, add)


def rho_tilde(rho: Representation, n_op: Matrix, s_op: Matrix) -> Representation:
    """Candidate action x -> rho(Nx) - rho(x)S + S rho(x).

    A representation of the N-deformed algebra whenever (N, S) is a
    dual-Nijenhuis pair for rho; returned unchecked.
    """
    return _deformed_action(rho, n_op, s_op, sub)


def _deformed_action(rho: Representation, n_op: Matrix, s_op: Matrix, op) -> Representation:
    """x -> op(rho(Nx), [rho(x), S]), op being add or sub, read off the pair
    loop's terms (lieop.kernel.deformed_actions) and divided by their scale."""
    _check_pair_shapes(rho, n_op, s_op)
    (n_flat, s_flat), b = shared_images((n_op, s_op))
    image = rho.integer_image
    scale = image.scale * b
    mats = tuple(
        Matrix([divided(map(op, p, q), scale) for p, q in zip(act, c)])
        for act, c in deformed_actions(image, n_flat, s_flat)
    )
    return Representation(rho.algebra, mats, check=False)


def _check_pair_shapes(rho: Representation, n_op: Matrix, s_op: Matrix) -> None:
    n, m = rho.algebra.dim, rho.module_dim
    if n_op.shape != (n, n):
        raise ShapeError(f"N has shape {n_op.shape}, expected ({n},{n})")
    if s_op.shape != (m, m):
        raise ShapeError(f"S has shape {s_op.shape}, expected ({m},{m})")
