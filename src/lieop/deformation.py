"""One-parameter infinitesimal deformations of an algebra with a representation.

A candidate deformation is a pair (omega, varpi): an antisymmetric bilinear
map omega on the algebra and a linear family varpi of module endomorphisms.
The t-parametrized family [x,y] + t omega(x,y), rho(x) + t varpi(x) is a
deformation exactly when four coefficient-wise conditions hold; those are
what check_deformation_pair tests, so the formal parameter never appears.

Both checks run lieop.kernel's integer loops (deformation_pair_defects,
trivial_equivalence_defects) over the images of g, omega, rho and varpi,
with N and S sharing one scale, and divide each defect by its scale for
the witness; they build no bracket and call neither Bracket.__call__ nor
Representation.act. The trivial deformation of a Nijenhuis pair is built
from the same terms: omega from the torsion loop's inner term (the
N-deformed bracket) and varpi from the pair loop's rho(Nx) and
[rho(x), S] (lie.deformed_algebra, reps.rho_hat).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import PreconditionFailure, ShapeError
from .kernel import deformation_pair_defects, shared_images, trivial_equivalence_defects
from .lie import Bracket, BracketLike, deformed_algebra
from .linalg import Matrix, Vector
from .report import CheckReport, Witness, report_from_witnesses
from .reps import Representation, _check_pair_shapes, rho_hat


@dataclass(frozen=True)
class DeformationPair:
    """Candidate 2-cochain and candidate action shift, both unvalidated."""

    omega: Bracket
    varpi: Representation

    def __post_init__(self):
        if self.omega.dim != self.varpi.algebra.dim:
            raise ShapeError(
                f"omega dim {self.omega.dim} != varpi algebra dim {self.varpi.algebra.dim}"
            )


def check_deformation_pair(
    g: BracketLike, rho: Representation, d: DeformationPair
) -> CheckReport:
    """The four conditions for (omega, varpi) to generate a deformation.

    cocycle:    [w(x,y),z] + [w(z,x),y] + [w(y,z),x]
                  = w(x,[y,z]) + w(z,[x,y]) + w(y,[z,x])
    omega_jacobi: cyclic sum w(w(x,y),z) = 0
    varpi_rep:  varpi(w(x,y)) = [varpi(x), varpi(y)]
    mixed:      rho(w(x,y)) + varpi([x,y]) = [rho(x),varpi(y)] + [varpi(x),rho(y)]
    """
    n = g.dim
    if d.omega.dim != n or rho.algebra.dim != n:
        raise ShapeError("deformation pair does not match the algebra")
    if d.varpi.module_dim != rho.module_dim:
        raise ShapeError("varpi module dim does not match rho")
    defects = deformation_pair_defects(
        g.integer_image, rho.integer_image, d.omega.integer_image, d.varpi.integer_image
    )
    return report_from_witnesses(_witnesses(defects), checked="deformation_pair")


def _witnesses(defects) -> Iterator[Witness]:
    """The witnesses of a deformation loop, each defect divided by its scale."""
    for label, indices, defect, scale in defects:
        if isinstance(defect[0], list):
            value = Matrix([[Fraction(c, scale) for c in row] for row in defect])
        else:
            value = Vector(Fraction(c, scale) for c in defect)
        yield Witness(label, indices, value)


def trivial_deformation_from_pair(
    g: BracketLike, rho: Representation, n_op: Matrix, s_op: Matrix
) -> DeformationPair:
    """The trivial deformation generated by a Nijenhuis pair (N, S):
    omega = [-,-]_N and varpi(x) = rho(Nx) + rho(x)S - S rho(x)."""
    from .operators import is_nijenhuis_pair  # predicate layer sits above

    pair = is_nijenhuis_pair(g, rho, n_op, s_op)
    if not pair.ok:
        raise PreconditionFailure("nijenhuis_pair", pair)
    return DeformationPair(
        omega=deformed_algebra(g, n_op),
        varpi=rho_hat(rho, n_op, s_op),
    )


def check_trivial_equivalence(
    g: BracketLike,
    rho: Representation,
    n_op: Matrix,
    s_op: Matrix,
    d: DeformationPair,
) -> CheckReport:
    """The four conditions for (Id + tN, Id + tS) to trivialize (omega, varpi).

    omega_match: omega(x,y) = [Nx,y] + [x,Ny] - N[x,y]
    n_morphism:  N omega(x,y) = [Nx,Ny]
    varpi_match: varpi(x) = rho(Nx) + rho(x)S - S rho(x)
    intertwine:  rho(Nx) S = S varpi(x)
    """
    _check_pair_shapes(rho, n_op, s_op)
    n, m = g.dim, rho.module_dim
    if d.omega.dim != n or d.varpi.module_dim != m:
        raise ShapeError("deformation pair does not match the algebra/module")
    if n_op.shape != (n, n):
        raise ShapeError(f"operator shape {n_op.shape} on algebra of dim {n}")
    (n_flat, s_flat), b = shared_images((n_op, s_op))
    defects = trivial_equivalence_defects(
        g.integer_image,
        rho.integer_image,
        d.omega.integer_image,
        d.varpi.integer_image,
        n_flat,
        s_flat,
        b,
    )
    return report_from_witnesses(_witnesses(defects), checked="trivial_equivalence")
