"""One-parameter infinitesimal deformations of an algebra with a representation.

A candidate deformation is a pair (omega, varpi): an antisymmetric bilinear
map omega on the algebra and a linear family varpi of module endomorphisms.
The t-parametrized family [x,y] + t omega(x,y), rho(x) + t varpi(x) is a
deformation exactly when four coefficient-wise conditions hold; those are
what check_deformation_pair tests, so the formal parameter never appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionFailure, ShapeError
from .lie import Bracket, BracketLike, deformed_algebra
from .linalg import Matrix, Vector, commutator, mat_mul
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
    w = d.omega
    vp = d.varpi
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
    witnesses = []
    expected_omega = deformed_algebra(g, n_op)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = Vector.basis(n, i), Vector.basis(n, j)
            omega_match = d.omega(x, y) - expected_omega(x, y)
            if not omega_match.is_zero():
                witnesses.append(Witness("omega_match", (i, j), omega_match))
            n_morphism = (n_op @ d.omega(x, y)) - g(n_op @ x, n_op @ y)
            if not n_morphism.is_zero():
                witnesses.append(Witness("n_morphism", (i, j), n_morphism))
    for i in range(n):
        rnx = rho.act(n_op.column(i))
        varpi_match = d.varpi.matrices[i] - (
            rnx + commutator(rho.matrices[i], s_op)
        )
        if not varpi_match.is_zero():
            witnesses.append(Witness("varpi_match", (i,), varpi_match))
        intertwine = mat_mul(rnx, s_op) - mat_mul(s_op, d.varpi.matrices[i])
        if not intertwine.is_zero():
            witnesses.append(Witness("intertwine", (i,), intertwine))
    return report_from_witnesses(witnesses, checked="trivial_equivalence")
