"""Exact verification of operator structures on finite-dimensional Lie algebras.

Everything computes over arbitrary-precision rationals, so each algebraic
identity in the library is an exact equality check with zero tolerance.
"""

from .errors import (
    DocumentError,
    GridCapExceeded,
    LieopError,
    NoSolution,
    NotInvertible,
    PreconditionFailure,
    ShapeError,
    StructureCheckError,
    ValidationError,
)
from .linalg import (
    Matrix,
    Vector,
    block_diag,
    commutator,
    det,
    format_rational,
    invert,
    is_invertible,
    mat_mul,
    parse_rational,
    rational,
    solve,
)
from .lie import (
    Bracket,
    LieAlgebra,
    ad_action,
    adjoint_matrices,
    check_jacobi,
    deformed_algebra,
    promote,
    semidirect_product,
)
from .reps import (
    Representation,
    adjoint_rep,
    check_representation,
    coadjoint_rep,
    dual_representation,
    rho_hat,
    rho_tilde,
)
from .deformation import (
    DeformationPair,
    check_deformation_pair,
    check_trivial_equivalence,
    trivial_deformation_from_pair,
)
from .operators import (
    PreLieProduct,
    check_pre_lie,
    deform_bracket_by_s,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_perfect_pair,
    is_rota_baxter,
    kupershmidt_defect,
    nijenhuis_defect,
    nijenhuis_pair_semidirect_test,
    pre_lie_nijenhuis,
    pre_lie_product,
    sub_adjacent_bracket,
)
from .structures import (
    BilinearForm,
    Bivector,
    are_compatible_kupershmidt,
    check_bilinear_form,
    check_nt_kupershmidt_condition,
    compatible_via_combos,
    hierarchy,
    is_kdn_structure,
    is_kn_structure,
    is_r_matrix,
    is_r_matrix_nijenhuis,
    is_rbn_structure,
    is_skew_endomorphism,
    kdn_from_compatible,
    kn_certificates,
    nijenhuis_from_kupershmidt_pair,
    rbn_certificates,
    rbn_to_rmn,
    rmn_certificates,
    rmn_to_rbn,
)
from .report import CheckReport, Witness
from .catalog import CatalogEntry, get_entry, grid_search, list_catalog

__all__ = [name for name in dir() if not name.startswith("_")]
