"""The registry of structure kinds: one row per kind lieop can check.

A row gives the kind's `lieop check` name and its catalog and search name,
the stanzas its predicate reads, in the order it reads them, and the
predicate itself, which returns a CheckReport; the kn, kdn, rbn and rmn
rows also build the two brackets their check compares, for `lieop check
--json`. `lieop check`, catalog verification and `grid_search` read their
kinds from these rows. Stanzas: `rho` (the representation, validated),
`rho_unchecked` (as given, for the axiom check itself), the operator keys
of OPERATOR_SHAPES, `bilinear_form` and `deformation`.

Each predicate and certificates function is called through this module's
global name, inside a lambda, so that rebinding that name (as a tracer
does) reaches the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .deformation import check_deformation_pair, check_trivial_equivalence
from .lie import check_jacobi
from .operators import (
    check_pre_lie,
    is_dual_nijenhuis_pair,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_perfect_pair,
    is_rota_baxter,
    nijenhuis_pair_semidirect_test,
    pre_lie_product,
)
from .reps import check_representation
from .structures import (
    are_compatible_kupershmidt,
    check_bilinear_form,
    check_nt_kupershmidt_condition,
    is_kdn_structure,
    is_kn_structure,
    is_r_matrix,
    is_r_matrix_nijenhuis,
    is_rbn_structure,
    is_skew_endomorphism,
    kn_certificates,
    rbn_certificates,
    rmn_certificates,
)


@dataclass(frozen=True)
class OperatorShape:
    """Rows and columns, each "n" (the algebra's dimension) or "m" (the
    module's). An antisymmetric operator is a bivector's matrix: documents
    hold it in the bivector stanza and predicates take it as a Bivector."""

    rows: str
    cols: str
    antisymmetric: bool = False

    def dims(self, n: int, m: int) -> tuple[int, int]:
        size = {"n": n, "m": m}
        return size[self.rows], size[self.cols]

    def free_entries(self, n: int, m: int) -> int:
        rows, cols = self.dims(n, m)
        return rows * (rows - 1) // 2 if self.antisymmetric else rows * cols


OPERATOR_SHAPES = {
    "N": OperatorShape("n", "n"),
    "S": OperatorShape("m", "m"),
    "T": OperatorShape("n", "m"),
    "R": OperatorShape("n", "n"),
    "T2": OperatorShape("n", "m"),
    "pi_sharp": OperatorShape("n", "n", antisymmetric=True),
}


@dataclass(frozen=True)
class Kind:
    """check(g, *stanza values) returns a CheckReport; certificates(g, *stanza
    values), where given, returns the named brackets the check compares."""

    name: str
    stanzas: tuple[str, ...]
    check: Callable[..., object]
    catalog_name: Optional[str] = None  # where it differs from name
    # False for the Jacobi check, which reads the bracket as parsed.
    promote: bool = True
    certificates: Optional[Callable[..., dict]] = None

    def __post_init__(self):
        if self.catalog_name is None:
            object.__setattr__(self, "catalog_name", self.name)

    @property
    def operator_keys(self) -> tuple[str, ...]:
        return tuple(s for s in self.stanzas if s in OPERATOR_SHAPES)

    @property
    def needs_rho(self) -> bool:
        return "rho" in self.stanzas

    def slots(self, n: int, m: int) -> int:
        """The free entries of the kind's operators: its grid's exponent."""
        return sum(OPERATOR_SHAPES[key].free_entries(n, m) for key in self.operator_keys)


_PAIR = ("rho", "N", "S")
_TRIPLE = ("rho", "T", "S", "N")

# In `lieop check --help` order.
_ROWS = (
    Kind("jacobi", (), lambda b: check_jacobi(b), promote=False),
    Kind("representation", ("rho_unchecked",), lambda g, rho: check_representation(rho)),
    Kind("nijenhuis", ("N",), lambda *a: is_nijenhuis(*a)),
    Kind("rota_baxter", ("R",), lambda *a: is_rota_baxter(*a)),
    Kind("kupershmidt", ("rho", "T"), lambda *a: is_kupershmidt(*a)),
    Kind("nijenhuis_pair", _PAIR, lambda *a: is_nijenhuis_pair(*a)),
    Kind("dual_nijenhuis_pair", _PAIR, lambda *a: is_dual_nijenhuis_pair(*a)),
    Kind("perfect_pair", _PAIR, lambda *a: is_perfect_pair(*a)),
    Kind("pair_semidirect", _PAIR, lambda *a: nijenhuis_pair_semidirect_test(*a)),
    Kind("pre_lie", ("rho", "T"), lambda *a: check_pre_lie(pre_lie_product(*a))),
    Kind(
        "kn", _TRIPLE, lambda *a: is_kn_structure(*a), "kn_structure",
        certificates=lambda *a: kn_certificates(*a),
    ),
    Kind(
        "kdn", _TRIPLE, lambda *a: is_kdn_structure(*a), "kdn_structure",
        certificates=lambda *a: kn_certificates(*a),
    ),
    Kind(
        "compatible", ("rho", "T", "T2"), lambda *a: are_compatible_kupershmidt(*a),
        "compatible_pair",
    ),
    Kind("nt_condition", ("rho", "T", "N"), lambda *a: check_nt_kupershmidt_condition(*a)),
    Kind("r_matrix", ("pi_sharp",), lambda *a: is_r_matrix(*a)),
    Kind(
        "rmn", ("N", "pi_sharp"), lambda g, n, pi: is_r_matrix_nijenhuis(g, pi, n),
        "rmn_structure", certificates=lambda g, n, pi: rmn_certificates(g, pi, n),
    ),
    Kind(
        "rbn", ("R", "N"), lambda *a: is_rbn_structure(*a), "rbn_structure",
        certificates=lambda *a: rbn_certificates(*a),
    ),
    Kind("bilinear_form", ("bilinear_form",), lambda *a: check_bilinear_form(*a)),
    Kind("skew", ("R", "bilinear_form"), lambda *a: is_skew_endomorphism(*a)),
    Kind("deformation_pair", ("rho", "deformation"), lambda *a: check_deformation_pair(*a)),
    Kind(
        "trivial_equivalence", (*_PAIR, "deformation"), lambda *a: check_trivial_equivalence(*a)
    ),
)

KINDS = {row.name: row for row in _ROWS}
CATALOG_KINDS = {row.catalog_name: row for row in _ROWS}

# The kinds grid_search enumerates, in `lieop search --help` order.
SEARCH_KINDS = (
    "nijenhuis",
    "rota_baxter",
    "kupershmidt",
    "nijenhuis_pair",
    "kn_structure",
    "r_matrix",
    "compatible_pair",
)
