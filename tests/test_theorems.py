"""The paper's theorems, checked over every structure a grid search finds.

A KN structure (T, S, N) generates the hierarchy T_k = N^k T: each T_k is
Kupershmidt, any two are compatible, and T_k is a morphism from the
S^(k+i)-deformed sub-adjacent bracket to the N^i-deformed algebra. hierarchy()
verifies each of these claims and raises when one fails, so it must return
for every KN structure.
"""

from __future__ import annotations

import pytest

from lieop import hierarchy, is_kn_structure
from lieop.catalog import grid_search


@pytest.mark.parametrize("rep, count", (("adjoint", 116), ("coadjoint", 104)))
def test_kn_structures_generate_hierarchies(aff1, rep, count):
    g, rho = aff1.algebra, aff1.representations[rep]
    found = grid_search(g, rho, "kn_structure", (0, 1))
    assert len(found) == count
    for t_op, s_op, n_op in found:
        assert is_kn_structure(g, rho, t_op, s_op, n_op).ok
        ops = hierarchy(g, rho, t_op, s_op, n_op, 4)
        assert ops[0] == t_op and len(ops) == 5
