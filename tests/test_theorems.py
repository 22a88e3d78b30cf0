"""The paper's theorems, checked over every structure a grid search finds.

A KN structure (T, S, N) generates the hierarchy T_k = N^k T: each T_k is
Kupershmidt, any two are compatible, and T_k is a morphism from the
S^(k+i)-deformed sub-adjacent bracket to the N^i-deformed algebra. hierarchy()
verifies each of these claims and raises when one fails, so it must return
for every KN structure.

The morphism identity's right side [T_k u, T_k v]_{N^i} is a bilinear
antisymmetric form in T_k u and T_k v, so on a 2-dimensional algebra it
vanishes unless T_k has rank 2. On aff1's adjoint action no Kupershmidt T
does (its inverse would be an invertible derivation, and every derivation
of aff1 is inner), so those results cannot tell one power of N from
another; some coadjoint results over {-1, 0, 1} can. So can 4 of the
8,356 heis3 coadjoint results over {0, 1}, the first 3-dimensional case;
the hierarchy is run on those, and on every 16th result.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from lieop import deformed_algebra, hierarchy, is_kn_structure
from lieop.catalog import get_entry, grid_search


@pytest.mark.parametrize("rep, count", (("adjoint", 116), ("coadjoint", 104)))
def test_kn_structures_generate_hierarchies(aff1, rep, count):
    g, rho = aff1.algebra, aff1.representations[rep]
    found = grid_search(g, rho, "kn_structure", (0, 1))
    assert len(found) == count
    for t_op, s_op, n_op in found:
        assert is_kn_structure(g, rho, t_op, s_op, n_op).ok
        ops = hierarchy(g, rho, t_op, s_op, n_op, 4)
        assert ops[0] == t_op and len(ops) == 5


def test_kn_structures_tell_the_powers_of_n_apart(aff1):
    g, rho = aff1.algebra, aff1.representations["coadjoint"]
    found = grid_search(g, rho, "kn_structure", (-1, 0, 1))
    assert len(found) == 1101
    telling = 0
    for t_op, s_op, n_op in found:
        ops = hierarchy(g, rho, t_op, s_op, n_op, 4)
        assert ops[0] == t_op and len(ops) == 5
        # At k = i = 0 the identity reads T[u,v]^T = [Tu,Tv]; read at N^1
        # instead, it fails wherever [Tu,Tv] and [Tu,Tv]_N differ.
        u, v = t_op.column(0), t_op.column(1)
        telling += g(u, v) != deformed_algebra(g, n_op)(u, v)
    assert telling == 36


def _telling(g, found):
    """The results with [Tu,Tv] != [Tu,Tv]_N at some module basis pair:
    those on which the morphism identity, read at the wrong power of N,
    fails at k = i = 0."""
    deformed = {}
    for t_op, s_op, n_op in found:
        if n_op.rows not in deformed:
            deformed[n_op.rows] = deformed_algebra(g, n_op)
        g_n = deformed[n_op.rows]
        cols = [t_op.column(a) for a in range(t_op.ncols)]
        if any(g(u, v) != g_n(u, v) for u, v in combinations(cols, 2)):
            yield t_op, s_op, n_op


def test_heis3_kn_structures_that_tell_the_powers_apart_generate_hierarchies():
    # 2^27 nominal candidates, over the default cap.
    entry = get_entry("heis3")
    g, rho = entry.algebra, entry.representations["coadjoint"]
    found = grid_search(g, rho, "kn_structure", (0, 1), cap=2**27)
    assert len(found) == 8356
    telling = list(_telling(g, found))
    assert len(telling) == 4
    for t_op, s_op, n_op in telling:
        ops = hierarchy(g, rho, t_op, s_op, n_op, 4)
        assert ops[0] == t_op and len(ops) == 5


def test_heis3_kn_structures_generate_hierarchies_on_a_fixed_slice():
    # Every 16th of the 8,356 results, in the search's order.
    entry = get_entry("heis3")
    g, rho = entry.algebra, entry.representations["coadjoint"]
    found = grid_search(g, rho, "kn_structure", (0, 1), cap=2**27)
    sliced = found[::16]
    assert len(sliced) == 523
    for t_op, s_op, n_op in sliced:
        ops = hierarchy(g, rho, t_op, s_op, n_op, 4)
        assert ops[0] == t_op and len(ops) == 5
