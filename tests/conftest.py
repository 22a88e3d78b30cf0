from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from lieop import LieAlgebra, Matrix, Vector, lie, operators, reps
from lieop.catalog import get_entry

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(n: int, m: int | None = None, elements=small_fractions):
    m = n if m is None else m
    return st.lists(
        st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(Matrix)


def vectors(n: int, elements=small_fractions):
    return st.lists(elements, min_size=n, max_size=n).map(Vector)


GRID = (Fraction(-1), Fraction(0), Fraction(1))


def count_rep_loops(monkeypatch):
    """Wrap the representation axiom loop, reps.check_representation,
    wherever a lieop module binds it; returns the list of its calls."""
    calls, real = [], reps.check_representation

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lieop" and getattr(module, "check_representation", None) is real:
            monkeypatch.setattr(module, "check_representation", counted)
    return calls


def count_bound_calls(monkeypatch, functions):
    """Wrap each function under every name that a lieop module binds it to
    (lie.deformed_algebra is also operators.deform_bracket_by_s); returns
    the list of the functions' own names, one per call."""
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "lieop":
            continue
        for name, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, name, counted(value))
    return calls


def count_bracket_builds(monkeypatch):
    """count_bound_calls over the two bracket builders, the deformed and
    the sub-adjacent bracket."""
    return count_bound_calls(monkeypatch, (lie.deformed_algebra, operators.sub_adjacent_bracket))


# [e1,e2] = 1/2 e1 + 1/3 e2: unequal denominators, in the adjoint and
# coadjoint actions too, so clearing them needs their lcm, 6; no single
# denominator would do.
MIXED_AFF1 = LieAlgebra.from_structure(2, {(0, 1): {0: Fraction(1, 2), 1: Fraction(1, 3)}})

# sl2 in the basis (h/2, e/3, f): structure constants 1, -1 and 2/3.
THIRD_SL2 = LieAlgebra.from_structure(
    3, {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: Fraction(2, 3)}}
)


@pytest.fixture(scope="session")
def aff1():
    return get_entry("aff1")


@pytest.fixture(scope="session")
def heis3():
    return get_entry("heis3")


@pytest.fixture(scope="session")
def sl2():
    return get_entry("sl2")


@pytest.fixture(scope="session")
def abelian2():
    return get_entry("abelian_2")
