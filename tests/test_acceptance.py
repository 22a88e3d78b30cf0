"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Everything asserts exact equality; there
are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from lieop import (
    BilinearForm,
    Bivector,
    Matrix,
    Vector,
    ad_action,
    are_compatible_kupershmidt,
    check_bilinear_form,
    check_deformation_pair,
    check_jacobi,
    check_representation,
    check_trivial_equivalence,
    deform_bracket_by_s,
    deformed_algebra,
    hierarchy,
    invert,
    is_dual_nijenhuis_pair,
    is_invertible,
    is_kdn_structure,
    is_kn_structure,
    is_kupershmidt,
    is_nijenhuis,
    is_nijenhuis_pair,
    is_r_matrix,
    is_r_matrix_nijenhuis,
    is_rbn_structure,
    is_rota_baxter,
    kdn_from_compatible,
    mat_mul,
    nijenhuis_pair_semidirect_test,
    promote,
    rbn_to_rmn,
    rho_hat,
    rho_tilde,
    rmn_to_rbn,
    semidirect_product,
    sub_adjacent_bracket,
    trivial_deformation_from_pair,
)
from lieop.catalog import get_entry, grid_search, list_catalog
from lieop.cli import main
from lieop.reps import adjoint_rep, dual_representation
from lieop.structures import compatible_via_combos

from fixtures import write_fixtures

GRID3 = (Fraction(-1), Fraction(0), Fraction(1))


def _finish(number: int, label: str, budget: float, t0: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _catalog_structures():
    """All KN/KdN triples asserted by the catalog, with their kind."""
    out = []
    for name in list_catalog():
        entry = get_entry(name)
        for op in entry.operators:
            if op.kind in ("kn_structure", "kdn_structure"):
                out.append(
                    (
                        entry.algebra,
                        entry.representations[op.rep],
                        op.matrices["T"],
                        op.matrices["S"],
                        op.matrices["N"],
                        op.kind,
                    )
                )
    return out


def _trivial_families():
    """(T, lambda Id, lambda Id) over catalog Kupershmidt operators; these
    are simultaneously KN and KdN since scalar pairs are perfect."""
    out = []
    seeds = [
        ("aff1", "adjoint", Matrix.diagonal([1, 0])),
        ("aff1", "coadjoint", Matrix([[0, 1], [-1, 0]])),
        ("heis3", "adjoint", Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])),
        ("abelian_2", "adjoint", Matrix.identity(2)),
    ]
    lams = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))
    for name, rep, t_op in seeds:
        entry = get_entry(name)
        rho = entry.representations[rep]
        for lam in lams:
            scalar = Matrix.identity(rho.module_dim).scale(lam)
            out.append((entry.algebra, rho, t_op, scalar, scalar, "both"))
    return out


class TestAcceptance:
    def test_criterion_1_foundation(self):
        t0 = time.monotonic()
        for name in list_catalog():
            g = get_entry(name).algebra
            assert check_jacobi(g).ok
            ad = adjoint_rep(g)
            assert check_representation(ad).ok
            assert check_representation(dual_representation(ad)).ok
            assert check_jacobi(semidirect_product(g, ad)).ok
        _finish(1, "foundation", 1.0, t0)

    def test_criterion_2_deformations(self):
        t0 = time.monotonic()
        families = []
        aff1 = get_entry("aff1")
        families.append(
            (
                aff1.algebra,
                aff1.representations["adjoint"],
                [
                    (Matrix([c[0:2], c[2:4]]), Matrix([c[4:6], c[6:8]]))
                    for c in itertools.product(GRID3, repeat=8)
                ],
            )
        )
        heis3 = get_entry("heis3")
        families.append(
            (
                heis3.algebra,
                heis3.representations["adjoint"],
                [
                    (Matrix.diagonal(c[:3]), Matrix.diagonal(c[3:]))
                    for c in itertools.product(GRID3, repeat=6)
                ],
            )
        )
        failing = 0
        for g, rho, pairs in families:
            dual = dual_representation(rho)
            for n_op, s_op in pairs:
                direct = is_nijenhuis_pair(g, rho, n_op, s_op).ok
                transposed = is_nijenhuis_pair(g, dual, n_op, s_op.transpose()).ok
                assert is_dual_nijenhuis_pair(g, rho, n_op, s_op).ok == transposed
                assert nijenhuis_pair_semidirect_test(g, rho, n_op, s_op).ok == direct
                if direct:
                    d = trivial_deformation_from_pair(g, rho, n_op, s_op)
                    assert check_deformation_pair(g, rho, d).ok
                    assert check_trivial_equivalence(g, rho, n_op, s_op, d).ok
                else:
                    failing += 1
        assert failing >= 5
        _finish(2, "deformation suite", 30.0, t0)

    def test_criterion_3_compatible_structures(self):
        t0 = time.monotonic()
        for g, rho, t_op, s_op, n_op, kind in _catalog_structures() + _trivial_families():
            kn = is_kn_structure(g, rho, t_op, s_op, n_op)
            kdn = is_kdn_structure(g, rho, t_op, s_op, n_op)
            if kind == "kn_structure":
                assert kn.ok
            elif kind == "kdn_structure":
                assert kdn.ok
            else:
                assert kn.ok and kdn.ok

            base = sub_adjacent_bracket(g, rho, t_op)
            deformed = deform_bracket_by_s(base, s_op)
            via_nt = sub_adjacent_bracket(g, rho, mat_mul(n_op, t_op))
            assert deformed == via_nt
            if kn.ok:
                assert deformed == sub_adjacent_bracket(g, rho_hat(rho, n_op, s_op), t_op)
            if kdn.ok:
                assert deformed == sub_adjacent_bracket(g, rho_tilde(rho, n_op, s_op), t_op)

            assert is_nijenhuis(promote(base), s_op).ok

            def_alg = deformed_algebra(g, n_op)
            if kn.ok:
                assert is_kupershmidt(def_alg, rho_hat(rho, n_op, s_op), t_op).ok
            if kdn.ok:
                assert is_kupershmidt(def_alg, rho_tilde(rho, n_op, s_op), t_op).ok
            assert is_kupershmidt(g, rho, mat_mul(n_op, t_op)).ok

            if kn.ok and is_invertible(t_op):
                assert kdn.ok
        _finish(3, "KN/KdN structure suite", 30.0, t0)

    def test_criterion_4_compatibility_and_hierarchies(self):
        t0 = time.monotonic()
        aff1 = get_entry("aff1")
        g = aff1.algebra
        for rep_name in ("adjoint", "coadjoint"):
            rho = aff1.representations[rep_name]
            ops = grid_search(g, rho, "kupershmidt", GRID3)
            for t1, t2 in itertools.product(ops, repeat=2):
                assert (
                    are_compatible_kupershmidt(g, rho, t1, t2).ok
                    == compatible_via_combos(g, rho, t1, t2)
                )
            inv = [t for t in ops if is_invertible(t)]
            if rep_name == "adjoint":
                # no invertible Rota-Baxter operator exists on aff1, so the
                # adjoint sweep of the biconditional is vacuous
                assert not inv
            else:
                assert inv
            for t1, t2 in itertools.product(inv, repeat=2):
                assert (
                    are_compatible_kupershmidt(g, rho, t1, t2).ok
                    == is_nijenhuis(g, mat_mul(t1, invert(t2))).ok
                )

        for g2, rho2, t_op, s_op, n_op, _ in _catalog_structures():
            ops = hierarchy(g2, rho2, t_op, s_op, n_op, 5)
            assert len(ops) == 6 and ops[0] == t_op

        coad = aff1.representations["coadjoint"]
        inv = [t for t in grid_search(g, coad, "kupershmidt", GRID3) if is_invertible(t)]
        verified = 0
        for t_op, t1_op in itertools.product(inv, repeat=2):
            if are_compatible_kupershmidt(g, coad, t_op, t1_op).ok:
                first, second = kdn_from_compatible(g, coad, t_op, t1_op)
                assert first.ok and second.ok
                verified += 1
        assert verified > 0
        _finish(4, "compatibility and hierarchies", 60.0, t0)

    def test_criterion_5_forms_and_conversions(self):
        t0 = time.monotonic()
        sl2 = get_entry("sl2")
        g = sl2.algebra
        killing = Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        recomputed = Matrix(
            [
                [mat_mul(ad_action(g, Vector.basis(3, i)), ad_action(g, Vector.basis(3, j))).trace() for j in range(3)]
                for i in range(3)
            ]
        )
        assert recomputed == killing
        form = BilinearForm(killing)
        assert check_bilinear_form(g, form).ok

        r_op = next(o for o in sl2.operators if o.name == "rb_skew").matrices["R"]
        n_op = Matrix.identity(3)
        pi, n1 = rbn_to_rmn(g, r_op, n_op, form)
        assert is_r_matrix_nijenhuis(g, pi, n1).ok
        r_back, n2 = rmn_to_rbn(g, pi, n1, form)
        assert (r_back, n2) == (r_op, n_op)
        assert is_rbn_structure(g, r_back, n2).ok
        assert json.dumps(r_back.to_json()) == json.dumps(r_op.to_json())

        for name in ("aff1", "heis3"):
            entry = get_entry(name)
            g2, coad = entry.algebra, entry.representations["coadjoint"]
            n = g2.dim
            for combo in itertools.product(GRID3, repeat=n * (n - 1) // 2):
                rows = [[Fraction(0)] * n for _ in range(n)]
                it = iter(combo)
                for i in range(n):
                    for j in range(i + 1, n):
                        c = next(it)
                        rows[i][j] = c
                        rows[j][i] = -c
                mat = Matrix(rows)
                assert is_r_matrix(g2, Bivector(mat)).ok == is_kupershmidt(g2, coad, mat).ok
        _finish(5, "forms and conversions", 30.0, t0)

    def test_criterion_6_oracle_consistency(self):
        t0 = time.monotonic()
        g = get_entry("aff1").algebra
        found = grid_search(g, None, "rota_baxter", GRID3)
        brute = [
            m
            for m in (
                Matrix([c[:2], c[2:]]) for c in itertools.product(GRID3, repeat=4)
            )
            if is_rota_baxter(g, m).ok
        ]
        assert len(brute) == len(found) and set(found) == set(brute)
        for expected in (
            Matrix.diagonal([1, 0]),
            Matrix.diagonal([-1, 0]),
            Matrix.zeros(2, 2),
        ):
            assert expected in found
        _finish(6, "oracle consistency", 1.0, t0)

    def test_criterion_7_cli_contract(self, tmp_path, capsys):
        t0 = time.monotonic()
        docs = write_fixtures(tmp_path)
        assert len(docs) >= 12
        expectations = [
            (0, ["validate", str(docs["aff1_kn"])]),
            (0, ["validate", str(docs["sl2_rbn"])]),
            (0, ["check", "kn", str(docs["aff1_kn"])]),
            (0, ["check", "kdn", str(docs["aff1_kdn"])]),
            (0, ["check", "kn", str(docs["heis3_kn"])]),
            (0, ["check", "kn", str(docs["abelian_kn"])]),
            (0, ["check", "nijenhuis", str(docs["aff1_nij"])]),
            (0, ["check", "r_matrix", str(docs["aff1_rmatrix"])]),
            (0, ["check", "rbn", str(docs["sl2_rbn"])]),
            (0, ["check", "deformation_pair", str(docs["aff1_deformation"])]),
            (0, ["check", "trivial_equivalence", str(docs["aff1_deformation"])]),
            (0, ["hierarchy", str(docs["aff1_kn"]), "--kmax", "4"]),
            (1, ["validate", str(docs["broken_jacobi"])]),
            (1, ["validate", str(docs["broken_rep"])]),
            (1, ["check", "rbn", str(docs["aff1_bad_rbn"])]),
            (1, ["check", "nijenhuis_pair", str(docs["aff1_bad_pair"])]),
            (1, ["check", "kn", str(docs["aff1_bad_kn"])]),
            (1, ["hierarchy", str(docs["aff1_bad_kn"])]),
            (2, ["validate", str(docs["malformed_rational"])]),
            (2, ["check", "rbn", str(docs["aff1_nij"])]),
            (2, ["check", "bilinear_form", str(docs["aff1_kn"])]),
            (2, ["validate", str(tmp_path / "missing.json")]),
            (2, ["convert", "rbn-to-rmn", str(docs["aff1_kn"])]),
        ]
        for expected, argv in expectations:
            code = main(argv + ["--quiet"])
            assert code == expected, f"{argv} -> {code}, expected {expected}"
        capsys.readouterr()

        stable_targets = [
            ["check", "kn", str(docs["aff1_kn"]), "--json"],
            ["check", "nijenhuis_pair", str(docs["aff1_bad_pair"]), "--json"],
            ["search", "rota_baxter", "--algebra", "aff1", "--grid", "-1,0,1", "--json"],
        ]
        for argv in stable_targets:
            outputs = []
            for _ in range(2):
                main(argv)
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            payload = json.loads(outputs[0])
            if "verdict" in payload:
                assert payload["verdict"] in ("pass", "fail")
        _finish(7, "CLI contract", 30.0, t0)
