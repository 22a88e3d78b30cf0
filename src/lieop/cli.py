"""Command-line front end.

Exit codes, never conflated:
  0  every requested check passed
  1  a mathematical check (or one of its hypotheses) failed
  2  input or usage error: unreadable/malformed document, missing stanza,
     unknown kind or catalog name, search cap exceeded

Subcommands: validate, check <kind>, hierarchy, convert <direction>,
search <kind>, catalog list|export. --json emits machine-readable reports
with stable field names; --quiet suppresses the human-readable text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import GRID_CAP, SEARCH_KINDS, get_entry, grid_search, list_catalog
from .deformation import check_deformation_pair, check_trivial_equivalence
from .documents import (
    Document,
    document_dict,
    load_document,
    serialize,
)
from .errors import (
    DocumentError,
    GridCapExceeded,
    LieopError,
    PreconditionFailure,
    StructureCheckError,
    ValidationError,
)
from .lie import check_jacobi
from .linalg import Matrix, parse_rational
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
from .report import CheckReport
from .reps import Representation, check_representation
from .structures import (
    Bivector,
    StructureVerdict,
    are_compatible_kupershmidt,
    check_bilinear_form,
    check_nt_kupershmidt_condition,
    hierarchy,
    is_kdn_structure,
    is_kn_structure,
    is_r_matrix,
    is_r_matrix_nijenhuis,
    is_rbn_structure,
    is_skew_endomorphism,
    rbn_to_rmn,
    rmn_to_rbn,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _Output:
    def __init__(self, as_json: bool, quiet: bool):
        self.as_json = as_json
        self.quiet = quiet

    def text(self, line: str = "") -> None:
        if not self.as_json and not self.quiet:
            print(line)

    def json(self, payload: dict) -> None:
        if self.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))


def _report_payload(kind: str, report: CheckReport, certificates=None, precondition=None):
    return {
        "kind": kind,
        "verdict": "pass" if report.ok else "fail",
        "precondition": precondition,
        "witnesses": [w.to_json() for w in report.witnesses],
        "certificates": {
            name: obj.to_json() for name, obj in (certificates or {}).items()
        },
    }


def _print_report(out: _Output, kind: str, report: CheckReport, precondition=None):
    if precondition is not None:
        out.text(f"{kind}: FAIL (hypothesis '{precondition}' does not hold)")
    elif report.ok:
        out.text(f"{kind}: PASS")
    else:
        out.text(f"{kind}: FAIL ({len(report.witnesses)} witness(es))")
    for w in report.witnesses:
        indices = ", ".join(str(i) for i in w.indices)
        out.text(f"  {w.condition} at ({indices}): defect {w.defect}")


def _emit(out: _Output, kind: str, report: CheckReport, certificates=None, precondition=None) -> int:
    _print_report(out, kind, report, precondition)
    out.json(_report_payload(kind, report, certificates, precondition))
    return EXIT_OK if report.ok and precondition is None else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------


def _need_ops(doc: Document, *keys: str) -> list[Matrix]:
    got = []
    for key in keys:
        if key not in doc.operators:
            raise DocumentError(f"operators.{key}", "stanza missing")
        got.append(doc.operators[key])
    return got


def _run_check(kind: str, doc: Document):
    g = doc.algebra()
    if kind == "jacobi":
        return check_jacobi(g)
    if kind == "representation":
        if doc.rep_matrices is None:
            raise DocumentError("representation", "stanza missing")
        return check_representation(Representation(g, doc.rep_matrices, check=False))
    if kind == "nijenhuis":
        (n_op,) = _need_ops(doc, "N")
        return is_nijenhuis(g, n_op)
    if kind == "rota_baxter":
        (r_op,) = _need_ops(doc, "R")
        return is_rota_baxter(g, r_op)
    if kind == "kupershmidt":
        rho = doc.representation(g)
        (t_op,) = _need_ops(doc, "T")
        return is_kupershmidt(g, rho, t_op)
    if kind in ("nijenhuis_pair", "dual_nijenhuis_pair", "perfect_pair", "pair_semidirect"):
        rho = doc.representation(g)
        n_op, s_op = _need_ops(doc, "N", "S")
        runner = {
            "nijenhuis_pair": is_nijenhuis_pair,
            "dual_nijenhuis_pair": is_dual_nijenhuis_pair,
            "perfect_pair": is_perfect_pair,
            "pair_semidirect": nijenhuis_pair_semidirect_test,
        }[kind]
        return runner(g, rho, n_op, s_op)
    if kind == "pre_lie":
        rho = doc.representation(g)
        (t_op,) = _need_ops(doc, "T")
        return check_pre_lie(pre_lie_product(g, rho, t_op))
    if kind in ("kn", "kdn"):
        rho = doc.representation(g)
        t_op, s_op, n_op = _need_ops(doc, "T", "S", "N")
        runner = is_kn_structure if kind == "kn" else is_kdn_structure
        return runner(g, rho, t_op, s_op, n_op)
    if kind == "compatible":
        rho = doc.representation(g)
        t_op, t2_op = _need_ops(doc, "T", "T2")
        return are_compatible_kupershmidt(g, rho, t_op, t2_op)
    if kind == "nt_condition":
        rho = doc.representation(g)
        t_op, n_op = _need_ops(doc, "T", "N")
        return check_nt_kupershmidt_condition(g, rho, t_op, n_op)
    if kind == "r_matrix":
        return is_r_matrix(g, doc.bivector())
    if kind == "rmn":
        (n_op,) = _need_ops(doc, "N")
        return is_r_matrix_nijenhuis(g, doc.bivector(), n_op)
    if kind == "rbn":
        r_op, n_op = _need_ops(doc, "R", "N")
        return is_rbn_structure(g, r_op, n_op)
    if kind == "bilinear_form":
        return check_bilinear_form(g, doc.bilinear_form())
    if kind == "skew":
        (r_op,) = _need_ops(doc, "R")
        return is_skew_endomorphism(g, r_op, doc.bilinear_form())
    if kind == "deformation_pair":
        rho = doc.representation(g)
        return check_deformation_pair(g, rho, doc.deformation_pair(g))
    if kind == "trivial_equivalence":
        rho = doc.representation(g)
        n_op, s_op = _need_ops(doc, "N", "S")
        return check_trivial_equivalence(g, rho, n_op, s_op, doc.deformation_pair(g))
    raise DocumentError("kind", f"unknown check kind {kind!r}")


CHECK_KINDS = (
    "jacobi",
    "representation",
    "nijenhuis",
    "rota_baxter",
    "kupershmidt",
    "nijenhuis_pair",
    "dual_nijenhuis_pair",
    "perfect_pair",
    "pair_semidirect",
    "pre_lie",
    "kn",
    "kdn",
    "compatible",
    "nt_condition",
    "r_matrix",
    "rmn",
    "rbn",
    "bilinear_form",
    "skew",
    "deformation_pair",
    "trivial_equivalence",
)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, out: _Output) -> int:
    doc = load_document(args.file)
    payload = {"kind": "validate", "checks": {}, "verdict": "pass"}
    failed = False

    jacobi = check_jacobi(doc.bracket)
    payload["checks"]["jacobi"] = _report_payload("jacobi", jacobi)
    _print_report(out, "jacobi", jacobi)
    failed = failed or not jacobi.ok

    if doc.rep_matrices is not None:
        rho = Representation(doc.bracket, doc.rep_matrices, check=False)
        rep = check_representation(rho)
        payload["checks"]["representation"] = _report_payload("representation", rep)
        _print_report(out, "representation", rep)
        failed = failed or not rep.ok

    payload["verdict"] = "fail" if failed else "pass"
    out.json(payload)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_check(args, out: _Output) -> int:
    doc = load_document(args.file)
    try:
        result = _run_check(args.kind, doc)
    except PreconditionFailure as exc:
        report = exc.report or CheckReport(False, ())
        return _emit(out, args.kind, report, precondition=exc.name)
    if isinstance(result, StructureVerdict):
        return _emit(out, args.kind, result.report, result.certificates)
    return _emit(out, args.kind, result)


def cmd_hierarchy(args, out: _Output) -> int:
    if args.kmax < 0:
        raise DocumentError("kmax", f"must be >= 0, got {args.kmax}")
    doc = load_document(args.file)
    g = doc.algebra()
    rho = doc.representation(g)
    if not all(k in doc.operators for k in ("T", "S", "N")):
        raise DocumentError("operators", "hierarchy requires T, S and N")
    t_op, s_op, n_op = (doc.operators[k] for k in ("T", "S", "N"))
    try:
        ops = hierarchy(g, rho, t_op, s_op, n_op, args.kmax)
    except PreconditionFailure as exc:
        report = exc.report or CheckReport(False, ())
        return _emit(out, "hierarchy", report, precondition=exc.name)
    # hierarchy() raises unless every T_k is Kupershmidt and every pair is
    # compatible, so both tables report what it has already verified.
    for k, op in enumerate(ops):
        out.text(f"T_{k} (kupershmidt: pass):")
        for line in str(op).splitlines():
            out.text(f"  {line}")
    out.text("pairwise compatibility: all pass")
    out.json(
        {
            "kind": "hierarchy",
            "verdict": "pass",
            "k_max": args.kmax,
            "operators": [op.to_json() for op in ops],
            "kupershmidt": [True] * len(ops),
            "compatible": [[True] * len(ops) for _ in ops],
        }
    )
    return EXIT_OK


def cmd_convert(args, out: _Output) -> int:
    doc = load_document(args.file)
    g = doc.algebra()
    form = doc.bilinear_form()
    if args.direction == "rbn-to-rmn":
        r_op, n_op = _need_ops(doc, "R", "N")
        try:
            pi, n_out = rbn_to_rmn(g, r_op, n_op, form)
        except PreconditionFailure as exc:
            report = exc.report or CheckReport(False, ())
            return _emit(out, "rbn-to-rmn", report, precondition=exc.name)
        converted = document_dict(
            algebra=g, operators={"N": n_out}, bivector=pi, bilinear_form=form
        )
        verdict = is_r_matrix_nijenhuis(g, pi, n_out)
        label = "rbn-to-rmn"
    else:
        (n_op,) = _need_ops(doc, "N")
        pi = doc.bivector()
        try:
            r_out, n_out = rmn_to_rbn(g, pi, n_op, form)
        except PreconditionFailure as exc:
            report = exc.report or CheckReport(False, ())
            return _emit(out, "rmn-to-rbn", report, precondition=exc.name)
        converted = document_dict(
            algebra=g,
            operators={"N": n_out, "R": r_out},
            bilinear_form=form,
        )
        verdict = is_rbn_structure(g, r_out, n_out)
        label = "rmn-to-rbn"
    if doc.rep_matrices is not None:
        converted["representation"] = {
            "module_dim": doc.module_dim,
            "matrices": [mat.to_json() for mat in doc.rep_matrices],
        }
    text = serialize(converted)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.text(f"wrote {args.output}")
    elif not out.as_json and not out.quiet:
        sys.stdout.write(text)
    _print_report(out, label, verdict.report)
    out.json(
        {
            "kind": label,
            "verdict": "pass" if verdict.report.ok else "fail",
            "precondition": None,
            "witnesses": [w.to_json() for w in verdict.report.witnesses],
            "document": converted,
        }
    )
    return EXIT_OK if verdict.report.ok else EXIT_CHECK_FAILED


_SEARCH_STANZA_KEYS = {
    "nijenhuis": ("N",),
    "rota_baxter": ("R",),
    "kupershmidt": ("T",),
    "nijenhuis_pair": ("N", "S"),
    "kn_structure": ("T", "S", "N"),
    "compatible_pair": ("T", "T2"),
    "r_matrix": ("pi_sharp",),
}


def cmd_search(args, out: _Output) -> int:
    try:
        entry = get_entry(args.algebra)
    except KeyError as exc:
        raise DocumentError("algebra", str(exc)) from None
    try:
        values = [parse_rational(tok.strip()) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise DocumentError("grid", str(exc)) from None
    if not values:
        raise DocumentError("grid", "empty scalar set")
    rho = None
    if args.kind in ("kupershmidt", "nijenhuis_pair", "kn_structure", "compatible_pair"):
        if args.rep not in entry.representations:
            raise DocumentError("rep", f"unknown representation {args.rep!r}")
        rho = entry.representations[args.rep]
    results = grid_search(entry.algebra, rho, args.kind, values, cap=args.cap)
    keys = _SEARCH_STANZA_KEYS[args.kind]
    stanzas = []
    for item in results:
        if args.kind == "r_matrix":
            mats = (item.matrix,)
        elif isinstance(item, Matrix):
            mats = (item,)
        else:
            mats = item
        stanzas.append({k: mat.to_json() for k, mat in zip(keys, mats)})
    out.text(f"{len(results)} result(s) for {args.kind} on {args.algebra} over {{{args.grid}}}")
    for stanza in stanzas:
        out.text("  " + json.dumps(stanza, sort_keys=True))
    out.json(
        {
            "kind": args.kind,
            "algebra": args.algebra,
            "grid": [str(v) for v in values],
            "count": len(results),
            "results": stanzas,
        }
    )
    return EXIT_OK


def cmd_catalog(args, out: _Output) -> int:
    if args.action == "list":
        names = list_catalog()
        for name in names:
            out.text(name)
        out.json({"kind": "catalog", "entries": names})
        return EXIT_OK
    if not args.name:
        raise DocumentError("catalog", "export requires an entry name")
    try:
        entry = get_entry(args.name)
    except KeyError as exc:
        raise DocumentError("catalog", str(exc)) from None
    rep_name = "adjoint"
    operators = {}
    bivector = None
    if args.bundle:
        bundle = next((op for op in entry.operators if op.name == args.bundle), None)
        if bundle is None:
            raise DocumentError(
                "catalog", f"entry {args.name!r} has no operator bundle {args.bundle!r}"
            )
        rep_name = bundle.rep
        for key, mat in bundle.matrices.items():
            if key == "pi_sharp":
                bivector = Bivector(mat)
            else:
                operators[key] = mat
    doc = document_dict(
        algebra=entry.algebra,
        representation=entry.representations[rep_name],
        operators=operators,
        bivector=bivector,
        bilinear_form=entry.bilinear_form,
    )
    text = serialize(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.text(f"wrote {args.output}")
    elif not out.quiet and not out.as_json:
        sys.stdout.write(text)
    out.json({"kind": "catalog_export", "name": args.name, "document": doc})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _global_flags(p: argparse.ArgumentParser) -> None:
    # Also accepted after the subcommand; SUPPRESS keeps the top-level value
    # when the flag only appears before it.
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit machine-readable JSON")
    p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                   help="suppress human-readable text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieop",
        description="Exact verification of operator structures on Lie algebras.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--quiet", action="store_true", help="suppress human-readable text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a document and validate its axioms")
    p.add_argument("file")
    _global_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="run one predicate against a document")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("file")
    _global_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hierarchy", help="build and verify the operator hierarchy")
    p.add_argument("file")
    p.add_argument("--kmax", type=int, default=5)
    _global_flags(p)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("convert", help="transport a structure along a bilinear form")
    p.add_argument("direction", choices=("rbn-to-rmn", "rmn-to-rbn"))
    p.add_argument("file")
    p.add_argument("--output", help="write the converted document here")
    _global_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("search", help="exhaustive operator search over a scalar grid")
    p.add_argument("kind", choices=SEARCH_KINDS)
    p.add_argument("--algebra", required=True, help="catalog algebra name")
    p.add_argument("--grid", required=True, help='comma-separated scalars, e.g. "-1,0,1"')
    p.add_argument("--rep", default="adjoint", help="representation name for module kinds")
    p.add_argument("--cap", type=int, default=GRID_CAP)
    _global_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="list or export built-in algebras")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--bundle", help="operator bundle to include in the export")
    p.add_argument("--output")
    _global_flags(p)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Grids like "-1,0,1" start with a dash; join the flag and its value so
    # argparse does not mistake the value for an option.
    for i, tok in enumerate(argv):
        if tok == "--grid" and i + 1 < len(argv):
            argv[i : i + 2] = ["--grid=" + argv[i + 1]]
            break
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    out = _Output(args.json, args.quiet)
    try:
        return args.func(args, out)
    except (DocumentError, GridCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            for w in exc.report.witnesses:
                print(f"  {w.condition} at {w.indices}: defect {w.defect}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (PreconditionFailure, StructureCheckError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LieopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
