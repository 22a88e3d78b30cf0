"""Command-line front end.

Exit codes, never conflated:
  0  every requested check passed
  1  a mathematical check (or one of its hypotheses) failed
  2  input or usage error: unreadable/malformed document, missing stanza,
     unknown kind or catalog name, search cap exceeded

Subcommands: validate, check <kind>, hierarchy, convert <direction>,
search <kind>, catalog list|export. --json emits machine-readable reports
with stable field names; --quiet suppresses the human-readable text.

The argument parser is built once per process (build_parser is cached), and
main dispatches a subcommand by name, to the module's cmd_<command> as it is
bound at call time, so a wrapper installed over cmd_* later still runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import GRID_CAP, SEARCH_KINDS, get_entry, grid_search, list_catalog
from .documents import MAX_KMAX, document_dict, load_document, serialize
from .errors import (
    DocumentError,
    GridCapExceeded,
    LieopError,
    PreconditionFailure,
    StructureCheckError,
    ValidationError,
)
from .kinds import CATALOG_KINDS, KINDS
from .lie import check_jacobi
from .linalg import Matrix, parse_rational
from .report import CheckReport, Witness
from .reps import Representation, check_representation
from .structures import (
    Bivector,
    hierarchy,
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

    def text(self, line: str = "", end: str = "\n") -> None:
        if not self.as_json and not self.quiet:
            _write(line + end)

    def json(self, payload: dict) -> None:
        if self.as_json:
            _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write(text: str) -> None:
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    """The reader has closed stdout: send what is left, including the flush
    at exit, to the null device, so the command finishes quietly with its
    own exit status."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


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
        out.text(_witness_line(w))


def _witness_line(w: Witness) -> str:
    """One indented line per witness; a matrix defect is written as its
    list of rows so that it stays on that line."""
    indices = ", ".join(str(i) for i in w.indices)
    if isinstance(w.defect, Matrix):
        defect = "[" + ", ".join(str(w.defect).splitlines()) + "]"
    else:
        defect = str(w.defect)
    return f"  {w.condition} at ({indices}): defect {defect}"


def _emit(out: _Output, kind: str, report: CheckReport, certificates=None, precondition=None) -> int:
    _print_report(out, kind, report, precondition)
    out.json(_report_payload(kind, report, certificates, precondition))
    return EXIT_OK if report.ok and precondition is None else EXIT_CHECK_FAILED


def _emit_hypothesis(out: _Output, kind: str, exc: PreconditionFailure) -> int:
    report = exc.report if exc.report is not None else CheckReport(False, ())
    return _emit(out, kind, report, precondition=exc.name)


def _write_document(out: _Output, text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.text(f"wrote {path}")
    else:
        out.text(text, end="")


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
    kind = KINDS[args.kind]
    g = doc.algebra() if kind.promote else doc.bracket
    values = [doc.read(s, g) for s in kind.stanzas]
    try:
        report = kind.check(g, *values)
    except PreconditionFailure as exc:
        return _emit_hypothesis(out, args.kind, exc)
    # Only --json prints the certificates, so only it builds them.
    certificates = kind.certificates(g, *values) if out.as_json and kind.certificates else None
    return _emit(out, args.kind, report, certificates)


def cmd_hierarchy(args, out: _Output) -> int:
    if not 0 <= args.kmax <= MAX_KMAX:
        raise DocumentError("kmax", f"must be between 0 and {MAX_KMAX}, got {args.kmax}")
    doc = load_document(args.file)
    g = doc.algebra()
    rho = doc.representation(g)
    if not all(k in doc.operators for k in ("T", "S", "N")):
        raise DocumentError("operators", "hierarchy requires T, S and N")
    t_op, s_op, n_op = (doc.operators[k] for k in ("T", "S", "N"))
    try:
        ops = hierarchy(g, rho, t_op, s_op, n_op, args.kmax)
    except PreconditionFailure as exc:
        return _emit_hypothesis(out, "hierarchy", exc)
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
    label = args.direction
    rho = doc.representation(g, check=False) if doc.rep_matrices is not None else None
    if label == "rbn-to-rmn":
        r_op, n_op = doc.read("R", g), doc.read("N", g)
        try:
            pi, n_out = rbn_to_rmn(g, r_op, n_op, form)
        except PreconditionFailure as exc:
            return _emit_hypothesis(out, label, exc)
        converted = document_dict(
            algebra=g, representation=rho, operators={"N": n_out}, bivector=pi,
            bilinear_form=form,
        )
    else:
        n_op, pi = doc.read("N", g), doc.bivector()
        try:
            r_out, n_out = rmn_to_rbn(g, pi, n_op, form)
        except PreconditionFailure as exc:
            return _emit_hypothesis(out, label, exc)
        converted = document_dict(
            algebra=g, representation=rho, operators={"N": n_out, "R": r_out},
            bilinear_form=form,
        )
    # Both conversions raise unless the converted pair passes its structure
    # check, so the report is the pass they have already verified.
    _write_document(out, serialize(converted), args.output)
    out.text(f"{label}: PASS")
    out.json(
        {
            "kind": label,
            "verdict": "pass",
            "precondition": None,
            "witnesses": [],
            "document": converted,
        }
    )
    return EXIT_OK


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
    kind = CATALOG_KINDS[args.kind]
    rho = None
    if kind.needs_rho:
        if args.rep not in entry.representations:
            raise DocumentError("rep", f"unknown representation {args.rep!r}")
        rho = entry.representations[args.rep]
    results = grid_search(entry.algebra, rho, args.kind, values, cap=args.cap)
    stanzas = []
    for item in results:
        ops = item if isinstance(item, tuple) else (item,)
        stanzas.append({k: op.to_json() for k, op in zip(kind.operator_keys, ops)})
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
    _write_document(out, serialize(doc), args.output)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main call reuses it."""
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

    p = sub.add_parser("check", help="run one predicate against a document")
    p.add_argument("kind", choices=tuple(KINDS))
    p.add_argument("file")
    _global_flags(p)

    p = sub.add_parser("hierarchy", help="build and verify the operator hierarchy")
    p.add_argument("file")
    p.add_argument("--kmax", type=int, default=5)
    _global_flags(p)

    p = sub.add_parser("convert", help="transport a structure along a bilinear form")
    p.add_argument("direction", choices=("rbn-to-rmn", "rmn-to-rbn"))
    p.add_argument("file")
    p.add_argument("--output", help="write the converted document here")
    _global_flags(p)

    p = sub.add_parser("search", help="exhaustive operator search over a scalar grid")
    p.add_argument("kind", choices=SEARCH_KINDS)
    p.add_argument("--algebra", required=True, help="catalog algebra name")
    p.add_argument("--grid", required=True, help='comma-separated scalars, e.g. "-1,0,1"')
    p.add_argument("--rep", default="adjoint", help="representation name for module kinds")
    p.add_argument("--cap", type=int, default=GRID_CAP)
    _global_flags(p)

    p = sub.add_parser("catalog", help="list or export built-in algebras")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--bundle", help="operator bundle to include in the export")
    p.add_argument("--output")
    _global_flags(p)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    out = _Output(args.json, args.quiet)
    try:
        # Looked up at call time, so a rebinding of cmd_* takes effect.
        return globals()[f"cmd_{args.command}"](args, out)
    except (DocumentError, GridCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            for w in exc.report.witnesses:
                print(_witness_line(w), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (PreconditionFailure, StructureCheckError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LieopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())
