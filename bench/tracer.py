"""Span recorder that wraps lieop's public functions from outside the library.

Each traced function or method is rebound, for the length of a traced run,
to a wrapper that records one span: its name, start, end, parent span and
request. The benchmark numbers its verdicts from 1 through begin_request();
spans outside any verdict (set-up) belong to request 0. A module-level function is
rebound in its defining module and in every loaded ``lieop`` module that
imported it by name, because ``from .x import y`` bindings would otherwise
bypass the wrapper. Spans stay in memory, in column arrays, until the run
writes them out. Self time (a span's duration minus that of its direct
children) and call counts are aggregated per span name as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name). Several attributes may share one span name.
SPAN_TARGETS = (
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "Matrix.apply", "linalg.Matrix.apply"),
    ("linalg", "Vector.basis", "linalg.Vector.basis"),
    ("linalg", "Vector.__init__", "linalg.validated_ctor"),
    ("linalg", "Matrix.__init__", "linalg.validated_ctor"),
    ("linalg", "det", "linalg.bareiss"),
    ("linalg", "solve", "linalg.bareiss"),
    ("linalg", "invert", "linalg.bareiss"),
    ("linalg", "nullspace_vector", "linalg.bareiss"),
    ("lie", "Bracket.__call__", "lie.Bracket.__call__"),
    ("lie", "check_jacobi", "lie.check_jacobi"),
    ("lie", "semidirect_product", "lie.semidirect_product"),
    ("lie", "deformed_algebra", "lie.deformed_algebra"),
    ("reps", "Representation.act", "reps.Representation.act"),
    ("reps", "check_representation", "reps.check_representation"),
    ("reps", "dual_representation", "reps.dual_representation"),
    ("operators", "is_nijenhuis", "operators.is_nijenhuis"),
    ("operators", "is_rota_baxter", "operators.is_rota_baxter"),
    ("operators", "is_kupershmidt", "operators.is_kupershmidt"),
    ("operators", "is_nijenhuis_pair", "operators.is_nijenhuis_pair"),
    ("operators", "is_dual_nijenhuis_pair", "operators.is_dual_nijenhuis_pair"),
    ("operators", "nijenhuis_pair_semidirect_test", "operators.nijenhuis_pair_semidirect_test"),
    ("operators", "sub_adjacent_bracket", "operators.sub_adjacent_bracket"),
    ("operators", "deform_bracket_by_s", "operators.deform_bracket_by_s"),
    ("structures", "is_kn_structure", "structures.is_kn_structure"),
    ("structures", "is_kdn_structure", "structures.is_kdn_structure"),
    ("structures", "are_compatible_kupershmidt", "structures.are_compatible_kupershmidt"),
    ("structures", "compatible_via_combos", "structures.compatible_via_combos"),
    ("structures", "hierarchy", "structures.hierarchy"),
    ("structures", "rbn_to_rmn", "structures.rbn_to_rmn"),
    ("structures", "rmn_to_rbn", "structures.rmn_to_rbn"),
    ("deformation", "trivial_deformation_from_pair", "deformation.trivial_deformation_from_pair"),
    ("deformation", "check_deformation_pair", "deformation.check_deformation_pair"),
    ("deformation", "check_trivial_equivalence", "deformation.check_trivial_equivalence"),
    ("catalog", "get_entry", "catalog.get_entry"),
    ("catalog", "grid_search", "catalog.grid_search"),
    ("documents", "load_document", "documents.load_document"),
    ("documents", "serialize", "documents.serialize"),
    ("documents", "document_dict", "documents.document_dict"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_validate", "cli.cmd_validate"),
    ("cli", "cmd_check", "cli.cmd_check"),
    ("cli", "cmd_hierarchy", "cli.cmd_hierarchy"),
    ("cli", "cmd_convert", "cli.cmd_convert"),
    ("cli", "cmd_search", "cli.cmd_search"),
    ("cli", "cmd_catalog", "cli.cmd_catalog"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))

# Predicates whose reports feed operators.pass_ratio and
# catalog.predicate_calls_per_candidate.
PREDICATES = frozenset(
    (
        "operators.is_nijenhuis",
        "operators.is_rota_baxter",
        "operators.is_kupershmidt",
        "operators.is_nijenhuis_pair",
        "operators.is_dual_nijenhuis_pair",
        "operators.nijenhuis_pair_semidirect_test",
    )
)

# Checks that count as a hypothesis rerun when a structures span calls them.
RERUN_CHECKS = frozenset(
    ("operators.is_kupershmidt", "operators.is_nijenhuis", "reps.check_representation")
)

SEARCH_KINDS = ("rota_baxter", "kn_structure", "compatible_pair", "nijenhuis_pair")


def search_slots(kind: str, n: int, m: int) -> int:
    """Number of free matrix entries grid_search enumerates for a kind."""
    return {
        "nijenhuis": n * n,
        "rota_baxter": n * n,
        "kupershmidt": n * m,
        "nijenhuis_pair": n * n + m * m,
        "kn_structure": n * m + m * m + n * n,
        "r_matrix": n * (n - 1) // 2,
        "compatible_pair": 2 * n * m,
    }[kind]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        if name == "catalog.grid_search":
            for kind in SEARCH_KINDS:
                units[f"catalog.grid_search.{kind}.s"] = "s"
                units[f"catalog.grid_search.{kind}.candidates"] = "count"
                units[f"catalog.grid_search.{kind}.found"] = "count"
            units["catalog.predicate_calls_per_candidate"] = "ratio"
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["lie.semidirect_product.hit_ratio"] = "ratio"
    units["operators.pass_ratio"] = "ratio"
    units["report.witnesses"] = "count"
    units["structures.hypothesis_reruns"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans of the traced lieop functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts = {
            "semidirect_hits": 0,
            "predicate_calls": 0,
            "predicate_ok": 0,
            "predicate_calls_under_search": 0,
            "witnesses": 0,
            "hypothesis_reruns": 0,
        }
        self.search_rows = {
            kind: {"s": 0.0, "candidates": 0, "found": 0} for kind in SEARCH_KINDS
        }
        self._stack: list[list] = []
        self._request = [0]
        self._restore: list[tuple[object, str, object]] = []
        for name in SPAN_NAMES:
            self._name_id(name)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        nid = self._ids[name]
        stack = self._stack
        name_col, parent_col, request_col = self.name_col, self.parent_col, self.request_col
        start_col, end_col = self.start_col, self.end_col
        calls, self_s = self.calls, self.self_s
        current_request = self._request
        perf = time.perf_counter
        before = self._before_hook(name)
        after = self._after_hook(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start_col)
            parent = stack[-1] if stack else None
            request = parent[2] if parent else current_request[0]
            name_col.append(nid)
            parent_col.append(parent[0] if parent else -1)
            request_col.append(request)
            end_col.append(0.0)
            # [span index, seconds covered by direct children, request, name id]
            frame = [idx, 0.0, request, nid]
            state = before(parent) if before else None
            stack.append(frame)
            t0 = perf()
            start_col.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                end_col[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after:
                after(state, args, kwargs, result, dur)
            return result

        return span

    def begin_request(self) -> None:
        """Start the next verdict; root spans from here on belong to it."""
        self._request[0] += 1

    def _count_witnesses(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["witnesses"] += len(report.witnesses)
            return report

        return counted

    def _before_hook(self, name: str):
        counts = self.counts
        if name == "lie.semidirect_product":
            cache = sys.modules["lieop.lie"]._SEMIDIRECT_CACHE
            return lambda parent: len(cache)
        rerun, predicate = name in RERUN_CHECKS, name in PREDICATES
        if not (rerun or predicate):
            return None
        names, stack = self.names, self._stack
        search_id = self._ids["catalog.grid_search"]

        def before(parent):
            if rerun and parent is not None and names[parent[3]].startswith("structures."):
                counts["hypothesis_reruns"] += 1
            if predicate and any(frame[3] == search_id for frame in stack):
                counts["predicate_calls_under_search"] += 1
        return before

    def _after_hook(self, name: str):
        counts = self.counts
        if name in PREDICATES:
            def after(state, args, kwargs, report, dur):
                counts["predicate_calls"] += 1
                counts["predicate_ok"] += bool(report.ok)
            return after
        if name == "lie.semidirect_product":
            cache = sys.modules["lieop.lie"]._SEMIDIRECT_CACHE

            def after(size_before, args, kwargs, result, dur):
                counts["semidirect_hits"] += len(cache) == size_before
            return after
        if name == "catalog.grid_search":
            rows = self.search_rows
            rational = sys.modules["lieop.linalg"].rational

            def after(state, args, kwargs, found, dur):
                # Every caller passes (g, rho, kind, entry_set) positionally.
                g, rho, kind, entry_set = args[:4]
                row = rows.setdefault(kind, {"s": 0.0, "candidates": 0, "found": 0})
                m = rho.module_dim if rho is not None else 0
                slots = search_slots(kind, g.dim, m)
                row["s"] += dur
                row["candidates"] += len({rational(v) for v in entry_set}) ** slots
                row["found"] += len(found)
            return after
        return None

    def install(self) -> None:
        """Rebind every target in lieop; undone by uninstall()."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        lieop_modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "lieop" or key.startswith("lieop.")
        ]
        for module_name, attr, name in SPAN_TARGETS:
            module = sys.modules[f"lieop.{module_name}"]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._span_wrapper(raw.__func__, name))
                else:
                    wrapped = self._span_wrapper(raw, name)
                self._rebind(owner, method, raw, wrapped)
            else:
                original = getattr(module, attr)
                self._rebind_everywhere(lieop_modules, original, self._span_wrapper(original, name))
        report_module = sys.modules["lieop.report"]
        original = report_module.report_from_witnesses
        self._rebind_everywhere(lieop_modules, original, self._count_witnesses(original))

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def _rebind_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics by name; every name of per_layer_metric_units()."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name == "catalog.grid_search":
                continue
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        for kind in SEARCH_KINDS:
            row = self.search_rows[kind]
            out[f"catalog.grid_search.{kind}.s"] = row["s"]
            out[f"catalog.grid_search.{kind}.candidates"] = row["candidates"]
            out[f"catalog.grid_search.{kind}.found"] = row["found"]
        candidates = sum(row["candidates"] for row in self.search_rows.values())
        c = self.counts
        out["catalog.predicate_calls_per_candidate"] = _ratio(
            c["predicate_calls_under_search"], candidates
        )
        semidirect_calls = self.calls[self._ids["lie.semidirect_product"]]
        out["lie.semidirect_product.hit_ratio"] = _ratio(c["semidirect_hits"], semidirect_calls)
        out["operators.pass_ratio"] = _ratio(c["predicate_ok"], c["predicate_calls"])
        out["report.witnesses"] = c["witnesses"]
        out["structures.hypothesis_reruns"] = c["hypothesis_reruns"]
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, directory: Path) -> None:
        """Write the spans as column files plus an index naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name_col,
            "parent": self.parent_col,
            "request": self.request_col,
            "start": self.start_col,
            "end": self.end_col,
        }
        for key, col in columns.items():
            with open(directory / f"{key}.{col.typecode}", "wb") as fh:
                col.tofile(fh)
        index = {
            "spans": len(self.start_col),
            "names": self.names,
            "columns": {key: f"{key}.{col.typecode}" for key, col in columns.items()},
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
        }
        (directory / "index.json").write_text(json.dumps(index, indent=2) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
