"""lieop benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload search|sweep|cli --seed N --seconds 36 --trace 0|1

Run from the root of a checkout; the benchmark imports lieop from the
checkout's ``src/`` and nowhere else, and exits with code 2 when it is
missing. It prints every metric by name with its unit, the correctness
result and a run record, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0  times whole passes of the workload in a closed loop, tracing off,
           and reports the end-to-end metrics. setup_s is the median of
           fresh-process set-ups.
--trace 1  traces set-up and one pass, runs one more pass untraced, and
           reports the per-layer metrics plus the tracing overhead. Spans
           are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_lieop():
    """Import lieop from this checkout's src/, or exit with code 2."""
    if not (SRC / "lieop" / "__init__.py").is_file():
        print(f"error: no lieop package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lieop

    if SRC.resolve() not in Path(lieop.__file__).resolve().parents:
        print(f"error: lieop imported from {lieop.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return lieop


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_passes(workload, seconds: float, count: int | None = None,
               begin=lambda: None, after_pass=lambda p: None):
    """Whole passes in a closed loop: at least workload.min_passes, then more
    while another pass of average length still fits in ``seconds`` (or
    exactly ``count`` passes). Whole passes keep the mix of verdicts fixed.
    after_pass(p) runs between passes, outside the timed section. Returns
    the passes and the timed seconds."""
    clock = time.perf_counter
    passes, timed = [], 0.0
    while True:
        start = clock()
        p = workload.run_pass(clock, begin)
        p.seconds = clock() - start
        timed += p.seconds
        after_pass(p)
        passes.append(p)
        if count is not None:
            if len(passes) == count:
                break
        elif len(passes) >= workload.min_passes and timed * (1 + 1 / len(passes)) > seconds:
            break
    return passes, timed


def setup_probe(args) -> float:
    """Time one fresh process from spawn until its set-up is done."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    done = float(proc.stdout.strip().splitlines()[-1])
    return done - t0


class Gate:
    """Checks each pass as it completes and keeps only the outcome, so that
    memory does not grow with the number of passes."""

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, p) -> None:
        failed, notes = self.workload.check(p)
        self.failed += failed
        self.notes += notes
        p.records = None


def timed_run(args, workload) -> dict:
    setup = sorted(setup_probe(args) for _ in range(SETUP_SAMPLES))
    gate = Gate(workload)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        workload.setup(workdir)
        passes, timed = run_passes(workload, args.seconds, after_pass=gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = sorted(s for p in passes for s in p.samples)
    verdicts = sum(p.verdicts for p in passes)
    p50, beyond50 = nearest_rank(samples, 50)
    p95, beyond95 = nearest_rank(samples, 95)
    metrics = {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": verdicts / timed,
        "latency_p50_ms": p50 * 1000,
        "latency_p95_ms": p95 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": verdicts,
        "failed": gate.failed,
        "notes": gate.notes,
        "details": {
            "pass_s": [p.seconds for p in passes],
            "timed_s": timed,
            "setup_samples_s": setup,
            "latency": {
                "latency_p50_ms": {"samples": len(samples), "percentile": 50,
                                   "method": "nearest rank", "beyond": beyond50},
                "latency_p95_ms": {"samples": len(samples), "percentile": 95,
                                   "method": "nearest rank", "beyond": beyond95},
            },
        },
    }


def traced_run(args, workload) -> dict:
    from tracer import Tracer, per_layer_metric_units

    tracer = Tracer()
    count = 1
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        tracer.install()
        try:
            workload.setup(workdir)
            traced, traced_s = run_passes(workload, args.seconds, count, tracer.begin_request)
        finally:
            tracer.uninstall()
        # Check the traced passes only now, so that checking adds no spans.
        gate = Gate(workload)
        answers = []

        def check(p):
            answers.append(workload.answers(p))
            gate(p)

        for p in traced:
            check(p)
        untraced, untraced_s = run_passes(workload, args.seconds, count, after_pass=check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Tracing must be transparent: identical answers with and without it.
    differing = sum(a != b for a, b in zip(answers[:count], answers[count:]))
    if differing:
        gate.failed += differing
        gate.notes.append(f"{differing} traced pass(es) answered differently from untraced ones")
    trace_dir = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(trace_dir)
    units = per_layer_metric_units()
    values = tracer.metrics(overhead_s=traced_s - untraced_s)
    return {
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "attempted": sum(p.verdicts for p in traced + untraced),
        "failed": gate.failed,
        "notes": gate.notes,
        "details": {
            "passes": count,
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "spans": len(tracer.start_col),
            "spans_written_to": str(trace_dir.relative_to(ROOT)),
        },
    }


def lieop_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    from workloads import sha256

    parts = [
        f"{path.relative_to(SRC)}\n{path.read_text(encoding='utf-8')}"
        for path in sorted((SRC / "lieop").glob("*.py"))
    ]
    return sha256("\n".join(parts))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "lieop_commit": lieop_commit(),
        "lieop_source_sha256": source_digest(),
        "failed_share": failed / attempted,
        "failed_share_base": attempted,
        **result["details"],
        "notes": result["notes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "sweep", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_lieop()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workload = workloads.make(args.workload, args.seed, args.size)
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            workload.setup(workdir)
            print(repr(time.monotonic()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result = traced_run(args, workload) if args.trace else timed_run(args, workload)
    record = run_record(args, result)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in result["metrics"].items():
        print(f"{name:<56} {metric['value']:>16.6g} {metric['unit']}")
    correct = result["failed"] == 0
    print(f"correct: {correct} (failed {result['failed']} of {result['attempted']} verdicts, "
          f"failed_share {record['failed_share']:.6g})")
    for note in result["notes"]:
        print(f"  {note}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
