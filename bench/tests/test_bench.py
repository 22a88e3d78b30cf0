"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

lieop = run.load_lieop()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(*args: str) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_and_no_failure(workload, trace):
    result = _result("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_transparent(workload, tmp_path):
    w = workloads.make(workload, 3, "tiny")
    w.setup(tmp_path)
    untraced = w.run_pass(time.perf_counter, lambda: None)
    original = lieop.operators.is_nijenhuis
    t = tracer.Tracer()
    t.install()
    try:
        assert lieop.structures.is_nijenhuis is not original
        traced = w.run_pass(time.perf_counter, t.begin_request)
    finally:
        t.uninstall()
    assert lieop.operators.is_nijenhuis is original
    assert lieop.structures.is_nijenhuis is original
    # For cli the answers hold every exit code, stdout and stderr.
    assert w.answers(traced) == w.answers(untraced)
    assert w.check(untraced)[0] == 0 and w.check(traced)[0] == 0
    assert sum(t.calls) > 0


def _wrong_pin(pins: dict, workload: str) -> None:
    tiny = pins["tiny"]
    if workload == "search":
        next(iter(tiny["search"].values()))["count"] += 1
    elif workload == "sweep":
        tiny["sweep"]["passes"]["aff1"] += 1
    else:
        tiny["cli"]["json_sha256"]["hierarchy_aff1_kn"] = "0" * 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_on_a_wrong_pinned_answer(workload, tmp_path):
    pins = workloads.load_pins()
    _wrong_pin(pins, workload)
    w = workloads.make(workload, 0, "tiny", pins)
    w.setup(tmp_path)
    failed, notes = w.check(w.run_pass(time.perf_counter, lambda: None))
    assert failed > 0 and notes


def test_unpinned_fractional_grid_is_checked_by_the_semidirect_route(tmp_path):
    pins = workloads.load_pins()
    label = "nijenhuis_pair/abelian_1/adjoint/-1/2,0,1/3"
    pinned = pins["tiny"]["search"].pop(label)
    w = workloads.make("search", 0, "tiny", pins)
    w.setup(tmp_path)
    assert w._independent_route(label) == (pinned["count"], pinned["sha256"])
    assert w.check(w.run_pass(time.perf_counter, lambda: None)) == (0, [])


def test_seed_changes_inputs_but_not_candidate_counts():
    assert workloads.fractional_grid(0) == ("-1/2", "0", "1/3")
    grids = {workloads.fractional_grid(seed) for seed in range(1, 20)}
    assert len(grids) > 1
    assert all(len(set(grid)) == 3 for grid in grids)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "search", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
