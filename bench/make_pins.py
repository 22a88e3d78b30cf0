"""Recompute bench/pins.json, the expected answers for the default seed.

    python3 bench/make_pins.py

Pins record what the library answers at the commit they were made on:
per search call the result count and a digest of the ordered result list,
per sweep family the number of passing (N, S) pairs, and per cli --json
invocation a digest of its output. Regenerate them only when a change to
the benchmark's inputs makes new answers necessary, never to make a failing
gate pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run

run.load_lieop()
import workloads  # noqa: E402  (needs lieop on sys.path)


def pins_for(size: str) -> dict:
    empty = {"search": {}, "sweep": {"passes": {}}, "cli": {"json_sha256": {}}}
    seed = workloads.DEFAULT_SEED
    pins = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        search = workloads.SearchWorkload(seed, size, empty)
        search.setup(Path(tmp))
        answers = search.answers(search.run_pass(time.perf_counter, lambda: None))
        pins["search"] = {
            label: {"count": count, "sha256": digest} for label, count, digest in answers
        }

        sweep = workloads.SweepWorkload(seed, size, empty)
        sweep.setup(Path(tmp))
        records = sweep.run_pass(time.perf_counter, lambda: None).records
        passes = {}
        for record in records:
            if workloads.SweepWorkload._cross_check(record):
                sys.exit(f"cross-check fails at {record[:2]}; refusing to pin")
            passes[record[0]] = passes.get(record[0], 0) + bool(record[2][0])
        pins["sweep"] = {"passes": dict(sorted(passes.items()))}

        cli = workloads.CliWorkload(seed, size, empty)
        cli.setup(Path(tmp))
        json_ids = {cmd[0] for unit in cli.units for cmd in unit if "--json" in cmd[1]}
        records = cli.run_pass(time.perf_counter, lambda: None).records
        pins["cli"] = {
            "json_sha256": {
                cmd_id: workloads.sha256(stdout)
                for cmd_id, _, stdout, _ in sorted(records)
                if cmd_id in json_ids
            }
        }
    return pins


if __name__ == "__main__":
    pins = {size: pins_for(size) for size in workloads.SIZES}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(pins, indent=2))
