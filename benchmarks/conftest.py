"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper's evaluation at a
laptop-friendly scale, prints the result next to the numbers the paper
reports, and writes the same text into ``results/`` so EXPERIMENTS.md can be
refreshed from a benchmark run.

Run the whole suite with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The committed baseline: headline numbers of a full run, plus the service
#: floor that ``python -m repro.service bench --check`` and
#: ``test_service_throughput`` gate on.
BENCH_BASELINE = RESULTS_DIR / "BENCH.json"

#: Where a benchmark run records its headline numbers.  Untracked (the
#: ``results/*`` ignore rule covers it): a run never overwrites
#: :data:`BENCH_BASELINE`.  Copy it over the baseline on purpose to promote
#: a run, keeping the baseline's floor.
BENCH_JSON = RESULTS_DIR / "BENCH_run.json"


def save_result(name: str, text: str) -> None:
    """Print a result block and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def save_bench_json(name: str, payload: dict) -> None:
    """Merge one benchmark's numbers into the run file :data:`BENCH_JSON`.

    The file accumulates across a benchmark run (each test owns one key),
    so a full ``pytest bench_engine.py`` leaves a complete, diffable
    snapshot: ``{"schema": 1, "benchmarks": {name: {...}}}``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        document = json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        document = {}
    document.setdefault("schema", 1)
    document["generated_unix"] = time.time()
    document.setdefault("benchmarks", {})[name] = payload
    BENCH_JSON.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


@pytest.fixture
def record_result():
    return save_result


@pytest.fixture
def record_bench_json():
    return save_bench_json
