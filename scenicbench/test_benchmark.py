"""The benchmark's own tests: determinism of its counts, and its tracer.

Run from the root of a checkout::

    python3 -m pytest scenicbench/test_benchmark.py -q

Two runs with one seed must give identical counts — candidates, rejections
by cause and a digest of every scene — because the benchmark reports them
as counts, not as timings.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def counts(window):
    return (
        [record.iterations for record in window.records],
        [record.candidates for record in window.records],
        [sorted(record.rejections.items()) for record in window.records],
        run._combined_digest(window.records),
    )


@pytest.mark.parametrize(
    "name, seconds, limit",
    [("gallery-rejection", 1.0, 12), ("gallery-direct", 1.0, 12), ("corpus-authoring", 1.0, 12)],
)
def test_same_seed_gives_identical_counts(name, seconds, limit):
    seen = []
    for _ in range(2):
        workload = workloads.make_workload(name, ROOT)
        workload.setup()
        operations = workload.operations(7, seconds)[:limit]
        window, repeatable = run.measure_passes(workload, operations, 2)
        assert repeatable
        assert not any(record.failed for record in window.records)
        seen.append(counts(window))
    assert seen[0] == seen[1]
    assert sum(seen[0][1]) > 0


def test_service_same_seed_gives_identical_counts_and_inline_scenes():
    seen = []
    for _ in range(2):
        workload = workloads.make_workload("service-openloop", ROOT)
        try:
            workload.setup()
            arrivals = workload.schedule(7, 2.0)
            window = run.measure_service(workload, arrivals)
            checked, mismatches = workload.check_inline()
            one_at_a_time, repeatable = run.measure_passes(
                workload, workload.operations(7, 0.3), 2, cpu_clock=run.cpu_seconds
            )
        finally:
            workload.close()
        assert checked > 0 and mismatches == []
        assert repeatable
        assert not any(record.failed for record in window.records + one_at_a_time.records)
        assert one_at_a_time.cpu_s > 0
        seen.append(([(a.stem, a.seed, a.at) for a in arrivals], counts(window)[:3], counts(one_at_a_time)))
    assert seen[0] == seen[1]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("bench.op", 0, 100, -1, 0, None),
        ("sampling.draw", 10, 60, 0, 0, None),
        ("sampling.check.user", 20, 30, 1, 0, None),
    ]
    assert tracer.self_ns() == {"bench.op": 50, "sampling.draw": 40, "sampling.check.user": 10}


def test_probes_record_spans_and_uninstall_cleanly():
    from repro.geometry import backends
    from repro.sampling import strategies

    backend_class = type(backends.active_backend())
    before = (strategies.check_user_requirements, dict(backend_class.__dict__))
    tracer = tracing.Tracer()
    tracing.install_layer_probes(tracer)
    try:
        workload = workloads.make_workload("gallery-rejection", ROOT)
        workload.setup()
        workload.run(workload.operations(1, 1.0)[0])
    finally:
        tracer.uninstall()
    assert (strategies.check_user_requirements, dict(backend_class.__dict__)) == before
    names = {span[0] for span in tracer.spans}
    assert {"language.compile", "sampling.sample", "sampling.draw", "sampling.check.containment"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "scenicbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "scenicbench/run.py", "--workload", "gallery-rejection"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
