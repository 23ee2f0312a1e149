#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 scenicbench/run.py --workload gallery-rejection --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` runs the workload untraced for half the time, then replays the
same operations with span probes installed and reports the per-layer
metrics, including how much the probes slowed the replay.  Either way the
run first replays the workload programs' golden scenes and checks its own
outputs; a mismatch makes ``correct`` false and the exit code 1.

A table for people goes to standard output first, and the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record of the run (environment, sample counts, every metric) is written to
``scenicbench/out/``, which git ignores; spans of a traced run go to
``scenicbench/out/<workload>.spans.jsonl.gz``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("gallery-rejection", "corpus-authoring", "service-openloop", "gallery-direct")

#: Set-up repetitions per untraced run, and fresh interpreters timed
#: importing the library; setup_s is the sum of the two medians.
SETUP_REPEATS = 5
IMPORT_PROBES = 3

#: Passes over the same operations per untraced run (see ``Window``).
PASSES = 2

#: Share of a service run spent on the open loop (its latencies are read,
#: not gated); the rest measures requests sent one at a time.
OPEN_LOOP_SHARE = 0.25

LAYERS = ("language", "analysis", "pruning", "sampling", "geometry", "synthesis", "service", "bench")
CHECKS = ("containment", "collision", "visibility", "user", "bulk")

#: The end-to-end metrics the JSON line carries: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "cpu_s_per_scene": "s",
    "peak_rss_mb": "MB",
}


def required_paths(root: Path) -> List[Path]:
    return [
        root / "src" / "repro" / "__init__.py",
        root / "corpus" / "manifest.json",
        root / "tests" / "golden",
        root / "examples" / "scenarios",
    ]


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def cpu_seconds() -> float:
    """CPU time of this process, its reaped children and its live children.

    A live child's time comes from ``/proc/<pid>/task/*/schedstat``, which
    counts nanoseconds; ``/proc/<pid>/stat`` counts 10 ms ticks, too coarse
    for one service request.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + usage.ru_utime + usage.ru_stime
    for pid in _child_pids():
        try:
            tasks = list(Path(f"/proc/{pid}/task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                total += int((task / "schedstat").read_text().split()[0]) / 1e9
            except (OSError, ValueError, IndexError):
                continue
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


#: Iterations of the reference loop, and about how long it takes on a
#: quiet 2.1 GHz core: the speed the scaled times refer to.
REFERENCE_ITERATIONS = 3_000
REFERENCE_SECONDS = 0.0012


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _reference_loop() -> None:
    """Allocation, attribute, dict, list and math work, like the library's."""
    table = {}
    for index in range(REFERENCE_ITERATIONS):
        point = _Point(index * 0.5, math.sin(index))
        table[index % 97] = point
        pair = [point.x, point.y]
        pair.append(point.x * point.y)


def speed_factor() -> Tuple[float, float]:
    """Reference speed over the machine's current speed, as (wall, CPU) factors.

    Other tenants of a shared machine slow a process down by up to half for
    seconds at a time, so raw operation times spread by 30-40% from run to
    run.  A short pure-Python loop shaped like the library's work (object
    allocation, attribute access, dicts, lists, math calls), timed best of
    two before and after each operation, slows down with it; scaling the
    operation's time by the mean of the two factors removes most of that
    spread.  The loop is timed twice: on the clock, which also grows when
    the process waits for a core, and in CPU time, which grows only when
    each instruction gets slower (shared caches, clock speed).  Wall times
    are scaled by the first factor, CPU times by the second.  The loop runs
    in the benchmark's process, so the library's state (allocator, garbage
    collector) can move it a little; ``raw_scenes_per_s`` keeps the unscaled
    rate for comparison.
    """
    best_wall = best_cpu = math.inf
    for _ in range(2):
        cpu_start = time.process_time()
        start = time.perf_counter()
        _reference_loop()
        best_wall = min(best_wall, time.perf_counter() - start)
        best_cpu = min(best_cpu, time.process_time() - cpu_start)
    return REFERENCE_SECONDS / best_wall, REFERENCE_SECONDS / max(best_cpu, 1e-9)


class Window:
    """One measured stretch of operations.

    For operation workloads *wall_s* and *cpu_s* are sums of per-operation
    times scaled to reference speed (see :func:`speed_factor`); with several
    passes over the same operations each operation counts with its fastest
    pass.  *raw_wall_s* is the same sum unscaled.  For the service's open
    loop, whose latencies include queueing, both are unscaled clock time.
    """

    def __init__(
        self,
        records: List[Any],
        wall_s: float,
        cpu_s: float,
        lags: Sequence[float] = (),
        raw_wall_s: Optional[float] = None,
    ):
        self.records = records
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.lags = list(lags)
        self.raw_wall_s = wall_s if raw_wall_s is None else raw_wall_s

    @property
    def scenes(self) -> int:
        return sum(record.scenes for record in self.records)


def measure_passes(
    workload: Any,
    operations: List[Any],
    passes: int,
    tracer: Any = None,
    cpu_clock: Callable[[], float] = time.process_time,
) -> Tuple[Window, bool]:
    """Run *operations* *passes* times, one at a time; returns the window and
    whether every pass produced the same scenes.  *cpu_clock* is the CPU
    time to charge (the service passes one that counts its workers)."""
    best_wall = [math.inf] * len(operations)
    best_cpu = [math.inf] * len(operations)
    best_raw = [math.inf] * len(operations)
    records: List[Any] = []
    repeatable = True
    factors = speed_factor()
    for _ in range(passes):
        for position, operation in enumerate(operations):
            cpu_start = cpu_clock()
            if tracer is not None:
                tracer.request = position
                index = tracer.begin("bench.op")
                record = workload.run(operation)
                tracer.end(index)
            else:
                record = workload.run(operation)
            cpu = cpu_clock() - cpu_start
            # The machine's speed before and after the operation.
            after = speed_factor()
            wall_scale = (factors[0] + after[0]) / 2
            cpu_scale = (factors[1] + after[1]) / 2
            factors = after
            best_cpu[position] = min(best_cpu[position], cpu * cpu_scale)
            best_wall[position] = min(best_wall[position], record.latency_s * wall_scale)
            best_raw[position] = min(best_raw[position], record.latency_s)
            if position < len(records):
                repeatable &= record.digest == records[position].digest and record.failed == records[position].failed
            else:
                records.append(record)
    for record, wall, scaled in zip(records, best_raw, best_wall):
        record.latency_s = wall
        record.extra["scaled_s"] = scaled
    window = Window(records, sum(best_wall), sum(best_cpu), raw_wall_s=sum(best_raw))
    return window, repeatable


def measure_service(workload: Any, arrivals: List[Any], tracer: Any = None) -> Window:
    """Drive the service's open loop, in unscaled clock time.  Its latencies
    include queueing behind other requests, so they are read, not gated."""
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    records, lags = workload.drive(arrivals, tracer)
    return Window(records, time.perf_counter() - start, cpu_seconds() - cpu_start, lags)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def latencies_ms(records: Sequence[Any]) -> List[float]:
    """Operation latencies; a failed operation misses every latency limit."""
    return [math.inf if record.failed else record.latency_s * 1000.0 for record in records]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(window: Window, setup_s: float, rss_mb: float) -> Dict[str, Tuple[float, int]]:
    """name -> (value, sample count)."""
    scenes = window.scenes
    return {
        "setup_s": (setup_s, SETUP_REPEATS),
        "scenes_per_s": (scenes / window.wall_s, scenes),
        "cpu_s_per_scene": (window.cpu_s / max(scenes, 1), scenes),
        "peak_rss_mb": (rss_mb, 1),
    }


def latency_metrics(
    name: str, window: Window, open_loop: Optional[Window], failed: int, attempted: int
) -> Dict[str, Tuple[Any, int, str]]:
    """Failures and per-workload rates and latencies: name -> (value, n, unit).

    ``None`` marks a metric the workload does not measure.  These are not
    among the bounded end-to-end metrics; see ``README.md``.
    """
    corpus = name == "corpus-authoring"
    latencies = latencies_ms(window.records) if corpus else []
    rows: Dict[str, Tuple[Any, int, str]] = {
        "failed_share": (failed / attempted, attempted, "share"),
        "raw_scenes_per_s": (window.scenes / window.raw_wall_s, window.scenes, "1/s"),
        "programs_per_s": (len(window.records) / window.raw_wall_s if corpus else None, len(window.records), "1/s"),
        "first_scene_ms_p50": (percentile(latencies, 0.5) if corpus else None, len(latencies), "ms"),
        "first_scene_ms_p90": (percentile(latencies, 0.9) if corpus else None, len(latencies), "ms"),
    }
    records = open_loop.records if open_loop is not None else []
    for phase in ("light", "heavy"):
        phase_latencies = latencies_ms([record for record in records if record.phase == phase])
        for share, label in ((0.5, "p50"), (0.9, "p90")):
            value = percentile(phase_latencies, share) if phase_latencies else None
            rows[f"latency_ms_{label}.{phase}"] = (value, len(phase_latencies), "ms")
    lags = open_loop.lags if open_loop is not None else []
    rows["generator_lag_ms_max"] = (max(lags) * 1000.0 if lags else None, len(lags), "ms")
    return rows


def per_layer_metrics(
    window: Window, tracer: Any, since: int, cache_stats: Any, overhead: float
) -> Dict[str, Tuple[float, str]]:
    """name -> (value, unit), from the traced window's spans and counts.

    *cache_stats* is the artifact-cache tally of an in-process workload, or
    ``None`` for the service, whose response stats say when a worker's
    artifact cache hit.
    """
    records = window.records
    scenes = max(window.scenes, 1)
    iterations = max(sum(record.iterations for record in records), 1)
    from workloads import REJECTION_CAUSES

    spans = tracer.spans
    window_spans = spans[since:]

    def total_ms(selected: Sequence[Any], prefix: str) -> Tuple[float, int, float]:
        """Time, calls and summed notes of the outermost spans named *prefix*..."""
        time_ns, calls, notes = 0, 0, 0.0
        for span in selected:
            if not span[0].startswith(prefix) or (span[3] >= 0 and spans[span[3]][0].startswith(prefix)):
                continue
            time_ns += span[2] - span[1]
            calls += 1
            notes += span[5] or 0.0
        return time_ns / 1e6, calls, notes

    self_ns = tracer.self_ns(since)
    compile_ms, programs, _ = total_ms(spans, "language.compile")
    programs = max(programs, 1)
    metrics: Dict[str, Tuple[float, str]] = {
        "language.compile_ms": (compile_ms / programs, "ms"),
        "language.interpret_ms": (total_ms(spans, "language.interpret")[0] / programs, "ms"),
        "analysis.analyze_ms": (total_ms(spans, "analysis.analyze")[0] / programs, "ms"),
    }
    analyses = [span[5] for span in spans if span[0] == "analysis.analyze" and span[5] is not None]
    metrics["analysis.bounded_share"] = (sum(analyses) / len(analyses) if analyses else 0.0, "share")
    metrics["pruning.prune_ms"] = (total_ms(spans, "pruning.prune")[0] / programs, "ms")
    ratios = [span[5] for span in spans if span[0] == "pruning.prune" and span[5] is not None]
    metrics["pruning.area_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "share")

    metrics["sampling.candidates_per_scene"] = (sum(r.candidates for r in records) / scenes, "count/scene")
    metrics["sampling.acceptance_share"] = (window.scenes / iterations, "share")
    for cause in REJECTION_CAUSES:
        count = sum(record.rejections.get(cause, 0) for record in records)
        metrics[f"sampling.rejections.{cause}"] = (count / scenes, "count/scene")
    draw_ns = self_ns.get("sampling.draw", 0)
    metrics["sampling.draw_us_per_candidate"] = (draw_ns / 1e3 / iterations, "us")
    for check in CHECKS:
        check_ms = total_ms(window_spans, f"sampling.check.{check}")[0]
        metrics[f"sampling.check_us_per_candidate.{check}"] = (check_ms * 1e3 / iterations, "us")

    kernel_ms, kernel_calls, points = total_ms(window_spans, "geometry.kernel.")
    metrics["geometry.kernel_calls"] = (kernel_calls / scenes, "calls/scene")
    metrics["geometry.kernel_ms"] = (kernel_ms / scenes, "ms/scene")
    metrics["geometry.points_per_call"] = (points / max(kernel_calls, 1), "count")
    metrics["geometry.contains_point_calls"] = (tracer.counts["geometry.contains_point_calls"] / scenes, "calls/scene")

    metrics["synthesis.build_ms"] = (total_ms(spans, "synthesis.build")[0] / programs, "ms")
    metrics["synthesis.proposals_per_scene"] = (sum(r.proposals for r in records) / scenes, "count/scene")
    weights = [record.weight for record in records if record.weight is not None and record.scenes]
    metrics["synthesis.mean_importance_weight"] = (statistics.fmean(weights) if weights else 0.0, "share")

    served = [record for record in records if not record.failed and "wall_s" in record.extra]
    waits = [(record.latency_s - record.extra["wall_s"]) * 1000.0 for record in served]
    metrics["service.queue_wait_ms_p50"] = (percentile(waits, 0.5) if waits else 0.0, "ms")
    metrics["service.queue_wait_ms_p90"] = (percentile(waits, 0.9) if waits else 0.0, "ms")
    coordination = [
        (record.extra["wall_s"] - record.extra["sampling_s"] / max(record.extra["shards"], 1.0)) * 1000.0
        for record in served
    ]
    metrics["service.coordination_ms"] = (statistics.fmean(coordination) if coordination else 0.0, "ms")
    shards = sum(record.extra["shards"] for record in served)
    hits = sum(record.extra["engine_hits"] for record in served)
    metrics["service.engine_cache_hit_share"] = (hits / shards if shards else 0.0, "share")
    if cache_stats is None:
        worker_hits = sum(record.extra["worker_hits"] for record in served)
        metrics["language.cache_hit_share"] = (worker_hits / shards if shards else 0.0, "share")
    else:
        metrics["language.cache_hit_share"] = (cache_stats.hits / max(cache_stats.lookups, 1), "share")
    metrics["service.shed"] = (float(sum(record.extra.get("shed", 0.0) for record in records)), "count")
    metrics["service.generator_lag_ms_p90"] = (percentile(window.lags, 0.9) * 1000.0 if window.lags else 0.0, "ms")

    # Shares are of the root spans' time: the benchmark's operations, or the
    # service's requests as the client saw them (the service is one layer
    # seen from outside, so there its share is 1).
    wall_ns = sum(span[2] - span[1] for span in window_spans if span[3] < 0) or 1
    layer_ns = {layer: 0 for layer in LAYERS}
    for span_name, value in self_ns.items():
        layer = span_name.split(".", 1)[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + value
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = (layer_ns[layer] / wall_ns, "share")
    covered = sum(value for layer, value in layer_ns.items() if layer != "bench")
    metrics["trace.coverage_share"] = (covered / wall_ns, "share")
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> Dict[str, Any]:
    import numpy

    from repro.geometry import backends

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "jax_available": importlib.util.find_spec("jax") is not None,
        "geometry_backend": backends.active_backend().name,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(root),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path, import_s: float) -> Dict[str, Any]:
    """Run workload *name* once; returns the full record of the run."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    setup_times: List[float] = []
    workload = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = workloads.make_workload(name, root)
        if tracer is not None:
            tracing.install_layer_probes(tracer)
        before = speed_factor()[0]
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * (before + speed_factor()[0]) / 2)

    service = name == "service-openloop"
    # The service spends OPEN_LOOP_SHARE of the run on its open loop, the
    # rest on requests sent one at a time; a traced run spends half of each
    # part traced.
    open_seconds = seconds * OPEN_LOOP_SHARE if service else 0.0
    operation_seconds = seconds - open_seconds
    cpu_clock = cpu_seconds if service else time.process_time
    open_loop: Optional[Window] = None
    try:
        problems: List[str] = []
        golden = workload.golden_entries()
        for stem, strategy in golden:
            problems.extend(workloads.golden_mismatches(root, stem, strategy))
        attempted_checks = len(golden)

        if service:
            arrivals = workload.schedule(seed, open_seconds / 2 if trace else open_seconds)
            open_loop = measure_service(workload, arrivals)
        operations = workload.operations(seed, operation_seconds / PASSES)
        window, repeatable = measure_passes(workload, operations, 1 if trace else PASSES, cpu_clock=cpu_clock)
        attempted_checks += 1
        if not repeatable:
            problems.append("passes over the same operations produced different scenes")
        rss = peak_rss_mb()
        untraced, untraced_open = window, open_loop
        layer: Dict[str, Tuple[float, str]] = {}
        if tracer is not None:
            since = len(tracer.spans)
            tracing.install_layer_probes(tracer)
            try:
                if service:
                    open_loop = measure_service(workload, arrivals, tracer)
                # The service's work happens in its workers, out of the
                # probes' reach; its spans are the open loop's requests.
                window, _ = measure_passes(workload, operations, 1, None if service else tracer, cpu_clock)
            finally:
                tracer.uninstall()
            if [r.digest for r in window.records] != [r.digest for r in untraced.records]:
                problems.append("traced replay produced different scenes than the untraced run")
            attempted_checks += 1
            # Same operations traced and untraced: the median ratio of their
            # scaled times is robust to bursts of load from other processes.
            overhead = statistics.median(
                traced.extra["scaled_s"] / plain.extra["scaled_s"] - 1.0
                for traced, plain in zip(window.records, untraced.records)
            )
            layer = per_layer_metrics(
                open_loop if service else window,
                tracer,
                since,
                None if service else workload.cache_stats,
                overhead,
            )
        if service:
            checked, mismatches = workload.check_inline()
            attempted_checks += checked
            problems.extend(mismatches)
    finally:
        workload.close()

    records = list(untraced.records)
    if window is not untraced:
        records += window.records
    if untraced_open is not None:
        records += untraced_open.records
    if open_loop is not untraced_open:
        records += open_loop.records
    failed_ops = sum(1 for record in records if record.failed)
    attempted = len(records) + attempted_checks
    failed = failed_ops + len(problems)
    setup_s = import_s + statistics.median(setup_times)
    e2e = end_to_end_metrics(untraced, setup_s, rss)
    workload_metrics = {
        key: {"value": value, "unit": unit, "n": n}
        for key, (value, n, unit) in latency_metrics(name, untraced, untraced_open, failed, attempted).items()
    }
    if trace:
        # The traced run also reports them (from its untraced half), as 0
        # where the workload has no such measurement.
        for key, entry in workload_metrics.items():
            layer[key] = (0.0 if entry["value"] is None else entry["value"], entry["unit"])
    result: Dict[str, Any] = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(root, seed),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_operations": failed_ops,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "end_to_end": {key: {"value": value, "unit": END_TO_END[key], "n": n} for key, (value, n) in e2e.items()},
        "workload_metrics": workload_metrics,
        "per_layer": {key: {"value": value, "unit": unit} for key, (value, unit) in layer.items()},
        "counts": {
            "operations": len(untraced.records),
            "scenes": untraced.scenes,
            "candidates": sum(record.candidates for record in untraced.records),
            "rejections": {
                cause: sum(record.rejections.get(cause, 0) for record in untraced.records)
                for cause in workloads.REJECTION_CAUSES
            },
            "scene_digest": _combined_digest(untraced.records),
        },
    }
    if tracer is not None:
        result["spans_recorded"] = len(tracer.spans)
        result["_tracer"] = tracer
    return result


def _combined_digest(records: Sequence[Any]) -> str:
    import hashlib

    return hashlib.sha256("".join(record.digest for record in records).encode()).hexdigest()


def summary_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object the last output line carries."""
    section = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": entry["value"], "unit": entry["unit"]} for key, entry in section.items()},
    }


def print_table(result: Dict[str, Any]) -> None:
    print(f"# {result['workload']}  seed={result['environment']['seed']}  trace={result['trace']}")
    rows = []
    if result["trace"]:
        rows = [(key, entry["value"], entry["unit"], "") for key, entry in result["per_layer"].items()]
    else:
        for section in ("end_to_end", "workload_metrics"):
            rows += [(key, entry["value"], entry["unit"], f"n={entry['n']}") for key, entry in result[section].items()]
    for key, value, unit, count in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:40s} {shown:>14s} {unit:12s} {count}")
    for problem in result["problems"]:
        print(f"  MISMATCH {problem}")


def write_outputs(result: Dict[str, Any]) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = result.pop("_tracer", None)
    name, seed = result["workload"], result["environment"]["seed"]
    path = out_dir / f"{name}-seed{seed}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{name}.spans.jsonl.gz")
    return path


def import_seconds(root: Path) -> float:
    """Median time, scaled to reference speed, that IMPORT_PROBES fresh
    interpreters take to import the library and load the workload worlds.

    Imports happen once per process, so only new processes can repeat them.
    """
    times = []
    for _ in range(IMPORT_PROBES):
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "importprobe.py")],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(completed.stdout.split()[-1]))
    return statistics.median(times)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    missing = [str(path.relative_to(root)) for path in required_paths(root) if not path.exists()]
    if missing:
        print(f"error: run from the root of a Scenic checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import workloads  # noqa: F401  (imports the library)
    from repro.worlds.registry import load_world

    for world in workloads.WORLDS:
        load_world(world)
    import_s = import_seconds(root)

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root, import_s)
    line = summary_line(result)
    print_table(result)
    path = write_outputs(result)
    print(f"# full record: {path.relative_to(root)}")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
