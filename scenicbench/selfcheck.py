#!/usr/bin/env python3
"""Planted-slowdown selfcheck: the benchmark must catch and place a regression.

Usage, from the root of a checkout::

    python3 scenicbench/selfcheck.py [--seed 1] [--seconds 6]

A busy-wait of PLANT_SECONDS is planted in front of every call of
``repro.sampling.strategies.check_user_requirements`` inside this process,
and three things must hold:

1. ``gallery-rejection``, untraced: ``scenes_per_s`` with the plant is worse
   than without it by more than the bound ``BENCHMARK.json`` gives it.
2. ``gallery-rejection``, traced: the extra time shows up as self time of the
   ``sampling.check.user`` span: of all spans, its self time grew most, and
   by at least half the growth of the traced operations' total time.
3. ``corpus-authoring``, traced: ``language.compile_ms`` and
   ``language.interpret_ms`` move by less than a quarter of the time the
   plant adds per program.

Exits 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PLANT_SECONDS = 0.02


class Plant:
    """Busy-waits PLANT_SECONDS before every user-requirement check."""

    def __enter__(self) -> "Plant":
        from repro.sampling import strategies

        self.module = strategies
        self.original = original = strategies.check_user_requirements

        def planted(*args, **kwargs):
            deadline = time.perf_counter() + PLANT_SECONDS
            while time.perf_counter() < deadline:
                pass
            return original(*args, **kwargs)

        strategies.check_user_requirements = planted
        return self

    def __exit__(self, *exc_info) -> None:
        self.module.check_user_requirements = self.original


def run_pair(run, name, seed, seconds, trace, root):
    results = []
    for planted in (False, True):
        with Plant() if planted else contextlib.nullcontext():
            result = run.run_benchmark(name, seed, seconds, trace, root, import_s=0.0)
        if not result["correct"]:
            raise SystemExit(f"{name}: the run itself failed its checks: {result['problems']}")
        results.append(result)
    return results


def window_self_ms(result):
    """Self time per span name over the traced window (setup excluded), in ms."""
    tracer = result["_tracer"]
    first = next(index for index, span in enumerate(tracer.spans) if span[0] == "bench.op")
    return {name: value / 1e6 for name, value in tracer.self_ns(first).items()}


def window_op_ms(result):
    """Total time of the traced window's operations."""
    return sum(span[2] - span[1] for span in result["_tracer"].spans if span[0] == "bench.op") / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import run

    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    }
    verdicts = []

    clean, planted = run_pair(run, "gallery-rejection", args.seed, args.seconds, False, root)
    before = clean["end_to_end"]["scenes_per_s"]["value"]
    after = planted["end_to_end"]["scenes_per_s"]["value"]
    worse = 1.0 - after / before
    verdicts.append(
        (
            worse > bounds["scenes_per_s"],
            f"gallery-rejection scenes_per_s {before:.3f} -> {after:.3f} "
            f"({worse:.1%} worse; bound {bounds['scenes_per_s']:.0%})",
        )
    )

    clean, planted = run_pair(run, "gallery-rejection", args.seed, args.seconds, True, root)
    before_self, after_self = window_self_ms(clean), window_self_ms(planted)
    grown = {name: after_self[name] - before_self.get(name, 0.0) for name in after_self}
    top = max(grown, key=grown.get)
    grown_total = window_op_ms(planted) - window_op_ms(clean)
    verdicts.append(
        (
            top == "sampling.check.user" and grown[top] >= 0.5 * grown_total > 0,
            f"gallery-rejection traced: {top} self time grew most, by {grown[top]:.0f} ms "
            f"of {grown_total:.0f} ms total growth",
        )
    )

    clean, planted = run_pair(run, "corpus-authoring", args.seed, args.seconds, True, root)
    programs = clean["counts"]["operations"]
    added_ms = (
        window_self_ms(planted)["sampling.check.user"] - window_self_ms(clean)["sampling.check.user"]
    ) / max(programs, 1)
    for metric in ("language.compile_ms", "language.interpret_ms"):
        moved = planted["per_layer"][metric]["value"] - clean["per_layer"][metric]["value"]
        verdicts.append(
            (
                added_ms > 0 and abs(moved) < 0.25 * added_ms,
                f"corpus-authoring {metric} moved {moved:+.3f} ms; the plant added {added_ms:.3f} ms a program",
            )
        )

    for ok, message in verdicts:
        print(("PASS " if ok else "FAIL ") + message)
    return 0 if all(ok for ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
