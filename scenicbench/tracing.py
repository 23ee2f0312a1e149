"""In-memory span tracer for the benchmark, installed from outside the library.

The library has no tracing of its own, so the benchmark records spans by
replacing the public functions and methods at each layer boundary with
timing wrappers for the duration of a traced window, and putting the
originals back afterwards.  A span is ``(name, start_ns, end_ns, parent,
request, note)``: *parent* is the index of the enclosing span (``-1`` at the
root), *request* the benchmark operation that caused it, and *note* an
optional number the probe extracts from the call (points handed to a
geometry kernel, a pruning area ratio, ...).  Spans stay in memory and are
written once, when the run ends.

A span's name starts with its layer (``language``, ``analysis``,
``pruning``, ``sampling``, ``geometry``, ``synthesis``, ``service``, or
``bench`` for the benchmark's own bookkeeping).  A layer's self time is the
time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, Optional[float]]

_MISSING = object()


class Tracer:
    """Records nested spans and call counts while its probes are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.request, None))
        self._stack.append(index)
        return index

    def end(self, index: int, note: Optional[float] = None) -> None:
        name, start, _, parent, request, _ = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent, request, note)
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int, request: int) -> None:
        """Add a finished root span, for work that overlaps other spans (requests in flight)."""
        self.spans.append((name, start_ns, end_ns, -1, request, None))

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        note: Optional[Callable[[tuple, dict, Any], Optional[float]]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a wrapper recording span *name*.

        *note*, when given, maps ``(args, kwargs, result)`` to the span's
        note.  The original is restored by :meth:`uninstall`.
        """
        function = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tracer.end(index, note(args, kwargs, result) if note is not None else None)

        self._replace(owner, attribute, traced)

    def count_calls(self, owner: Any, attribute: str, key: str) -> None:
        """Replace ``owner.attribute`` with a wrapper that only counts calls.

        For leaf functions called hundreds of thousands of times per run,
        where a span per call would cost more than the call itself.
        """
        function = getattr(owner, attribute)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        self._replace(owner, attribute, counted)

    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        # A method a class inherits is set on the class itself and deleted
        # again on uninstall, so the base class is never touched.
        original = owner.__dict__.get(attribute, _MISSING) if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every replaced function back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------------

    def self_ns(self, since: int = 0) -> Dict[str, int]:
        """Self time per span name over the spans recorded from *since* on."""
        totals: Dict[str, int] = defaultdict(int)
        for index in range(since, len(self.spans)):
            name, start, end, parent, _, _ = self.spans[index]
            duration = end - start
            totals[name] += duration
            if parent >= since:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def write(self, path: Any) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as handle:
            handle.write(json.dumps(["name", "start_ns", "end_ns", "parent", "request", "note"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _points(position: int) -> Callable[[tuple, dict, Any], float]:
    """Note for a kernel call: the 2-D points in its array argument."""
    import numpy as np

    def note(args: tuple, kwargs: dict, result: Any) -> float:
        return float(np.asarray(args[position]).size // 2)

    return note


#: Kernel methods and the position of their point/corner array argument.
KERNEL_METHODS = {
    "points_in_polygon": 2,
    "objects_contained": 2,
    "pairwise_collisions": 1,
    "batch_collision_free": 1,
}


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark measures."""
    import repro.synthesis as synthesis
    from repro.core import regions
    from repro.geometry import backends
    from repro.language import compiler
    from repro.sampling import engine, strategies

    tracer.wrap(compiler, "compile_scenario", "language.compile")
    tracer.wrap(compiler.CompiledScenario, "scenario", "language.interpret")
    tracer.wrap(
        compiler.CompiledScenario,
        "prune_bounds",
        "analysis.analyze",
        note=lambda args, kwargs, bounds: float(bool(bounds is not None and bounds.mapped and bounds.objects)),
    )
    tracer.wrap(
        strategies,
        "prune_scenario",
        "pruning.prune",
        note=lambda args, kwargs, report: report.area_ratio if report is not None else None,
    )
    tracer.wrap(engine.SamplerEngine, "sample", "sampling.sample")
    tracer.wrap(strategies, "draw_candidate", "sampling.draw")
    tracer.wrap(strategies.VectorizedSampler, "_draw_block", "sampling.draw")
    tracer.wrap(strategies.DirectSampler, "_draw_candidate", "sampling.draw")
    tracer.wrap(strategies.VectorizedSampler, "_bulk_geometry_failures", "sampling.check.bulk")
    tracer.wrap(strategies, "contained_in_workspace", "sampling.check.containment")
    tracer.wrap(strategies, "no_pairwise_collisions", "sampling.check.collision")
    tracer.wrap(strategies, "all_required_visible", "sampling.check.visibility")
    tracer.wrap(strategies, "check_user_requirements", "sampling.check.user")
    tracer.wrap(synthesis, "build_plan", "synthesis.build")
    tracer.wrap(synthesis.DirectPlan, "seed", "synthesis.propose")
    backend_class = type(backends.active_backend())
    for method, position in KERNEL_METHODS.items():
        tracer.wrap(backend_class, method, f"geometry.kernel.{method}", note=_points(position))
    tracer.count_calls(regions.PolygonalRegion, "contains_point", "geometry.contains_point_calls")
