"""The pluggable scene-sampling subsystem.

The paper's core loop — rejection sampling of scenes against declarative
requirements (Sec. 5) — lives here as an engine with interchangeable
strategies:

* ``"rejection"`` (:class:`RejectionSampler`) — the seed behaviour, extracted;
* ``"pruning"`` (:class:`PruningAwareSampler`) — Sec. 5.2 pruning first,
  with bounds derived automatically by static requirement analysis
  (:mod:`repro.analysis`) when the scenario came from a compiled artifact;
* ``"batch"`` (:class:`BatchSampler`) — dependency-aware batched candidates
  with partial resampling of independent object groups;
* ``"vectorized"`` (:class:`VectorizedSampler`) — block candidate drawing
  with bulk geometric rejection through the numpy kernel
  (:mod:`repro.geometry.kernel`); the default for ``generate_batch``;
* ``"pruned-vectorized"`` (:class:`PrunedVectorizedSampler`) — automatic
  pruning composed with the vectorized block sampler (the stacked fast
  path);
* ``"direct"`` (:class:`DirectSampler`) — constructive sampling from the
  pruned feasible regions (:mod:`repro.synthesis`): positions draw O(1)
  from triangle fans, deviations from the analyzer's arcs, with
  importance-weight diagnostics on the accepted scenes;
* ``"direct-fallback"`` (:class:`DirectFallbackSampler`) — ``"direct"``
  when a constructive plan exists, degrading to pruned-vectorized block
  rejection when the scenario offers no constructive channel.

``SamplerEngine`` accepts a live ``Scenario``, a compiled artifact
(:func:`repro.language.compile_scenario` — the warm path that skips the
parser and interpreter), or raw Scenic source::

    from repro.sampling import SamplerEngine

    engine = SamplerEngine("ego = Object at 0 @ 0")   # compiles via the artifact cache
    scene = engine.sample(seed=0)

See ``docs/sampling.md`` for the API guide, ``docs/geometry.md`` for the
kernel underneath, and ``docs/service.md`` for the serving layer on top.
"""

from .dependency import DependencyGraph, ObjectGroup
from .engine import SamplerEngine, resolve_scenario
from .stats import AggregateStats, SceneBatch, merge_generation_stats
from .strategies import (
    STRATEGIES,
    BatchSampler,
    DirectFallbackSampler,
    DirectSampler,
    PrunedVectorizedSampler,
    PruningAwareSampler,
    RejectionSampler,
    SamplingStrategy,
    VectorizedSampler,
    check_builtin_requirements,
    check_user_requirements,
    draw_candidate,
    make_strategy,
    register_strategy,
)

__all__ = [
    "SamplerEngine",
    "resolve_scenario",
    "SamplingStrategy",
    "RejectionSampler",
    "PrunedVectorizedSampler",
    "PruningAwareSampler",
    "BatchSampler",
    "DirectFallbackSampler",
    "DirectSampler",
    "VectorizedSampler",
    "DependencyGraph",
    "ObjectGroup",
    "AggregateStats",
    "SceneBatch",
    "merge_generation_stats",
    "STRATEGIES",
    "register_strategy",
    "make_strategy",
    "draw_candidate",
    "check_builtin_requirements",
    "check_user_requirements",
]
