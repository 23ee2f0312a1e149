"""Direct synthesis: constructive sampling from pruned feasible regions.

The paper makes scene improvisation tractable by *pruning* the rejection
loop (Sec. 5.2); this subsystem goes one step further and turns the pruned
feasible region into a generator.  A :class:`DirectPlan` bundles, per
scenario:

* **position proposals** (:mod:`.region_sampler`) — each object's pruned
  position region triangulated into an O(1) area-weighted
  :class:`~repro.geometry.triangulation.TriangleFan`, drawn from directly
  and pre-seeded into the candidate's ``Sample`` memo;
* **conditional deviation draws** (:mod:`.conditional`) — heading
  deviations truncated per candidate to the analyzer's wrap-safe
  ``CircularInterval`` arcs instead of rejecting on them;
* **importance accounting** (:mod:`.importance`) — online acceptance
  estimates for the residual constraints that still run as rejection
  tests, carried as ``scene.importance_weight`` so downstream prior-mass
  estimates stay unbiased.

Every proposal is a sound *over-approximation* of the feasible set, and
every requirement is still re-checked on the concrete candidate, so the
sampled distribution is exactly the requirement-conditioned prior — the
same semantics as plain rejection, at a fraction of the candidate count
(the statistical-equivalence oracle E in :mod:`repro.fuzz.oracles` checks
precisely this).  The ``direct`` strategy in
:mod:`repro.sampling.strategies` is the engine-facing wrapper; see
``docs/direct-sampling.md`` for the full construction.
"""

from __future__ import annotations

import random as _random
from typing import List, Optional

from ..analysis.bounds import PruneBounds
from ..core.distributions import Sample
from ..core.pruning import PruningReport, bounds_for_scenario
from ..core.scenario import GenerationStats, Scenario
from .conditional import DeviationPlan, build_deviation_plans
from .importance import ImportanceTracker, RESIDUAL_CAUSES
from .region_sampler import (
    DEFAULT_PROPOSAL_ATTEMPTS,
    PositionPlan,
    build_position_plans,
)


class DirectPlan:
    """Everything the ``direct`` strategy needs to seed one candidate.

    Built once per bound scenario (after the pruning pass rewrote the
    sampling regions); :meth:`seed` then runs per candidate in O(plans)
    with O(1) work per position draw.
    """

    def __init__(
        self,
        position_plans: List[PositionPlan],
        deviation_plans: List[DeviationPlan],
        tracker: ImportanceTracker,
        max_proposal_attempts: int = DEFAULT_PROPOSAL_ATTEMPTS,
    ):
        self.position_plans = position_plans
        self.deviation_plans = deviation_plans
        self.tracker = tracker
        self.max_proposal_attempts = max_proposal_attempts

    @property
    def is_constructive(self) -> bool:
        """Whether any draw is constructive (else the plan is a no-op)."""
        return bool(self.position_plans or self.deviation_plans)

    @property
    def preset_ids(self) -> frozenset:
        """Ids of the nodes :meth:`seed` may write into the memo.

        The strategy's :class:`~repro.sampling.dependency.DrawPlan` reads
        these from the memo instead of drawing them.
        """
        nodes = [plan.node for plan in self.position_plans]
        nodes += [plan.node for plan in self.deviation_plans]
        return frozenset(map(id, nodes))

    def seed(self, sample: Sample, rng: _random.Random, stats: GenerationStats) -> None:
        """Pre-seed one candidate's memo table with constructive draws.

        Positions first (deviation truncation reads the seeded positions),
        in object order — the fixed order makes the strategy's RNG stream
        deterministic per seed, which the golden corpus pins.
        """
        for plan in self.position_plans:
            plan.seed(sample, rng, stats, self.tracker, self.max_proposal_attempts)
        for plan in self.deviation_plans:
            plan.seed(sample, rng)

    def describe(self) -> dict:
        return {
            "position_plans": len(self.position_plans),
            "workspace_fans": sum(
                1 for plan in self.position_plans if plan.membership_region is not None
            ),
            "deviation_plans": len(self.deviation_plans),
            "constructive_mass": self.tracker.constructive_mass,
        }


def build_plan(
    scenario: Scenario,
    bounds: Optional[PruneBounds] = None,
    report: Optional[PruningReport] = None,
    max_proposal_attempts: int = DEFAULT_PROPOSAL_ATTEMPTS,
) -> DirectPlan:
    """Build the :class:`DirectPlan` for a (pruned) scenario.

    *bounds* default to the compiled artifact's static-analysis bounds;
    *report* is the pruning pass's report, whose area shrink factor seeds
    the statically known part of the constructive mass.
    """
    if bounds is None:
        bounds = bounds_for_scenario(scenario)
    position_plans = build_position_plans(scenario)
    deviation_plans = build_deviation_plans(scenario, bounds)
    constructive_mass = 1.0
    if report is not None:
        constructive_mass *= min(1.0, report.area_ratio)
    for plan in position_plans:
        constructive_mass *= min(1.0, plan.mass_ratio)
    tracker = ImportanceTracker(constructive_mass=constructive_mass)
    return DirectPlan(
        position_plans,
        deviation_plans,
        tracker,
        max_proposal_attempts=max_proposal_attempts,
    )


__all__ = [
    "DEFAULT_PROPOSAL_ATTEMPTS",
    "RESIDUAL_CAUSES",
    "DirectPlan",
    "DeviationPlan",
    "ImportanceTracker",
    "PositionPlan",
    "build_deviation_plans",
    "build_plan",
    "build_position_plans",
]
