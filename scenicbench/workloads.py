"""The benchmark's four workloads, each driven through the library's public API.

Every workload turns ``--seed`` and ``--seconds`` into a deterministic list
of *operations*:

* ``gallery-rejection`` / ``gallery-direct`` — one operation is one scene of
  a gallery program, drawn by a bound ``SamplerEngine`` with its own
  per-scene seed;
* ``corpus-authoring`` — one operation is one corpus program taken from
  source to its first scene with a cold artifact cache;
* ``service-openloop`` — one operation is one request to a
  ``GenerationService``, sent on an open-loop Poisson schedule.

Why these four, and which layer each one loads, is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import RejectionError
from repro.language import compiler
from repro.sampling import SamplerEngine
from repro.service.protocol import splitmix64

#: One cycle of the gallery mix: crossing_traffic (700-1,600 candidates and
#: about half a second a scene under rejection) plus four scenes each of the
#: two cheaper programs.
GALLERY_CYCLE = ("crossing_traffic",) + ("mars_bottleneck", "warehouse_picking") * 4

#: Measured seconds per cycle (2-core machine, numpy backend), so that a pass
#: over ``round(seconds / CYCLE_SECONDS)`` cycles draws for about *seconds*.
CYCLE_SECONDS = {"rejection": 0.75, "direct": 0.45}

#: The strategy an author's pruned first scene goes through.
CORPUS_STRATEGY = "pruned-vectorized"

#: Candidate budget per scene.  The golden corpus samples with the same
#: budget; no workload scene comes near it.
MAX_ITERATIONS = 50_000

#: Service request mix: (program, probability); every request asks for
#: SERVICE_SCENES scenes with splitmix per-scene seeds under rejection.
SERVICE_MIX = (("two_cars", 0.8), ("warehouse_picking", 0.1), ("mars_bottleneck", 0.1))
SERVICE_SCENES = 4

#: Open-loop arrival rates (requests/s) of the two phases, near 30% and 80%
#: of the 2-worker service's capacity for SERVICE_MIX on a 2-core machine.
SERVICE_RATES = (("light", 5.0), ("heavy", 12.0))

#: About how long one request sent alone takes (2-core machine): requests
#: sent one at a time number ``round(seconds / REQUEST_SECONDS)`` per pass.
REQUEST_SECONDS = 0.04

#: Every CHECK_EVERY-th service request is re-sampled inline and compared.
CHECK_EVERY = 8

#: The world libraries the workload programs import.
WORLDS = ("gtaLib", "mars", "warehouse")

REJECTION_CAUSES = ("containment", "collision", "visibility", "user", "sampling")


@dataclass
class CacheTally:
    """Artifact-cache lookups and hits summed over the caches a workload used."""

    lookups: int = 0
    hits: int = 0

    def add(self, cache: Any) -> None:
        self.lookups += cache.stats.lookups
        self.hits += cache.stats.memory_hits + cache.stats.disk_hits


@dataclass
class OpRecord:
    """What one operation produced: its latency, scenes and sampling counts."""

    latency_s: float
    scenes: int
    failed: bool
    iterations: int = 0
    candidates: int = 0
    proposals: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    weight: Optional[float] = None
    phase: str = ""
    extra: Dict[str, float] = field(default_factory=dict)


def scenario_path(root: Path, stem: str) -> Path:
    return root / "examples" / "scenarios" / f"{stem}.scenic"


def pool_seed(stem: str, index: int) -> int:
    """Seed *index* of program *stem*'s fixed pool of scene seeds."""
    return splitmix64(zlib.crc32(stem.encode()) * 1_000_003 + index)


def scene_digest(scene: Any) -> str:
    """A digest of every object's class, position and heading, in order."""
    text = ";".join(
        f"{type(obj).__name__},{float(obj.position[0])!r},{float(obj.position[1])!r},{float(obj.heading)!r}"
        for obj in scene.objects
    )
    return hashlib.sha1(text.encode()).hexdigest()


def sample_scene(engine: SamplerEngine, scene_seed: int) -> OpRecord:
    """Draw one scene; an exhausted budget is a failed operation."""
    start = time.perf_counter()
    try:
        scene = engine.sample(max_iterations=MAX_ITERATIONS, rng=random.Random(scene_seed))
    except RejectionError:
        scene = None
    stats = engine.last_stats
    return OpRecord(
        latency_s=time.perf_counter() - start,
        scenes=1 if scene is not None else 0,
        failed=scene is None,
        iterations=stats.iterations,
        candidates=stats.drawn_candidates,
        proposals=stats.candidates_drawn,
        rejections={cause: getattr(stats, f"rejections_{cause}") for cause in REJECTION_CAUSES},
        digest=scene_digest(scene) if scene is not None else "",
        weight=getattr(scene, "importance_weight", None),
    )


# ---------------------------------------------------------------------------
# Correctness: golden replay
# ---------------------------------------------------------------------------


def golden_mismatches(root: Path, stem: str, strategy: str) -> List[str]:
    """Replay ``tests/golden/<stem>.json``'s *strategy* entry; list differences."""
    from repro.service.protocol import scene_record

    golden = json.loads((root / "tests" / "golden" / f"{stem}.json").read_text())
    expected = golden["strategies"][strategy]
    scenario = compiler.scenario_from_file(scenario_path(root, stem))
    scene = scenario.generate(seed=golden["seed"], max_iterations=golden["max_iterations"], strategy=strategy)
    record = scene_record(scene, iterations=scenario.last_stats.iterations)
    problems = [
        f"{stem}/{strategy}: {key} {record[key]} != {expected[key]}"
        for key in ("ego_index", "iterations")
        if record[key] != expected[key]
    ]
    if not _records_equal(record["objects"], expected["objects"]):
        problems.append(f"{stem}/{strategy}: objects differ")
    return problems


# ---------------------------------------------------------------------------
# Operation workloads (one process, one operation at a time)
# ---------------------------------------------------------------------------


class GalleryWorkload:
    """Scenes of the gallery mix through one bound engine per program."""

    def __init__(self, root: Path, strategy: str):
        self.root = root
        self.strategy = strategy
        self.engines: Dict[str, SamplerEngine] = {}
        self.cache_stats = CacheTally()

    def golden_entries(self) -> List[Tuple[str, str]]:
        return [(stem, self.strategy) for stem in sorted(set(GALLERY_CYCLE))]

    def setup(self) -> None:
        """Compile each program with a cold cache and bind its engine."""
        for stem in sorted(set(GALLERY_CYCLE)):
            cache = compiler.ArtifactCache()
            artifact = compiler.compile_scenario(scenario_path(self.root, stem).read_text(), cache=cache)
            engine = SamplerEngine(artifact, self.strategy)
            engine.strategy.bind(engine.scenario)
            self.engines[stem] = engine
            self.cache_stats.add(cache)

    def operations(self, seed: int, seconds: float) -> List[Tuple[str, int]]:
        """One pass of scenes: a fixed pool of per-scene seeds, in a seeded order.

        A rejection scene's candidate count is geometric, so the cost of a
        run of a few dozen crossing_traffic scenes varies by about 20% with
        the scene seeds alone.  The pool (scene *i* of a program always gets
        the same seed) keeps the work the same from run to run, so the
        run-to-run spread is the program's, not the inputs'; ``--seed``
        decides the order the scenes are drawn in.
        """
        cycles = max(1, round(seconds / CYCLE_SECONDS[self.strategy]))
        drawn: Dict[str, int] = {}
        operations = []
        for _ in range(cycles):
            for stem in GALLERY_CYCLE:
                index = drawn.get(stem, 0)
                drawn[stem] = index + 1
                operations.append((stem, pool_seed(stem, index)))
        random.Random(seed).shuffle(operations)
        return operations

    def run(self, operation: Tuple[str, int]) -> OpRecord:
        stem, scene_seed = operation
        return sample_scene(self.engines[stem], scene_seed)

    def close(self) -> None:
        pass


class CorpusWorkload:
    """Each corpus program from source to its first pruned scene, cold cache."""

    def __init__(self, root: Path):
        self.root = root
        self.sources: Dict[str, str] = {}
        self.cache_stats = CacheTally()

    def golden_entries(self) -> List[Tuple[str, str]]:
        golden = self.root / "tests" / "golden"
        return [(stem, CORPUS_STRATEGY) for stem in sorted(self.sources) if (golden / f"{stem}.json").exists()]

    def setup(self) -> None:
        """Read the manifest and every program's source."""
        manifest = json.loads((self.root / "corpus" / "manifest.json").read_text())
        self.sources = {entry["id"]: (self.root / entry["path"]).read_text() for entry in manifest["scenarios"]}

    def operations(self, seed: int, seconds: float) -> List[Tuple[str, int]]:
        """One pass: every corpus program once, in a seeded order.

        Each program's first scene has a fixed seed, for the reason given in
        :meth:`GalleryWorkload.operations`.  A pass takes about 9 s.
        """
        order = sorted(self.sources)
        random.Random(seed).shuffle(order)
        return [(stem, pool_seed(stem, 0)) for stem in order]

    def run(self, operation: Tuple[str, int]) -> OpRecord:
        stem, scene_seed = operation
        start = time.perf_counter()
        cache = compiler.ArtifactCache()
        artifact = compiler.compile_scenario(self.sources[stem], cache=cache)
        self.cache_stats.add(cache)
        artifact.scenario()
        artifact.prune_bounds()
        engine = SamplerEngine(artifact, CORPUS_STRATEGY)
        engine.strategy.bind(engine.scenario)
        record = sample_scene(engine, scene_seed)
        record.latency_s = time.perf_counter() - start
        return record

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# The open-loop service workload
# ---------------------------------------------------------------------------


@dataclass
class Arrival:
    index: int
    phase: str
    at: float
    stem: str
    seed: int


class ServiceWorkload:
    """Requests to one pooled ``GenerationService``: an open-loop Poisson
    schedule, and requests sent one at a time."""

    def __init__(self, root: Path, workers: int):
        self.root = root
        self.workers = workers
        self.service: Any = None
        self.fingerprints: Dict[str, str] = {}
        self.loop = asyncio.new_event_loop()
        self.checked: List[Tuple[Arrival, Any]] = []

    def golden_entries(self) -> List[Tuple[str, str]]:
        return [(stem, "rejection") for stem, _ in SERVICE_MIX]

    def setup(self) -> None:
        """Start the pool, publish the programs, warm every worker's engines."""
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        from repro.service import GenerationService

        self.service = GenerationService(workers=self.workers)
        await self.service.start()
        self.fingerprints = {
            stem: self.service.publish(scenario_path(self.root, stem).read_text()) for stem, _ in SERVICE_MIX
        }
        await asyncio.gather(
            *(
                self.service.generate(fingerprint, n=2 * max(self.workers, 1), seed=index)
                for index, fingerprint in enumerate(self.fingerprints.values())
            )
        )

    def operations(self, seed: int, seconds: float) -> List[Tuple[str, int]]:
        """Requests to send one at a time: SERVICE_MIX's programs in their
        exact shares, master seeds from each program's fixed pool, in a
        seeded order.  Each request's scenes are sharded over every worker,
        so its latency is the service's: routing, transport, the workers'
        sampling and the coordinator's merge."""
        count = max(1, round(seconds / REQUEST_SECONDS))
        operations = [
            (stem, pool_seed(stem, index)) for stem, share in SERVICE_MIX for index in range(round(share * count))
        ]
        random.Random(seed).shuffle(operations)
        return operations

    def run(self, operation: Tuple[str, int]) -> OpRecord:
        stem, master_seed = operation
        start = time.perf_counter()
        record, _ = self.loop.run_until_complete(self._request(stem, master_seed))
        record.latency_s = time.perf_counter() - start
        return record

    async def _request(self, stem: str, master_seed: int) -> Tuple[OpRecord, Any]:
        """One request; the record's latency is left for the caller to set,
        and the response is None when the request failed."""
        from repro.service import GenerationFailedError, ServiceOverloadedError

        try:
            response = await self.service.generate(
                self.fingerprints[stem],
                n=SERVICE_SCENES,
                seed=master_seed,
                strategy="rejection",
                max_iterations=MAX_ITERATIONS,
                derive="splitmix",
            )
        except (GenerationFailedError, ServiceOverloadedError) as error:
            shed = float(isinstance(error, ServiceOverloadedError))
            return OpRecord(latency_s=0.0, scenes=0, failed=True, extra={"shed": shed}), None
        stats = response.stats
        record = OpRecord(
            latency_s=0.0,
            scenes=response.scene_count,
            failed=False,
            iterations=stats["iterations"],
            candidates=stats["candidates"],
            proposals=stats["candidates_drawn"],
            rejections=dict(stats["rejections"]),
            digest=hashlib.sha1(repr([scene["objects"] for scene in response.scenes]).encode()).hexdigest(),
            extra={
                "wall_s": stats["wall_seconds"],
                "sampling_s": stats["sampling_seconds"],
                "shards": float(stats["shards"]),
                "engine_hits": float(stats["engine_cache_hits"]),
                "worker_hits": float(stats["worker_cache_hits"]),
                "shed": 0.0,
            },
        )
        return record, response

    def schedule(self, seed: int, seconds: float) -> List[Arrival]:
        """The open-loop arrivals of both phases.

        Given the number of arrivals in a phase, a Poisson process places
        them uniformly at random; the count is fixed to ``rate * duration``
        and the programs to SERVICE_MIX's shares, so the offered load is the
        same for every seed.  Requests draw their master seeds from a fixed
        pool (see :meth:`GalleryWorkload.operations`); ``--seed`` decides the
        arrival times and which program arrives when.
        """
        rng = random.Random(seed)
        arrivals: List[Arrival] = []
        duration = seconds / len(SERVICE_RATES)
        drawn: Dict[str, int] = {}
        for phase_index, (phase, rate) in enumerate(SERVICE_RATES):
            count = max(1, round(rate * duration))
            stems = [stem for stem, share in SERVICE_MIX for _ in range(round(share * count))]
            stems += [SERVICE_MIX[0][0]] * (count - len(stems))
            rng.shuffle(stems)
            times = sorted(rng.uniform(0.0, duration) for _ in range(count))
            for at, stem in zip(times, stems):
                index = drawn.get(stem, 0)
                drawn[stem] = index + 1
                at += phase_index * duration
                arrivals.append(Arrival(len(arrivals), phase, at, stem, pool_seed(stem, index)))
        return arrivals

    def drive(self, arrivals: List[Arrival], tracer: Any = None) -> Tuple[List[OpRecord], List[float]]:
        """Send every arrival on time; returns per-request records and sender lags."""
        return self.loop.run_until_complete(self._drive(arrivals, tracer))

    async def _drive(self, arrivals: List[Arrival], tracer: Any) -> Tuple[List[OpRecord], List[float]]:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.01
        lags: List[float] = []

        async def one(arrival: Arrival, due: float) -> OpRecord:
            sent_ns = time.perf_counter_ns()
            record, response = await self._request(arrival.stem, arrival.seed)
            record.latency_s = loop.time() - due
            record.phase = arrival.phase
            if response is not None:
                if tracer is not None:
                    tracer.record("service.request", sent_ns, time.perf_counter_ns(), arrival.index)
                if arrival.index % CHECK_EVERY == 0:
                    self.checked.append((arrival, response))
            return record

        tasks = []
        for arrival in arrivals:
            due = start + arrival.at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, loop.time() - due))
            if tracer is not None:
                tracer.request = arrival.index
            tasks.append(asyncio.ensure_future(one(arrival, due)))
        records = list(await asyncio.gather(*tasks))
        return records, lags

    def check_inline(self) -> Tuple[int, List[str]]:
        """Re-sample the checked requests inline; returns (checked, mismatches)."""
        from repro.service.protocol import derive_scene_seeds, scene_record

        engines = {
            stem: SamplerEngine(
                compiler.compile_scenario(scenario_path(self.root, stem).read_text(), cache=compiler.ArtifactCache()),
                "rejection",
            )
            for stem, _ in SERVICE_MIX
        }
        problems = []
        for arrival, response in self.checked:
            seeds = derive_scene_seeds(arrival.seed, SERVICE_SCENES, "splitmix")
            differing = [
                index
                for index, (scene_seed, served) in enumerate(zip(seeds, response.scenes))
                if not _records_equal(
                    scene_record(
                        engines[arrival.stem].sample(max_iterations=MAX_ITERATIONS, rng=random.Random(scene_seed))
                    )["objects"],
                    served["objects"],
                )
            ]
            if differing:
                problems.append(f"request {arrival.index} ({arrival.stem}): scenes {differing} differ from inline")
        checked = len(self.checked)
        self.checked = []
        return checked, problems

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None
        self.loop.close()


def _records_equal(first: List[Dict[str, Any]], second: List[Dict[str, Any]]) -> bool:
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if a["class"] != b["class"]:
            return False
        values_a = list(a["position"]) + [a["heading"], a["width"], a["height"]]
        values_b = list(b["position"]) + [b["heading"], b["width"], b["height"]]
        if any(abs(x - y) > 1e-9 for x, y in zip(values_a, values_b)):
            return False
    return True


def make_workload(name: str, root: Path) -> Any:
    if name == "gallery-rejection":
        return GalleryWorkload(root, "rejection")
    if name == "gallery-direct":
        return GalleryWorkload(root, "direct")
    if name == "corpus-authoring":
        return CorpusWorkload(root)
    if name == "service-openloop":
        return ServiceWorkload(root, workers=len(os.sched_getaffinity(0)))
    raise ValueError(f"unknown workload {name!r}")

