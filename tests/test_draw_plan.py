"""The compiled draw plan must be the recursive ``concretize`` walk, flattened.

:class:`repro.sampling.dependency.DrawPlan` replaces the per-candidate walk
(``obj._concretize(sample)`` per object, the ego, ``concretize`` per param)
in the rejection, vectorized and direct strategies.  These tests hold it to
the walk draw for draw: the same objects, ego and params, the same memo
(keys and values) and the same RNG state afterwards, also when a draw
raises mid-plan, for every ``sample_given`` the generated draw writes out
inline.  They also pin the plan's lifecycle: rebuilt after pruning
and after a source object's property is reassigned, never carried by a
pickle or a copy, and built once when threads share a scenario.
"""

import copy
import linecache
import pickle
import random
import threading
import time
from pathlib import Path

import pytest

from repro.core.distributions import (
    Distribution,
    FunctionDistribution,
    Normal,
    OperatorDistribution,
    Range,
    Sample,
    VectorDistribution,
    concretize,
)
from repro.core.errors import RejectSample, ScenicError
from repro.core.objects import Constructible, Object
from repro.core.pruning import prune_scenario
from repro.core.scenario import GenerationStats, ScenarioBuilder
from repro.core.vectors import Vector
from repro.evals.corpus import REPO_ROOT, Manifest
from repro.language import compile_scenario, scenario_from_file, scenario_from_string
from repro.sampling import dependency, make_strategy
from repro.sampling.dependency import DrawPlan, draw_plan
from repro.sampling.strategies import draw_candidate

SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
EXAMPLES = sorted(SCENARIOS.glob("*.scenic"))
SEEDS = (0, 1, 7)
DRAWS_PER_SEED = 12


# ---------------------------------------------------------------------------
# The reference walk and an exact comparison
# ---------------------------------------------------------------------------


def walk(scenario, sample):
    """The recursive walk the plan replaces, verbatim."""
    objects = [scenic_object._concretize(sample) for scenic_object in scenario.objects]
    ego = scenario.ego._concretize(sample)
    params = {name: concretize(value, sample) for name, value in scenario.params.items()}
    return objects, ego, params


def canon(value, depth=0):
    """An exact, structure-preserving image of a drawn value.

    Values built per draw (concrete objects, derived regions) are compared
    by content, a few levels deep; anything else by identity.
    """
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (bool, int, str, type(None))):
        return (type(value).__name__, value)
    if isinstance(value, Vector):
        return ("vector", value.x.hex(), value.y.hex())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(canon(item, depth) for item in value))
    if isinstance(value, dict):
        return ("dict", tuple((key, canon(item, depth)) for key, item in value.items()))
    if depth > 4 or callable(value) or isinstance(value, type):
        return ("identity", id(value))
    if isinstance(value, Constructible):
        attributes = {
            name: (id(item) if name == "_source_object" else canon(item, depth + 1))
            for name, item in vars(value).items()
        }
        return ("object", type(value).__name__, tuple(attributes), tuple(attributes.values()))
    if hasattr(value, "__dict__"):
        state = {
            name: item for name, item in vars(value).items() if not name.startswith("_")
        }
        return ("instance", type(value).__name__, canon(state, depth + 1))
    return ("identity", id(value))


def outcome(draw, scenario, seed_rng):
    """Draw one candidate; return everything the walk contract covers."""
    sample = Sample(seed_rng)
    try:
        result = canon(draw(scenario, sample))
    except ScenicError as error:
        result = (type(error).__name__, str(error))
    memo = {key: canon(value) for key, value in sample._values.items()}
    return result, memo, seed_rng.getstate()


def assert_plan_matches_walk(scenario, seed, draws=DRAWS_PER_SEED, preset=frozenset(), seeder=None):
    walk_rng, plan_rng = random.Random(seed), random.Random(seed)

    def plan_draw(scenario, sample):
        if seeder is not None:
            seeder(sample)
        return draw_plan(scenario, preset).draw(sample)

    def walk_draw(scenario, sample):
        if seeder is not None:
            seeder(sample)
        return walk(scenario, sample)

    for index in range(draws):
        expected = outcome(walk_draw, scenario, walk_rng)
        actual = outcome(plan_draw, scenario, plan_rng)
        assert actual[0] == expected[0], f"draw {index}: objects/ego/params differ"
        assert actual[1].keys() == expected[1].keys(), f"draw {index}: memo keys differ"
        assert actual[1] == expected[1], f"draw {index}: memo values differ"
        assert actual[2] == expected[2], f"draw {index}: RNG state differs"


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_plan_equals_walk_on_every_example(path):
    scenario = scenario_from_file(path)
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed)


def corpus_slice():
    manifest = Manifest.load()
    entries = manifest.stratified_subset(per_bucket=2, difficulties=("easy", "medium", "hard"))
    return [pytest.param(entry, id=entry.id) for entry in entries]


@pytest.mark.parametrize("entry", corpus_slice())
def test_plan_equals_walk_on_corpus_slice(entry):
    scenario = compile_scenario(entry.source(REPO_ROOT)).scenario(fresh=True)
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed, draws=6)


def test_plan_equals_walk_with_mutation_shared_nodes_and_containers():
    source = (
        "ego = Object at (-5, 5) @ (-5, 5)\n"
        "spot = OrientedPoint at (10, 20) @ (0, 5), facing (-30, 30) deg\n"
        "a = Object at spot, with width (1, 3)\n"
        "b = Object ahead of spot by (2, 4), with height a.width\n"
        "param pair = ((0, 1), 'x', 3)\n"
        "param listed = [a.width, (1, 2)]\n"
        "mutate a by (0.5, 2)\n"
    )
    scenario = scenario_from_string(source)
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed)


def test_reject_sample_mid_plan_leaves_the_same_rng_state():
    def picky(value):
        if value > 0.5:
            raise RejectSample("value above one half")
        return value

    with ScenarioBuilder() as builder:
        first = Range(0, 1)
        builder.set_ego(Object(position=Vector(0, 0), width=first))
        Object(
            position=Vector(10, 0),
            width=FunctionDistribution(picky, (Range(0, 1),)),
            height=Range(1, 2),
        )
        Object(position=Vector(20, 0), width=Range(1, 2))  # not drawn after a raise
    scenario = builder.scenario()
    raised = 0
    walk_rng, plan_rng = random.Random(5), random.Random(5)
    for _ in range(40):
        expected = outcome(lambda s, sample: walk(s, sample), scenario, walk_rng)
        actual = outcome(lambda s, sample: draw_plan(s).draw(sample), scenario, plan_rng)
        assert actual == expected
        raised += expected[0][0] == "RejectSample"
    assert 5 < raised < 35  # both outcomes were exercised


def test_list_and_dict_params_are_fresh_on_every_draw():
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(position=Vector(0, 0)))
        builder.param("constant_list", [1, 2])
        builder.param("random_list", [Range(0, 1), 2])
        builder.param("mapping", {"a": Range(0, 1), "b": 1})
        builder.param("constant_tuple", (1, 2))
    scenario = builder.scenario()
    plan = draw_plan(scenario)
    rng = random.Random(0)
    _, _, first = plan.draw(Sample(rng))
    _, _, second = plan.draw(Sample(rng))
    for name in ("constant_list", "random_list", "mapping"):
        assert first[name] is not second[name]
        assert first[name] is not scenario.params[name]
    assert first["constant_list"] == [1, 2]
    assert first is not second
    first["constant_list"].append(3)
    assert plan.draw(Sample(rng))[2]["constant_list"] == [1, 2]


@pytest.mark.parametrize(
    "name", ["crossing_traffic", "badly_parked", "mars_bottleneck", "warehouse_picking", "platoon"]
)
def test_direct_preset_draws_equal_the_walk_with_the_same_memo(name):
    scenario = scenario_from_file(SCENARIOS / f"{name}.scenic")
    strategy = make_strategy("direct")
    strategy.bind(scenario)
    direct_plan = strategy.plan
    preset = direct_plan.preset_ids
    assert preset, "the scenario should have a constructive plan"

    def seeder(sample):
        direct_plan.seed(sample, sample.rng, GenerationStats())

    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed, preset=preset, seeder=seeder)


def test_unseeded_preset_node_falls_back_to_the_walk():
    scenario = scenario_from_file(SCENARIOS / "two_cars.scenic")
    position = scenario.objects[1].properties["position"]
    preset = frozenset({id(position)})
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed, preset=preset)


def test_unseeded_preset_with_a_random_closure_leaves_later_draws_to_the_memo():
    base = Range(1, 2)
    doubled = base * 2
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(position=Vector(0, 0), width=doubled))
        Object(position=Vector(5, 0), width=base, height=Range(1, 2))
    scenario = builder.scenario()
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed, preset=frozenset({id(doubled)}))


def test_opaque_hook_and_sample_in_override_are_concretized_by_the_walk():
    class Doubling(Distribution):
        """Overrides sample_in: the plan must not see into it."""

        def __init__(self, base):
            super().__init__(base)

        def sample_in(self, sample):
            value = sample._values.get(id(self))
            if value is None:
                value = 2 * concretize(self._dependencies[0], sample)
                sample.set_value_for(self, value)
            return value

    class Hooked:
        def __init__(self, inner):
            self.inner = inner

        def _concretize(self, sample):
            return ("hooked", concretize(self.inner, sample))

    shared = Range(0, 1)
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(position=Vector(0, 0), width=Doubling(shared)))
        Object(position=Vector(5, 0), width=shared, height=Range(1, 2))
        builder.param("hooked", Hooked(shared))
        builder.param("late", Range(0, 1))
    scenario = builder.scenario()
    plan = draw_plan(scenario)
    assert {step[0] for step in plan._steps} >= {dependency._OP_OPAQUE, dependency._OP_DRAW_CHECKED}
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed)


def test_make_fills_the_instance_dict_in_property_order():
    concrete = Object._make(position=Vector(1, 2), heading=0.5, width=2.0, height=3.0)
    assert list(vars(concrete)) == ["properties", "position", "heading", "width", "height", "_registered"]
    assert concrete.width == 2.0 and concrete.properties["height"] == 3.0


def test_make_still_rejects_a_read_only_class_property():
    with pytest.raises(AttributeError):
        Object._make(position=Vector(0, 0), heading=0.0, width=1.0, height=1.0, corners=[])


# ---------------------------------------------------------------------------
# The generated draw
# ---------------------------------------------------------------------------


def _weighted(a, b=0.0, *, scale=1.0, **extra):
    return (a + b) * scale + sum(extra.values())


def _specialised_scenario():
    """Every inlined ``sample_given``, and a param that raises mid-plan."""
    a, b, c = Range(0, 1), Range(1, 2), Range(-1, 1)
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(position=VectorDistribution(Range(-5, 5), c), width=b))
        Object(position=VectorDistribution(a * 10, 5), heading=-c, height=abs(c) + 1)
        operators = {
            name: OperatorDistribution(name, a, b)
            for name in ("+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", ">", "<=", ">=", "and", "or")
        }
        operators.update(
            getitem=VectorDistribution(a, c)[1], neg=-a, abs=abs(c), negated=OperatorDistribution("not", c),
            constant_left=2 - a, normal=Normal(a, b),
        )
        for name, value in operators.items():
            builder.param(name, value)
        builder.param("positional", FunctionDistribution(max, (a, c, 0.25)))
        builder.param("keywords", FunctionDistribution(_weighted, (a,), {"b": b, "scale": c}))
        builder.param("constant_args", FunctionDistribution(_weighted, (1.0, 2.0), {"scale": a}))
        odd_keys = {"not an identifier": b, "lambda": c}
        builder.param("odd_keys", FunctionDistribution(_weighted, (a,), odd_keys))
        builder.param("shared", FunctionDistribution(_weighted, (a, b)) * 2)
        builder.param("interval", Range(a, Range(0, 1)))  # empty about half the time
        builder.param("after", Range(0, 1))
    return builder.scenario()


def test_specialised_draws_equal_the_walk():
    scenario = _specialised_scenario()
    raised = 0
    walk_rng, plan_rng = random.Random(9), random.Random(9)
    for _ in range(60):
        expected = outcome(lambda s, sample: walk(s, sample), scenario, walk_rng)
        actual = outcome(lambda s, sample: draw_plan(s).draw(sample), scenario, plan_rng)
        assert actual == expected
        raised += expected[0][0] == "ScenicError"
    assert 10 < raised < 50  # both outcomes were exercised


def test_specialised_nodes_are_written_out_and_the_rest_called():
    scenario = _specialised_scenario()
    plan = draw_plan(scenario)
    plan.draw(Sample(random.Random(0)))
    function = vars(plan)["draw"]
    bound = [cell.cell_contents for cell in function.__closure__]
    called = {item.__func__ for item in bound if hasattr(item, "__func__")}
    assert Normal.sample_given in called
    inlined = {Range.sample_given, VectorDistribution.sample_given, OperatorDistribution.sample_given,
               FunctionDistribution.sample_given}
    assert not called & inlined
    # The functions themselves are called directly, with no argument tuple.
    assert max in bound and _weighted in bound


def test_an_unknown_operator_raises_as_the_walk_does():
    with ScenarioBuilder() as builder:
        builder.set_ego(Object(position=Vector(0, 0)))
        builder.param("odd", OperatorDistribution("@@", Range(0, 1), 2))
    scenario = builder.scenario()
    with pytest.raises(KeyError):
        walk(scenario, Sample(random.Random(0)))
    with pytest.raises(KeyError):
        draw_plan(scenario).draw(Sample(random.Random(0)))


def test_the_draw_is_generated_once_at_the_first_draw(monkeypatch):
    scenario = scenario_from_file(SCENARIOS / "mars_bottleneck.scenic")
    compiled = []
    original = dependency._compile_draw

    def slow_compile(*args):
        compiled.append(args)
        time.sleep(0.05)  # widen the race window
        return original(*args)

    monkeypatch.setattr(dependency, "_compile_draw", slow_compile)
    plan = draw_plan(scenario)
    assert compiled == []  # building a plan generates no code
    barrier = threading.Barrier(8)
    results = []

    def worker(index):
        barrier.wait()
        results.append(plan.draw(Sample(random.Random(index))))

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(compiled) == 1 and len(results) == 8
    assert vars(plan)["draw"].__code__.co_filename == "<draw plan>"
    # The source is neither kept on the plan nor registered for tracebacks.
    assert not any(isinstance(value, str) for value in vars(plan).values())
    assert "<draw plan>" not in linecache.cache


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_plan_is_rebuilt_after_pruning():
    scenario = scenario_from_file(SCENARIOS / "crossing_traffic.scenic")
    before = draw_plan(scenario)
    report = prune_scenario(scenario)
    assert report.area_ratio < 1.0
    after = draw_plan(scenario)
    assert after is not before
    for seed in SEEDS:
        assert_plan_matches_walk(scenario, seed)


def test_plan_is_rebuilt_after_a_source_property_is_reassigned():
    scenario = scenario_from_file(SCENARIOS / "two_cars.scenic")
    before = draw_plan(scenario)
    draw_candidate(scenario, random.Random(0), GenerationStats())
    target = scenario.objects[1]
    target._assign_property("width", 7.5)
    after = draw_plan(scenario)
    assert after is not before
    objects, _, _ = after.draw(Sample(random.Random(0)))
    assert objects[1].width == 7.5
    assert_plan_matches_walk(scenario, 3)
    # ``mutate`` enables noise through the same path: the plan must draw it.
    target._assign_property("mutationScale", 1.0)
    assert draw_plan(scenario) is not after
    assert_plan_matches_walk(scenario, 4)


def test_plan_is_rebuilt_when_the_scenario_gains_a_param():
    scenario = scenario_from_file(SCENARIOS / "two_cars.scenic")
    before = draw_plan(scenario)
    scenario.params["extra"] = Range(0, 1)
    assert draw_plan(scenario) is not before
    assert_plan_matches_walk(scenario, 2)


# ---------------------------------------------------------------------------
# Plans never travel with a scenario or an artifact
# ---------------------------------------------------------------------------


def test_pickles_and_copies_of_a_bound_scenario_carry_no_plan():
    scenario = scenario_from_file(SCENARIOS / "two_cars.scenic")
    scenario.generate(seed=1)
    assert scenario._draw_plans
    for clone in (
        pickle.loads(pickle.dumps(scenario)),
        copy.copy(scenario),
        copy.deepcopy(scenario),
    ):
        assert "_draw_plans" not in vars(clone)
        assert clone._draw_plans is None
        draw_candidate(clone, random.Random(1), GenerationStats())  # builds its own
        assert clone._draw_plans
    with pytest.raises(TypeError):
        pickle.dumps(draw_plan(scenario))


def test_pickles_and_copies_of_a_compiled_artifact_carry_no_plan():
    artifact = compile_scenario("ego = Object at (-5, 5) @ (-5, 5)\nObject at 20 @ 20\n")
    shared = artifact.scenario(fresh=False)
    shared.generate(seed=1)
    assert shared._draw_plans
    for clone in (pickle.loads(pickle.dumps(artifact)), copy.copy(artifact), copy.deepcopy(artifact)):
        rebuilt = clone.scenario(fresh=False)
        assert rebuilt is not shared
        assert rebuilt._draw_plans is None


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------


def test_threads_sampling_one_scenario_build_one_plan(monkeypatch):
    scenario = scenario_from_file(SCENARIOS / "mars_bottleneck.scenic")
    builds = []
    original_init = DrawPlan.__init__

    def slow_init(self, *args, **kwargs):
        builds.append(self)
        time.sleep(0.05)  # widen the race window
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(DrawPlan, "__init__", slow_init)
    barrier = threading.Barrier(8)
    seen = []

    def worker(index):
        barrier.wait()
        for draw in range(3):
            draw_candidate(scenario, random.Random(index * 10 + draw), GenerationStats())
        seen.append(draw_plan(scenario))

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert len(seen) == 8 and all(plan is builds[0] for plan in seen)
