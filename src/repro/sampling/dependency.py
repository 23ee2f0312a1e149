"""Static dependency analysis over a scenario's random-value DAG.

A scenario holds a DAG of :class:`~repro.core.distributions.Distribution`
nodes (plus :class:`~repro.core.objects.Constructible` instances whose
properties reference them).  Two objects are *dependent* when their property
closures share a random node — e.g. two cars positioned relative to the same
random spot, or a platoon whose cars share one model distribution.  Objects
whose closures are disjoint form independent sub-trees of the joint sample:
they can be drawn (and locally re-drawn after a rejection) separately
without changing the induced distribution.

:class:`DependencyGraph` computes this partition once per scenario so the
batched strategies can

* cache the analysis across thousands of candidate scenes,
* identify *static* objects (no randomness at all), and
* clear exactly one group's memoised values from a
  :class:`~repro.core.distributions.Sample` to partially resample it.

:class:`DrawPlan` compiles the same DAG, once per scenario, into a flat list
of steps in the recursive ``concretize`` walk's order, so the per-candidate
draw of the rejection, vectorized and direct strategies is one loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import is_
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..core.distributions import (
    _CONCRETIZE_KINDS,
    _DICT,
    _DISTRIBUTION,
    _HOOK,
    _LEAF,
    _LIST,
    _MISSING,
    _TUPLE,
    Distribution,
    Sample,
    _concretize_kind,
    concretize,
    is_constant,
    needs_sampling,
)
from ..core.objects import Constructible, Object
from ..core.scenario import Scenario


def _closure_of(value: Any, nodes: Dict[int, Any], visited: Set[int]) -> None:
    """Collect every Distribution / Constructible reachable from *value*."""
    key = id(value)
    if key in visited:
        return
    visited.add(key)
    if isinstance(value, Distribution):
        nodes[key] = value
        for dependency in value.dependencies():
            _closure_of(dependency, nodes, visited)
    elif isinstance(value, Constructible):
        nodes[key] = value
        for prop_value in value.properties.values():
            _closure_of(prop_value, nodes, visited)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _closure_of(item, nodes, visited)
    elif isinstance(value, dict):
        for item in value.values():
            _closure_of(item, nodes, visited)


def closure_nodes(value: Any) -> Dict[int, Any]:
    """The id-keyed closure of Distribution/Constructible nodes under *value*."""
    nodes: Dict[int, Any] = {}
    _closure_of(value, nodes, set())
    return nodes


def _may_mutate(constructible: Constructible) -> bool:
    """True when concretising *constructible* may consume mutation noise."""
    scale = constructible.properties.get("mutationScale", 0.0)
    if needs_sampling(scale):
        return True
    try:
        return float(scale) != 0.0
    except (TypeError, ValueError):
        return True


def _random_ids(nodes: Dict[int, Any]) -> Set[int]:
    """Node ids whose concretisation draws from the RNG.

    Distributions always do; a Constructible does when mutation noise is
    enabled for it (its concrete copy then differs per draw, so anything
    sharing it is coupled to that noise).
    """
    random_ids: Set[int] = set()
    for key, node in nodes.items():
        if isinstance(node, Distribution):
            random_ids.add(key)
        elif isinstance(node, Constructible) and _may_mutate(node):
            random_ids.add(key)
    return random_ids


@dataclass
class ObjectGroup:
    """A maximal set of scenario objects coupled through shared random nodes."""

    objects: List[Object]
    nodes: Dict[int, Any] = field(default_factory=dict)
    random_ids: Set[int] = field(default_factory=set)

    @property
    def is_static(self) -> bool:
        """No randomness at all: the group concretises identically every draw."""
        return not self.random_ids

    def forget_in(self, sample: Sample) -> None:
        """Erase this group's memoised values so the next draw resamples it."""
        for node in self.nodes.values():
            sample.forget_value_for(node)

    def __repr__(self) -> str:
        return f"ObjectGroup({len(self.objects)} objects, {len(self.random_ids)} random nodes)"


class DependencyGraph:
    """The independence structure of a scenario's joint sample."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._object_closures: Dict[int, Dict[int, Any]] = {}
        self._object_random_ids: Dict[int, Set[int]] = {}
        for scenic_object in scenario.objects:
            closure = closure_nodes(scenic_object)
            self._object_closures[id(scenic_object)] = closure
            self._object_random_ids[id(scenic_object)] = _random_ids(closure)
        self.groups: List[ObjectGroup] = self._partition(scenario.objects)
        self._group_by_object: Dict[int, ObjectGroup] = {
            id(member): group for group in self.groups for member in group.objects
        }

    # -- construction -----------------------------------------------------------

    def _partition(self, objects: Sequence[Object]) -> List[ObjectGroup]:
        """Union-find over objects: sharing any random node merges two groups."""
        parent = list(range(len(objects)))

        def find(index: int) -> int:
            while parent[index] != index:
                parent[index] = parent[parent[index]]
                index = parent[index]
            return index

        def union(first: int, second: int) -> None:
            root_first, root_second = find(first), find(second)
            if root_first != root_second:
                parent[root_second] = root_first

        owner_by_node: Dict[int, int] = {}
        for index, scenic_object in enumerate(objects):
            for node_id in self._object_random_ids[id(scenic_object)]:
                if node_id in owner_by_node:
                    union(owner_by_node[node_id], index)
                else:
                    owner_by_node[node_id] = index

        grouped: Dict[int, ObjectGroup] = {}
        for index, scenic_object in enumerate(objects):
            root = find(index)
            group = grouped.setdefault(root, ObjectGroup(objects=[]))
            group.objects.append(scenic_object)
            group.nodes.update(self._object_closures[id(scenic_object)])
            group.random_ids.update(self._object_random_ids[id(scenic_object)])
        # Preserve the scenario's object order group-by-group (first member wins).
        return sorted(grouped.values(), key=lambda g: objects.index(g.objects[0]))

    # -- queries ----------------------------------------------------------------

    def group_of(self, scenic_object: Object) -> ObjectGroup:
        try:
            return self._group_by_object[id(scenic_object)]
        except KeyError:
            raise KeyError(f"{scenic_object!r} is not part of this scenario") from None

    def independent(self, first: Object, second: Object) -> bool:
        """True when the two objects share no random node (distinct groups)."""
        return self.group_of(first) is not self.group_of(second)

    @property
    def static_objects(self) -> List[Object]:
        return [obj for group in self.groups if group.is_static for obj in group.objects]

    def __repr__(self) -> str:
        sizes = [len(group.objects) for group in self.groups]
        return f"DependencyGraph({len(self.groups)} groups, sizes={sizes})"


# ---------------------------------------------------------------------------
# The flat draw plan
# ---------------------------------------------------------------------------

# Step opcodes.  A step is a flat tuple whose first item is its opcode and
# whose second is the slot it writes.  One- and two-dependency draws have
# their own opcodes (about 10% off a gallery draw).  The ``_CHECKED``
# variants read the memo first; a plan uses them once a step it cannot see
# into (an opaque or preset step) may already have drawn a node.
(
    _OP_DRAW1, _OP_DRAW2, _OP_DRAWN, _OP_DRAW_CHECKED, _OP_MAKE, _OP_MAKE_CHECKED,
    _OP_PRESET, _OP_OPAQUE, _OP_TUPLE, _OP_LIST, _OP_DICT,
) = range(11)

#: Guards plan builds, so threads sharing a scenario build one plan.
_PLAN_LOCK = threading.Lock()


class DrawPlan:
    """A scenario's candidate draw, compiled once into a flat list of steps.

    :meth:`draw` returns ``(objects, ego, params)`` exactly as the recursive
    walk — ``obj._concretize(sample)`` per object, then the ego, then
    ``concretize`` per param — would, with the same RNG draws in the same
    order and the same values memoised in ``sample._values``.  The build is
    a depth-first walk in that order: each object's varying properties in
    property order, each Distribution's dependencies before the node, each
    Constructible after its properties and then its mutation noise (only
    when :func:`_may_mutate`).  Shared nodes get one step, at their first
    visit, and every later reference reads its slot.

    Nodes in *preset* (ids of nodes a caller seeds into the memo before the
    draw, as the ``direct`` strategy does) read the memo and fall back to
    ``concretize`` when unseeded; their dependencies are not walked from
    there.  Values :func:`concretize` would not resolve by the default
    ``Distribution.sample_in`` or ``Constructible._concretize`` become
    opaque steps calling ``concretize``.

    Plans are cached on the scenario by :func:`draw_plan`, which rebuilds
    them when :meth:`is_current` fails.
    """

    def __init__(self, scenario: Scenario, preset: frozenset = frozenset()):
        self._initial: List[Any] = []  # constants at their slots, None elsewhere
        self._steps: List[tuple] = []  # holds every node, so every memo key
        self._tokens: List[Tuple[Constructible, Any]] = []
        # Build state, dropped below.
        self._preset = preset
        self._constant_slots: Dict[int, int] = {}
        self._node_slots: Dict[int, int] = {}
        self._checked = False
        self._object_slots = [self._visit(scenic_object) for scenic_object in scenario.objects]
        self._ego_slot = self._visit(scenario.ego)
        self._params_slot = self._visit(dict(scenario.params))
        del self._preset, self._constant_slots, self._node_slots, self._checked
        self._steps = tuple(self._steps)
        self._tokens = tuple(self._tokens)
        self._scenario_shape = _scenario_shape(scenario)

    # -- build --------------------------------------------------------------------

    def _slot(self, value: Any = None) -> int:
        self._initial.append(value)
        return len(self._initial) - 1

    def _constant(self, value: Any) -> int:
        index = self._constant_slots.get(id(value))
        if index is None:
            index = self._constant_slots[id(value)] = self._slot(value)
        return index

    def _node_step(self, node: Any, step: tuple) -> int:
        self._node_slots[id(node)] = step[1]
        self._steps.append(step)
        return step[1]

    def _visit(self, value: Any) -> int:
        kind = _CONCRETIZE_KINDS.get(type(value))
        if kind is None:
            kind = _concretize_kind(type(value))
        if kind == _LEAF:
            return self._constant(value)
        if kind == _TUPLE:
            items = tuple(self._visit(item) for item in value)
            if type(value) is tuple and all(self._initial[i] is item for i, item in zip(items, value)):
                return self._constant(value)
            return self._emit((_OP_TUPLE, self._slot(), items))
        if kind == _LIST:
            return self._emit((_OP_LIST, self._slot(), tuple(self._visit(item) for item in value)))
        if kind == _DICT:
            keys = tuple(value)
            items = tuple(self._visit(value[key]) for key in keys)
            return self._emit((_OP_DICT, self._slot(), keys, items))
        known = self._node_slots.get(id(value))
        if known is not None:
            return known
        if id(value) in self._preset:
            return self._visit_preset(value)
        if kind == _DISTRIBUTION and type(value).sample_in is Distribution.sample_in:
            return self._visit_distribution(value)
        if kind == _HOOK and type(value)._concretize is Constructible._concretize:
            return self._visit_constructible(value)
        # Opaque: concretize decides, on each visit, as the walk does.
        self._checked = True
        return self._emit((_OP_OPAQUE, self._slot(), value))

    def _emit(self, step: tuple) -> int:
        self._steps.append(step)
        return step[1]

    def _visit_preset(self, node: Any) -> int:
        # An unseeded preset falls back to the walk, which draws its closure;
        # later steps must then check the memo for nodes that closure holds.
        if any(key not in self._node_slots for key in closure_nodes(node) if key != id(node)):
            self._checked = True
        return self._node_step(node, (_OP_PRESET, self._slot(), node, id(node)))

    def _visit_distribution(self, node: Distribution) -> int:
        arguments = tuple(self._visit(dependency) for dependency in node._dependencies)
        out = self._slot()
        if self._checked:
            step = (_OP_DRAW_CHECKED, out, node.sample_given, id(node), arguments)
        elif len(arguments) == 1:
            step = (_OP_DRAW1, out, node.sample_given, id(node), arguments[0])
        elif len(arguments) == 2:
            step = (_OP_DRAW2, out, node.sample_given, id(node), arguments[0], arguments[1])
        else:
            step = (_OP_DRAWN, out, node.sample_given, id(node), arguments)
        return self._node_step(node, step)

    def _visit_constructible(self, node: Constructible) -> int:
        properties = node.properties
        varying = node._varying_properties
        if varying is None:
            varying = [name for name, value in properties.items() if not is_constant(value)]
            node._varying_properties = varying
        self._tokens.append((node, varying))
        resolved = tuple((name, self._visit(properties[name])) for name in varying)
        cls = type(node)
        mutate = _may_mutate(node) or cls._apply_mutation not in _QUIET_MUTATIONS
        make = None if _makes_by_update(cls, properties) else cls._make
        opcode = _OP_MAKE_CHECKED if self._checked else _OP_MAKE
        step = (opcode, self._slot(), node, id(node), cls, dict(properties), resolved, mutate, make)
        return self._node_step(node, step)

    # -- use ----------------------------------------------------------------------

    def is_current(self, scenario: Scenario) -> bool:
        """False once the scenario or a source object changed since the build.

        ``_assign_property`` drops a Constructible's ``_varying_properties``
        list, so an object whose list is no longer the one the plan saw has
        been reassigned.  In-place distribution rewrites (pruning) drop the
        scenario's plans explicitly.
        """
        for node, token in self._tokens:
            if node._varying_properties is not token:
                return False
        shape = _scenario_shape(scenario)
        return len(shape) == len(self._scenario_shape) and all(map(is_, shape, self._scenario_shape))

    def draw(self, sample: Sample) -> Tuple[List[Any], Any, Dict[str, Any]]:
        """Concretize one candidate: ``(objects, ego, params)``."""
        slots = self._initial.copy()
        values = sample._values
        rng = sample.rng
        sample._keep_alive.append(self._steps)
        for step in self._steps:
            op = step[0]
            if op == _OP_DRAW1:
                slots[step[1]] = values[step[3]] = step[2]([slots[step[4]]], rng)
            elif op == _OP_DRAW2:
                slots[step[1]] = values[step[3]] = step[2]([slots[step[4]], slots[step[5]]], rng)
            elif op == _OP_MAKE or op == _OP_MAKE_CHECKED:
                _, out, node, key, cls, properties, resolved, mutate, make = step
                if op == _OP_MAKE_CHECKED:
                    concrete = values.get(key, _MISSING)
                    if concrete is not _MISSING:
                        slots[out] = concrete
                        continue
                properties = properties.copy()
                for name, index in resolved:
                    properties[name] = slots[index]
                if make is None:  # Constructible._make, inlined
                    concrete = cls.__new__(cls)
                    concrete.properties = properties
                    concrete.__dict__.update(properties)
                    concrete._registered = False
                else:
                    concrete = make(**properties)
                concrete._source_object = node
                slots[out] = values[key] = concrete
                if mutate:
                    concrete._apply_mutation(sample)
            elif op == _OP_DRAWN:
                slots[step[1]] = values[step[3]] = step[2]([slots[i] for i in step[4]], rng)
            elif op == _OP_TUPLE:
                slots[step[1]] = tuple([slots[i] for i in step[2]])
            elif op == _OP_LIST:
                slots[step[1]] = [slots[i] for i in step[2]]
            elif op == _OP_DICT:
                slots[step[1]] = {key: slots[i] for key, i in zip(step[2], step[3])}
            elif op == _OP_DRAW_CHECKED:
                value = values.get(step[3], _MISSING)
                if value is _MISSING:
                    value = values[step[3]] = step[2]([slots[i] for i in step[4]], rng)
                slots[step[1]] = value
            elif op == _OP_PRESET:
                value = values.get(step[3], _MISSING)
                slots[step[1]] = value if value is not _MISSING else concretize(step[2], sample)
            else:  # _OP_OPAQUE
                slots[step[1]] = concretize(step[2], sample)
        return (
            [slots[i] for i in self._object_slots],
            slots[self._ego_slot],
            slots[self._params_slot],
        )

    def __reduce__(self):
        raise TypeError("a DrawPlan is keyed by object ids and cannot be pickled or copied")

    def __repr__(self) -> str:
        return f"DrawPlan({len(self._steps)} steps, {len(self._initial)} slots)"


#: ``_apply_mutation`` hooks that draw nothing when ``_may_mutate`` is false.
_QUIET_MUTATIONS = (Constructible._apply_mutation, Object._apply_mutation)


def _makes_by_update(cls: type, properties: Dict[str, Any]) -> bool:
    """True when ``cls._make`` is the stock one and fills ``__dict__`` directly."""
    return cls._make.__func__ is Constructible._make.__func__ and (
        cls._data_descriptor_names().isdisjoint(properties)
    )


def _scenario_shape(scenario: Scenario) -> tuple:
    """What a plan reads from the scenario itself: objects, ego and params."""
    params = scenario.params
    return (*scenario.objects, scenario.ego, *params, *params.values())


def draw_plan(scenario: Scenario, preset: frozenset = frozenset()) -> DrawPlan:
    """The scenario's current :class:`DrawPlan` for *preset*, built on first use.

    Plans live in ``scenario._draw_plans`` (never pickled or copied with the
    scenario).  A build runs under a lock and is published by replacing the
    whole dict in one assignment, so threads sampling one scenario share a
    single plan and readers never see a half-built one.
    """
    plans = scenario._draw_plans
    plan = plans.get(preset) if plans is not None else None
    if plan is not None and plan.is_current(scenario):
        return plan
    with _PLAN_LOCK:
        plans = scenario._draw_plans
        plan = plans.get(preset) if plans is not None else None
        if plan is None or not plan.is_current(scenario):
            plan = DrawPlan(scenario, preset)
            updated = dict(plans or {})
            updated[preset] = plan
            scenario._draw_plans = updated
    return plan


__all__ = ["DependencyGraph", "DrawPlan", "ObjectGroup", "closure_nodes", "draw_plan"]
