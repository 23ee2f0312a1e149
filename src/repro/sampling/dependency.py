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
of steps in the recursive ``concretize`` walk's order, and those steps into
one generated straight-line Python function, so the per-candidate draw of
the rejection, vectorized and direct strategies is one call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from keyword import iskeyword
from operator import is_
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

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
    FunctionDistribution,
    OperatorDistribution,
    Range,
    Sample,
    VectorDistribution,
    _concretize_kind,
    concretize,
    is_constant,
    needs_sampling,
)
from ..core.errors import ScenicError
from ..core.objects import Constructible, Object
from ..core.scenario import Scenario
from ..core.vectors import Vector


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
# whose second is the slot it writes.  The ``_CHECKED`` variants read the
# memo first; a plan uses them once a step it cannot see into (an opaque or
# preset step) may already have drawn a node.
(
    _OP_DRAW, _OP_DRAW_CHECKED, _OP_MAKE, _OP_MAKE_CHECKED,
    _OP_PRESET, _OP_OPAQUE, _OP_TUPLE, _OP_LIST, _OP_DICT,
) = range(9)

#: Guards plan builds and their compilation, so threads sharing a scenario
#: build and compile one plan.
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

    The steps are the plan's description; the first :meth:`draw` turns them
    into one straight-line Python function (:func:`_compile_draw`), which
    replaces :meth:`draw` on the instance.

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
        return self._node_step(node, (_OP_PRESET, self._slot(), node))

    def _visit_distribution(self, node: Distribution) -> int:
        arguments = tuple(self._visit(dependency) for dependency in node._dependencies)
        opcode = _OP_DRAW_CHECKED if self._checked else _OP_DRAW
        return self._node_step(node, (opcode, self._slot(), node, arguments))

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
        step = (opcode, self._slot(), node, cls, dict(properties), resolved, mutate, make)
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
        """Concretize one candidate: ``(objects, ego, params)``.

        The first call compiles the plan and stores the compiled function
        as this instance's ``draw``, so later calls go straight to it.
        """
        with _PLAN_LOCK:
            function = vars(self).get("draw")
            if function is None:
                function = self.draw = _compile_draw(
                    self._steps, self._initial, self._object_slots, self._ego_slot, self._params_slot
                )
        return function(sample)

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


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

#: Python operators for the ``OperatorDistribution`` operator names, as
#: ``(arity, template)``; each computes what its ``_BINARY_OPERATIONS`` or
#: ``_UNARY_OPERATIONS`` entry computes.
_OPERATORS = {
    **{name: (2, "{0} %s {1}" % name) for name in (
        "+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", ">", "<=", ">=", "and", "or",
    )},
    "getitem": (2, "{0}[{1}]"),
    "neg": (1, "-{0}"),
    "abs": (1, "abs({0})"),
    "not": (1, "not {0}"),
}


def _empty_interval(low: Any, high: Any) -> None:
    """``Range.sample_given``'s error for ``low > high``."""
    raise ScenicError(f"uniform interval ({low}, {high}) is empty")


def _inline_range(source: "_DrawSource", node: Range, arguments: Sequence[int]):
    low, high = map(source.name, arguments)
    return [f"if {low} > {high}: {source.ref(_empty_interval)}({low}, {high})"], f"rng.uniform({low}, {high})"


def _inline_vector(source: "_DrawSource", node: VectorDistribution, arguments: Sequence[int]):
    x, y = map(source.name, arguments)
    return [], f"{source.ref(Vector)}({x}, {y})"


def _inline_operator(source: "_DrawSource", node: OperatorDistribution, arguments: Sequence[int]):
    arity, template = _OPERATORS.get(node.operator, (None, ""))
    if arity is None or len(arguments) < arity:
        return None  # the generic call raises as the walk does
    return [], template.format(*map(source.name, arguments))


def _inline_function(source: "_DrawSource", node: FunctionDistribution, arguments: Sequence[int]):
    args, kwargs = arguments
    spread = source.spread(args, "*") + source.spread(kwargs, "**")
    return [], f"{source.ref(node.function)}({', '.join(spread)})"


#: ``sample_given`` implementations the generated draw writes out inline,
#: each mapped to the function that emits ``(statements, expression)`` for
#: a node's value (or ``None`` to keep the generic call).
_INLINE_DRAWS = {
    Range.sample_given: _inline_range,
    VectorDistribution.sample_given: _inline_vector,
    OperatorDistribution.sample_given: _inline_operator,
    FunctionDistribution.sample_given: _inline_function,
}


class _DrawSource:
    """The Python source of one plan's draw, and the objects it refers to."""

    def __init__(self, steps: Sequence[tuple], initial: Sequence[Any]):
        self.initial = initial
        self.written = {step[1]: step for step in steps}
        self.bound: List[Any] = []
        self.refs: Dict[int, str] = {}
        self.spread_slots: Set[int] = set()

    def ref(self, value: Any) -> str:
        """The name the generated code reads *value* by (a closure variable)."""
        name = self.refs.get(id(value))
        if name is None:
            name = self.refs[id(value)] = f"k{len(self.bound)}"
            self.bound.append(value)
        return name

    def name(self, index: int) -> str:
        return f"v{index}" if index in self.written else self.ref(self.initial[index])

    def key(self, key: Any) -> str:
        return repr(key) if type(key) is str else self.ref(key)

    def spread(self, index: int, star: str) -> List[str]:
        """Call arguments for ``*slot`` (*star* ``"*"``) or ``**slot`` (``"**"``).

        A container step's slot has exactly one reader, the value whose visit
        made it, so a tuple, or a dict of identifier keys, is written into the
        call in place and the container is never built.
        """
        step = self.written.get(index)
        op = step[0] if step is not None else None
        if star == "*" and op == _OP_TUPLE:
            arguments = [self.name(item) for item in step[2]]
        elif star == "**" and op == _OP_DICT and all(
            type(key) is str and key.isidentifier() and not iskeyword(key) for key in step[2]
        ):
            arguments = [f"{key}={self.name(item)}" for key, item in zip(step[2], step[3])]
        else:
            return [f"{star}{self.name(index)}"]
        self.spread_slots.add(index)
        return arguments

    def draw(self, out: int, node: Distribution, arguments: Sequence[int]) -> List[str]:
        """Statements that draw *node* into ``v{out}`` and its memo entry."""
        inline = _INLINE_DRAWS.get(type(node).sample_given)
        emitted = inline(self, node, arguments) if inline is not None else None
        if emitted is None:
            call = ", ".join(map(self.name, arguments))
            emitted = [], f"{self.ref(node.sample_given)}([{call}], rng)"
        statements, expression = emitted
        return [*statements, f"v{out} = values[{id(node)}] = {expression}"]

    def make(self, step: tuple) -> List[str]:
        _, out, node, cls, properties, resolved, mutate, make = step
        fields = "".join(f", {self.key(name)}: {self.name(index)}" for name, index in resolved)
        lines = [f"p = {{**{self.ref(properties)}{fields}}}"]
        if make is None:  # Constructible._make, inlined
            c = self.ref(cls)
            lines.append(f"o = {c}.__new__({c}); o.properties = p")
            lines.append("o.__dict__.update(p); o._registered = False")
        else:
            lines.append(f"o = {self.ref(make)}(**p)")
        lines.append(f"o._source_object = {self.ref(node)}; v{out} = values[{id(node)}] = o")
        if mutate:
            lines.append("o._apply_mutation(sample)")
        return lines

    def block(self, step: tuple) -> List[str]:
        """The statements of one step."""
        op, out = step[0], step[1]
        if op in (_OP_DRAW_CHECKED, _OP_MAKE_CHECKED, _OP_PRESET):
            missing = self.ref(_MISSING)
            if op == _OP_PRESET:
                inner = [f"v{out} = {self.ref(concretize)}({self.ref(step[2])}, sample)"]
            else:
                inner = self.draw(out, step[2], step[3]) if op == _OP_DRAW_CHECKED else self.make(step)
            return [
                f"v{out} = values.get({id(step[2])}, {missing})",
                f"if v{out} is {missing}:",
                *(" " + line for line in inner),
            ]
        if op == _OP_DRAW:
            return self.draw(out, step[2], step[3])
        if op == _OP_MAKE:
            return self.make(step)
        if op == _OP_OPAQUE:
            return [f"v{out} = {self.ref(concretize)}({self.ref(step[2])}, sample)"]
        if op == _OP_TUPLE:
            return [f"v{out} = ({''.join(self.name(i) + ', ' for i in step[2])})"]
        if op == _OP_LIST:
            return [f"v{out} = [{', '.join(map(self.name, step[2]))}]"]
        pairs = ", ".join(f"{self.key(key)}: {self.name(i)}" for key, i in zip(step[2], step[3]))
        return [f"v{out} = {{{pairs}}}"]  # _OP_DICT


def _compile_draw(
    steps: Sequence[tuple],
    initial: Sequence[Any],
    object_slots: Sequence[int],
    ego_slot: int,
    params_slot: int,
) -> Callable[[Sample], Tuple[List[Any], Any, Dict[str, Any]]]:
    """Compile plan steps into one straight-line function ``draw(sample)``.

    Each step becomes a statement or two in step order, writing slot ``i``
    to the local ``v{i}``; constants and the nodes, classes and functions
    the steps call are closure variables.  The function makes the walk's
    RNG calls in the walk's order, writes the same memo entries, and raises
    where the walk raises.  The source is dropped once compiled.
    """
    source = _DrawSource(steps, initial)
    blocks = [(step[1], source.block(step)) for step in steps]
    objects = "".join(source.name(index) + ", " for index in object_slots)
    lines = [
        "values = sample._values",
        "rng = sample.rng",
        f"sample._keep_alive.append({source.ref(steps)})",
        # A container spread into a call is never built.
        *(line for out, block in blocks if out not in source.spread_slots for line in block),
        f"return [{objects}], {source.name(ego_slot)}, {source.name(params_slot)}",
    ]
    text = "\n".join([
        f"def make({', '.join(f'k{i}' for i in range(len(source.bound)))}):",
        " def draw(sample):",
        *("  " + line for line in lines),
        " return draw",
    ])
    namespace: Dict[str, Any] = {}
    exec(compile(text, "<draw plan>", "exec"), namespace)
    return namespace.pop("make")(*source.bound)


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
