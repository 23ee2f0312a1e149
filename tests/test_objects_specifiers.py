"""Unit tests for the object model, specifiers, and Algorithm 1 (resolveSpecifiers)."""

import math
import random

import pytest

from repro.core import (
    AheadOf,
    At,
    Behind,
    Beyond,
    Facing,
    FacingAwayFrom,
    FacingToward,
    In,
    LeftOf,
    Object,
    OrientedPoint,
    Point,
    Range,
    RightOf,
    ScenarioBuilder,
    Vector,
    With,
)
from repro.core.distributions import Sample, needs_sampling
from repro.core.errors import (
    AmbiguousSpecifierError,
    CyclicDependencyError,
    MissingPropertyError,
)
from repro.core.lazy import DelayedArgument
from repro.core.regions import CircularRegion, PolygonalRegion
from repro.core.specifiers import Specifier, resolve_specifiers
from repro.core.vectorfields import ConstantVectorField
from repro.geometry.polygon import Polygon


class TestDefaults:
    def test_point_defaults(self):
        point = Point()
        assert point.position == Vector(0, 0)
        assert point.viewDistance == 50.0
        assert point.mutationScale == 0.0

    def test_oriented_point_defaults(self):
        oriented = OrientedPoint()
        assert oriented.heading == 0.0
        assert oriented.viewAngle == pytest.approx(math.tau)

    def test_object_defaults(self):
        scenic_object = Object()
        assert scenic_object.width == 1.0
        assert scenic_object.height == 1.0
        assert scenic_object.allowCollisions is False
        assert scenic_object.requireVisible is True

    def test_subclass_overrides_defaults(self):
        class Wide(Object):
            _scenic_properties = {"width": lambda: 3.0}

        assert Wide().width == 3.0
        assert Wide().height == 1.0

    def test_random_defaults_are_independent_across_instances(self):
        class RandomWeight(Object):
            _scenic_properties = {"weight": lambda: Range(0, 1)}

        first, second = RandomWeight(), RandomWeight()
        sample = Sample(random.Random(0))
        assert first._concretize(sample).weight != pytest.approx(second._concretize(sample).weight)


class TestResolveSpecifiers:
    def test_double_specification_is_an_error(self):
        with pytest.raises(AmbiguousSpecifierError):
            Object(At((0, 0)), At((1, 1)))

    def test_two_optional_specifications_conflict(self):
        region = PolygonalRegion(
            [Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])], orientation=ConstantVectorField(0.3)
        )
        # Both 'on region' and 'left of OrientedPoint' optionally specify heading.
        with pytest.raises(AmbiguousSpecifierError):
            resolve_specifiers(
                Object._property_defaults(),
                [In(region), LeftOf(OrientedPoint(At((5, 5))), 1.0)],
            )

    def test_optional_specification_is_overridden_by_explicit(self):
        region = PolygonalRegion(
            [Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])], orientation=ConstantVectorField(0.3)
        )
        scenic_object = Object(In(region), Facing(1.0))
        assert scenic_object.heading == pytest.approx(1.0)

    def test_cyclic_dependencies_detected(self):
        spec_a = Specifier("a", {"alpha": DelayedArgument({"beta"}, lambda obj: obj.beta)})
        spec_b = Specifier("b", {"beta": DelayedArgument({"alpha"}, lambda obj: obj.alpha)})
        with pytest.raises(CyclicDependencyError):
            resolve_specifiers({}, [spec_a, spec_b])

    def test_missing_dependency_detected(self):
        spec = Specifier("needs-gamma", {"alpha": DelayedArgument({"gamma"}, lambda obj: obj.gamma)})
        with pytest.raises(MissingPropertyError):
            resolve_specifiers({}, [spec])

    def test_dependency_order_width_before_position(self):
        # 'left of vector' depends on width, whose default depends on 'size':
        # the chain must resolve in the right order.
        class Sized(Object):
            _scenic_properties = {
                "size": lambda: 4.0,
                "width": lambda: DelayedArgument({"size"}, lambda obj: obj.size / 2),
            }

        scenic_object = Sized(LeftOf(Vector(0, 0), 1.0), Facing(0.0))
        # left of (0,0) by 1 with width 2: centre is 1 + width/2 = 2 to the left.
        assert Vector.from_any(scenic_object.position).is_close_to(Vector(-2.0, 0.0))


class TestPositionSpecifiers:
    def test_at(self):
        assert Object(At((3, 4))).position == Vector(3, 4)

    def test_left_right_of_vector_use_own_width_and_heading(self):
        scenic_object = Object(LeftOf(Vector(0, 0), 1.0), Facing(0.0), width=2.0)
        assert Vector.from_any(scenic_object.position).is_close_to(Vector(-2.0, 0.0))
        scenic_object = Object(RightOf(Vector(0, 0), 1.0), Facing(math.pi / 2), width=2.0)
        # Facing West: "right" is North.
        assert Vector.from_any(scenic_object.position).is_close_to(Vector(0.0, 2.0))

    def test_ahead_of_and_behind_object_offsets_from_edges(self):
        reference = Object(At((0, 0)), Facing(0.0), width=2.0, height=4.0)
        ahead = Object(AheadOf(reference, 1.0), height=2.0)
        # Reference front edge at y=2, gap 1, own half-height 1 => centre at y=4.
        assert Vector.from_any(ahead.position).is_close_to(Vector(0, 4))
        behind = Object(Behind(reference, 1.0), height=2.0)
        assert Vector.from_any(behind.position).is_close_to(Vector(0, -4))

    def test_left_of_oriented_point_optionally_sets_heading(self):
        spot = OrientedPoint(At((10, 10)), Facing(math.pi / 2))
        scenic_object = Object(LeftOf(spot, 0.5), width=1.0)
        assert scenic_object.heading == pytest.approx(math.pi / 2)
        # Facing West: left is South.
        assert Vector.from_any(scenic_object.position).is_close_to(Vector(10, 9))

    def test_beyond(self):
        with ScenarioBuilder() as builder:
            ego = Object(At((0, 0)), Facing(0.0))
            builder.set_ego(ego)
            target = Object(At((0, 10)), Facing(0.0))
            scenic_object = Object(Beyond(target, Vector(0, 5)))
            assert Vector.from_any(scenic_object.position).is_close_to(Vector(0, 15))

    def test_in_region_samples_inside_and_orients(self, rng):
        region = PolygonalRegion(
            [Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])], orientation=ConstantVectorField(0.9)
        )
        scenic_object = Object(In(region), With("width", 0.1), With("height", 0.1))
        assert needs_sampling(scenic_object.properties["position"])
        sample = Sample(rng)
        concrete = scenic_object._concretize(sample)
        assert region.contains_point(concrete.position)
        assert concrete.heading == pytest.approx(0.9)


class TestHeadingSpecifiers:
    def test_facing_field_uses_own_position(self):
        field = ConstantVectorField(0.4)
        scenic_object = Object(At((5, 5)), Facing(field))
        assert scenic_object.heading == pytest.approx(0.4)

    def test_facing_toward_and_away(self):
        toward = Object(At((0, 0)), FacingToward((10, 0)))
        assert toward.heading == pytest.approx(-math.pi / 2)
        away = Object(At((0, 0)), FacingAwayFrom((10, 0)))
        assert away.heading == pytest.approx(math.pi / 2)


class TestObjectGeometry:
    def test_corners_and_bounding_polygon(self):
        scenic_object = Object(At((0, 0)), Facing(0.0), width=2.0, height=4.0)
        corners = scenic_object.corners
        assert len(corners) == 4
        assert any(corner.is_close_to(Vector(1, 2)) for corner in corners)
        assert scenic_object.bounding_polygon.area == pytest.approx(8.0)

    def test_corners_match_the_vector_expression(self, rng):
        # Reference: the Vector arithmetic the float path replaced, verbatim.
        for _ in range(50):
            scenic_object = Object(
                At((rng.uniform(-100, 100), rng.uniform(-100, 100))),
                Facing(rng.uniform(-4, 4)),
                width=rng.uniform(0.1, 5), height=rng.uniform(0.1, 5),
            )
            position = Vector.from_any(scenic_object.position)
            half_w, half_h = scenic_object.width / 2.0, scenic_object.height / 2.0
            offsets = [
                Vector(half_w, half_h),
                Vector(-half_w, half_h),
                Vector(-half_w, -half_h),
                Vector(half_w, -half_h),
            ]
            expected = [position + offset.rotated_by(scenic_object.heading) for offset in offsets]
            assert [c.to_tuple() for c in scenic_object.corners] == [c.to_tuple() for c in expected]

    def test_intersections(self):
        first = Object(At((0, 0)), Facing(0.0), width=2, height=2)
        overlapping = Object(At((1, 1)), Facing(0.0), width=2, height=2)
        separate = Object(At((5, 5)), Facing(0.0), width=2, height=2)
        assert first.intersects(overlapping)
        assert not first.intersects(separate)

    def test_radii(self):
        scenic_object = Object(At((0, 0)), width=2.0, height=4.0)
        assert scenic_object.min_radius == pytest.approx(1.0)
        assert scenic_object.max_radius == pytest.approx(math.hypot(1, 2))

    def test_visibility(self):
        viewer = Object(At((0, 0)), Facing(0.0), With("viewAngle", math.radians(90)),
                        With("viewDistance", 20.0))
        ahead = Object(At((0, 10)), Facing(0.0))
        behind = Object(At((0, -10)), Facing(0.0))
        assert viewer.can_see(ahead)
        assert not viewer.can_see(behind)


class TestMutation:
    def test_mutation_perturbs_position_and_heading(self, rng):
        scenic_object = Object(
            At((5, 5)), Facing(0.3), With("mutationScale", 1.0), With("positionStdDev", 0.5)
        )
        sample = Sample(rng)
        concrete = scenic_object._concretize(sample)
        assert Vector.from_any(concrete.position).distance_to(Vector(5, 5)) > 0
        assert concrete.heading != pytest.approx(0.3)

    def test_without_mutation_nothing_changes(self, rng):
        scenic_object = Object(At((5, 5)), Facing(0.3))
        concrete = scenic_object._concretize(Sample(rng))
        assert Vector.from_any(concrete.position) == Vector(5, 5)
        assert concrete.heading == pytest.approx(0.3)

    @pytest.mark.parametrize("scale", [1.0, Range(0.5, 2.0)], ids=["constant", "random"])
    def test_mutate_after_a_draw_changes_the_next_draw(self, scale):
        """``mutate`` after a first draw acts as if it had come before any draw.

        ``_concretize`` remembers which properties are random; assigning a
        property (the path ``mutate`` takes) must drop that memory, including
        when a constant property becomes random.
        """

        def build():
            return Object(At((Range(0, 10), Range(0, 10))), Facing(Range(-1, 1)))

        drawn_first = build()
        before = drawn_first._concretize(Sample(random.Random(1)))
        drawn_first._assign_property("mutationScale", scale)
        fresh = build()
        fresh._assign_property("mutationScale", scale)

        after = drawn_first._concretize(Sample(random.Random(2)))
        expected = fresh._concretize(Sample(random.Random(2)))
        assert after.properties == expected.properties
        assert list(after.properties) == list(expected.properties)
        unmutated = build()._concretize(Sample(random.Random(2)))
        assert after.position != unmutated.position
        assert before.mutationScale == 0.0 and after.mutationScale != 0.0
