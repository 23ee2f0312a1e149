"""The float polygon predicates against the Vector code they replaced.

Collision, visibility, clipping, nearest-cell distance, triangle sampling,
piece selection and the cell -> heading lookup all run on plain floats.
Each keeps the exact arithmetic of its Vector predecessor, which is kept
here verbatim as the oracle; every comparison must have zero mismatches,
on random inputs and on adversarial ones (touching and collinear edges,
shared vertices, clockwise rings, zero-width objects, one-ulp and 1e-10
perturbations, points on cell boundaries, sector apexes and rims).

The pruned regions of every corpus program are pinned by digest in
``tests/pruned_regions.json``; regenerate it (only for an intended change)
with ``PYTHONPATH=src python tests/test_float_geometry.py``.
"""

import copy
import hashlib
import json
import math
import pickle
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import pruning
from repro.core.errors import InfeasibleScenarioError, ScenicError
from repro.core.objects import Object, OrientedPoint, Point
from repro.core.operators import _can_see, visible_region_of
from repro.core.regions import CircularRegion, PolygonalRegion, SectorRegion
from repro.core.scenario import GenerationStats
from repro.core.utils import normalize_angle
from repro.core.vectorfields import PolygonalVectorField
from repro.core.vectors import Vector
from repro.geometry import kernel
from repro.geometry import polygon as polygon_module
from repro.geometry.morphology import minimum_width
from repro.geometry.polygon import (
    BoundingBox,
    Polygon,
    clip_polygon,
    convex_hull,
    object_footprint,
    polygons_intersect,
)
from repro.geometry.triangulation import TriangulatedSampler, sample_point_in_triangle
from repro.sampling.strategies import no_pairwise_collisions

REPO_ROOT = Path(__file__).resolve().parents[1]
PRUNED_FIXTURE = Path(__file__).resolve().parent / "pruned_regions.json"


# ---------------------------------------------------------------------------
# The Vector versions, verbatim, as oracles
# ---------------------------------------------------------------------------


def _orientation(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def ref_segments_intersect(p1, p2, q1, q2):
    p1, p2 = Vector.from_any(p1), Vector.from_any(p2)
    q1, q2 = Vector.from_any(q1), Vector.from_any(q2)
    d1 = _orientation(q1, q2, p1)
    d2 = _orientation(q1, q2, p2)
    d3 = _orientation(p1, p2, q1)
    d4 = _orientation(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a, b, c):
        return (
            min(a.x, b.x) <= c.x <= max(a.x, b.x)
            and min(a.y, b.y) <= c.y <= max(a.y, b.y)
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def ref_polygons_intersect(p, q):
    if not BoundingBox.of_points(p.vertices).intersects(BoundingBox.of_points(q.vertices)):
        return False
    for a1, a2 in p.edges():
        for b1, b2 in q.edges():
            if ref_segments_intersect(a1, a2, b1, b2):
                return True
    return p.contains_point(q.vertices[0]) or q.contains_point(p.vertices[0])


def ref_clip_polygon(subject, clip):
    output = list(subject.vertices)
    clip_vertices = clip.vertices
    count = len(clip_vertices)
    for i in range(count):
        if not output:
            return None
        a, b = clip_vertices[i], clip_vertices[(i + 1) % count]
        input_list = output
        output = []

        def inside(point):
            return _orientation(a, b, point) >= -1e-12

        def line_intersection(p1, p2):
            d1 = _orientation(a, b, p1)
            d2 = _orientation(a, b, p2)
            if d1 == d2:
                return p1
            t = d1 / (d1 - d2)
            return p1 + (p2 - p1) * t

        for index, current in enumerate(input_list):
            previous = input_list[index - 1]
            if inside(current):
                if not inside(previous):
                    output.append(line_intersection(previous, current))
                output.append(current)
            elif inside(previous):
                output.append(line_intersection(previous, current))
    cleaned = []
    for vertex in output:
        if not cleaned or not vertex.is_close_to(cleaned[-1], tolerance=1e-9):
            cleaned.append(vertex)
    if len(cleaned) >= 2 and cleaned[0].is_close_to(cleaned[-1], tolerance=1e-9):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    result = Polygon(cleaned)
    if result.area < 1e-12:
        return None
    return result


def ref_point_segment_distance(point, a, b):
    segment = b - a
    length_sq = segment.dot(segment)
    if length_sq == 0:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(segment) / length_sq))
    projection = a + segment * t
    return point.distance_to(projection)


def ref_distance_to_point(polygon, point):
    point = Vector.from_any(point)
    if polygon.contains_point(point):
        return 0.0
    return min(ref_point_segment_distance(point, a, b) for a, b in polygon.edges())


def ref_minimum_width(polygon):
    hull = polygon if polygon.is_convex() else convex_hull(polygon.vertices)
    vertices = hull.vertices
    count = len(vertices)
    best = math.inf
    for i in range(count):
        a, b = vertices[i], vertices[(i + 1) % count]
        edge = b - a
        length = edge.norm()
        if length == 0:
            continue
        direction = edge / length
        normal = Vector(-direction.y, direction.x)
        distances = [(v - a).dot(normal) for v in vertices]
        width = max(distances) - min(distances)
        best = min(best, width)
    return best if best is not math.inf else 0.0


def ref_sample_point_in_triangle(triangle, random_source):
    a, b, c = triangle
    r1 = math.sqrt(random_source.random())
    r2 = random_source.random()
    return a * (1 - r1) + b * (r1 * (1 - r2)) + c * (r1 * r2)


def ref_triangulated_sample(sampler, random_source):
    u = random_source.random()
    for triangle, threshold in zip(sampler.triangles, sampler._cumulative):
        if u <= threshold:
            return ref_sample_point_in_triangle(triangle, random_source)
    return ref_sample_point_in_triangle(sampler.triangles[-1], random_source)


def ref_uniform_point(region, rng):
    u = rng.random()
    for sampler, threshold in zip(region._samplers, region._cumulative):
        if u <= threshold:
            return ref_triangulated_sample(sampler, rng)
    return ref_triangulated_sample(region._samplers[-1], rng)


def ref_corners(scenic_object):
    position = Vector.from_any(scenic_object.position)
    heading = float(scenic_object.heading)
    half_w = float(scenic_object.width) / 2.0
    half_h = float(scenic_object.height) / 2.0
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    x, y = position.x, position.y
    return [
        Vector(x + (dx * cos_h - dy * sin_h), y + (dx * sin_h + dy * cos_h))
        for dx, dy in (
            (half_w, half_h), (-half_w, half_h), (-half_w, -half_h), (half_w, -half_h)
        )
    ]


def ref_intersects(first, second):
    return ref_polygons_intersect(Polygon(ref_corners(first)), Polygon(ref_corners(second)))


def ref_no_pairwise_collisions(concrete_objects, pair_filter=None):
    for index, first in enumerate(concrete_objects):
        for jndex in range(index + 1, len(concrete_objects)):
            second = concrete_objects[jndex]
            if first.allowCollisions or second.allowCollisions:
                continue
            if pair_filter is not None and not pair_filter(index, jndex):
                continue
            if ref_intersects(first, second):
                return False
    return True


def ref_region_contains_point(region, point):
    """``CircularRegion``/``SectorRegion.contains_point`` as they were."""
    if isinstance(region, SectorRegion):
        point = Vector.from_any(point)
        offset = point - region.center
        if offset.norm() > region.radius + 1e-9:
            return False
        if region.angle >= 2 * math.pi - 1e-9:
            return True
        if offset.norm() < 1e-12:
            return True
        relative = abs(normalize_angle(offset.angle() - region.heading))
        return relative <= region.angle / 2 + 1e-9
    return region.center.distance_to(point) <= region.radius + 1e-9


def _concrete_vector(value):
    if hasattr(value, "position") and not isinstance(value, Vector):
        return Vector.from_any(value.position)
    return Vector.from_any(value)


def ref_can_see(viewer, target):
    region = visible_region_of(viewer)
    corners = ref_corners(target) if isinstance(target, Object) else None
    if corners is None:
        return ref_region_contains_point(region, _concrete_vector(target))
    if ref_region_contains_point(region, _concrete_vector(target)):
        return True
    return any(ref_region_contains_point(region, corner) for corner in corners)


def ref_heading_of_cell(field, polygon):
    for cell_polygon, heading in field.cells:
        if cell_polygon is polygon or cell_polygon == polygon:
            return heading
    return None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _random_ring(rng, center=(0.0, 0.0), scale=1.0):
    """A simple ring: convex or star-shaped, either orientation."""
    count = rng.randint(3, 8)
    cx, cy = center
    angles = sorted(rng.uniform(0, math.tau) for _ in range(count))
    if rng.random() < 0.5:
        radii = [scale] * count
    else:
        radii = [scale * rng.uniform(0.2, 1.0) for _ in range(count)]
    ring = [(cx + r * math.cos(t), cy + r * math.sin(t)) for r, t in zip(radii, angles)]
    if rng.random() < 0.5:
        ring.reverse()  # clockwise input
    return ring


def _nudged(ring, rng):
    """The ring with one coordinate moved by one ulp or by 1e-10."""
    ring = list(ring)
    index = rng.randrange(len(ring))
    x, y = ring[index]
    how = rng.choice(("up", "down", "plus", "minus"))
    if how == "up":
        x = math.nextafter(x, math.inf)
    elif how == "down":
        y = math.nextafter(y, -math.inf)
    elif how == "plus":
        x += 1e-10
    else:
        y -= 1e-10
    ring[index] = (x, y)
    return ring


def _polygon_pairs(rng, count):
    """Random pairs plus the adversarial ones: shared edges and vertices,
    collinear overlaps, containment, and their one-ulp neighbours."""
    pairs = []
    for _ in range(count):
        scale = rng.choice([1e-3, 1.0, 50.0])
        first = _random_ring(rng, (rng.uniform(-1, 1), rng.uniform(-1, 1)), scale)
        second = _random_ring(rng, (rng.uniform(-1, 1) * 2 * scale, rng.uniform(-1, 1) * 2 * scale), scale)
        pairs.append((first, second))
        pairs.append((first, _nudged(first, rng)))
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    adversarial = [
        [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)],  # shared edge
        [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)],  # shared vertex
        [(1.0, 0.25), (2.0, 0.25), (2.0, 0.75), (1.0, 0.75)],  # collinear part of an edge
        [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)],  # inside
        [(-1.0, -1.0), (2.0, -1.0), (2.0, 2.0), (-1.0, 2.0)],  # around
        [(1.0, 1.0), (2.0, 2.0), (1.0, 3.0)],  # touching at a vertex only
        [(2.0, 0.0), (3.0, 0.0), (3.0, 1.0)],  # apart, boxes apart
        [(0.5, 1.5), (1.5, 0.5), (1.5, 1.5)],  # boxes overlap, corner cut
        [(1.0, -1.0), (1.0, 2.0), (1.5, 0.5)],  # an edge along the square's edge
    ]
    for other in adversarial:
        for shift in (0.0, 1e-10, -1e-10):
            moved = [(x + shift, y) for x, y in other]
            pairs.append((square, moved))
            pairs.append((list(reversed(square)), moved))
        pairs.append((square, [(math.nextafter(x, math.inf), y) for x, y in other]))
        pairs.append((square, [(math.nextafter(x, -math.inf), y) for x, y in other]))
    return [(Polygon(first), Polygon(second)) for first, second in pairs]


def _make_object(x, y, heading, width, height, allow=False):
    return Object._make(
        position=Vector(x, y), heading=heading, width=width, height=height,
        allowCollisions=allow, requireVisible=True,
    )


def _random_layout(rng, degenerate=True):
    """2-14 objects: random, touching, negative-extent (clockwise corners),
    exactly coincident and (if *degenerate*) zero-width ones, some allowed
    to collide."""
    count = rng.randint(2, 14)
    spread = rng.choice([3.0, 10.0, 40.0])
    objects = []
    for _ in range(count):
        width = rng.choice([0.0 if degenerate else 0.5, 1.0, 2.0, rng.uniform(0.1, 3.0), -1.5])
        height = rng.choice([0.0 if degenerate else 3.0, 4.5, rng.uniform(0.1, 5.0)])
        heading = rng.choice([0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)])
        objects.append(_make_object(
            rng.uniform(-spread, spread), rng.uniform(-spread, spread),
            heading, width, height, allow=rng.random() < 0.1,
        ))
    if rng.random() < 0.3:
        # Two axis-aligned unit boxes sharing an edge, maybe one ulp apart.
        x = rng.uniform(-spread, spread)
        gap = rng.choice([0.0, 1e-10, -1e-10])
        objects.append(_make_object(x, 0.0, 0.0, 1.0, 1.0))
        objects.append(_make_object(math.nextafter(x + 1.0 + gap, math.inf), 0.0, 0.0, 1.0, 1.0))
    if rng.random() < 0.2:
        objects.append(copy.copy(objects[0]))
    rng.shuffle(objects)
    return objects


# ---------------------------------------------------------------------------
# Polygon predicates
# ---------------------------------------------------------------------------


class TestPolygonPredicates:
    def test_polygons_intersect_matches_the_vector_version(self):
        rng = random.Random(20261017)
        pairs = _polygon_pairs(rng, 1500)
        verdicts, mismatches = [], []
        for p, q in pairs:
            expected = ref_polygons_intersect(p, q)
            verdicts.append(expected)
            for a, b in ((p, q), (q, p)):
                if polygons_intersect(a, b) != expected:
                    mismatches.append((a, b))
        assert sum(verdicts) > 500 and len(verdicts) - sum(verdicts) > 500
        assert mismatches == []

    def test_edge_pairs_match_segments_intersect(self):
        # Endpoints on a small integer grid (exact collinearity, shared
        # endpoints, T-junctions, overlaps), the same nudged by one ulp or
        # 1e-10, and random ones.  A two-point ring has the edges a->b and
        # b->a, so the oracle is every orientation of the pair.
        rng = random.Random(12)

        def point():
            kind = rng.random()
            if kind < 0.6:
                return (float(rng.randint(0, 3)), float(rng.randint(0, 3)))
            x, y = float(rng.randint(0, 3)), float(rng.randint(0, 3))
            if kind < 0.8:
                return (math.nextafter(x, rng.choice([-math.inf, math.inf])), y + rng.choice([0.0, 1e-10, -1e-10]))
            return (rng.uniform(0, 3), rng.uniform(0, 3))

        verdicts, mismatches = [], []
        for _ in range(20000):
            p1, p2, q1, q2 = point(), point(), point(), point()
            expected = any(
                ref_segments_intersect(a1, a2, b1, b2)
                for a1, a2 in ((p1, p2), (p2, p1))
                for b1, b2 in ((q1, q2), (q2, q1))
            )
            verdicts.append(expected)
            if polygon_module._edges_cross([p1, p2], [q1, q2]) != expected:
                mismatches.append((p1, p2, q1, q2))
        assert 5000 < sum(verdicts) < 15000
        assert mismatches == []

    def test_clip_polygon_matches_the_vector_version_vertex_for_vertex(self):
        rng = random.Random(7)
        cases = []
        for p, q in _polygon_pairs(rng, 600):
            clip = convex_hull(q.vertices) if not q.is_convex() else q
            cases.append((p, clip))
            cases.append((p, p if p.is_convex() else convex_hull(p.vertices)))
        empty, mismatches = 0, []
        for subject, clip in cases:
            expected = ref_clip_polygon(subject, clip)
            got = clip_polygon(subject, clip)
            empty += expected is None
            if (expected is None) != (got is None) or (
                expected is not None and got.vertices != expected.vertices
            ):
                mismatches.append((subject, clip))
        assert 100 < empty < len(cases) - 100
        assert mismatches == []

    def test_distance_to_point_matches_the_vector_version(self):
        rng = random.Random(11)
        polygons = [Polygon(_random_ring(rng, scale=rng.choice([1e-3, 1.0, 30.0]))) for _ in range(300)]
        polygons.append(Polygon([(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)]))  # zero-length edge
        checked, mismatches = 0, []
        for polygon in polygons:
            box = polygon.bounding_box()
            probes = []
            for a, b in polygon.edges():
                for t in (0.0, 0.5, 1.0):
                    x, y = a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t
                    probes += [(x, y), (math.nextafter(x, math.inf), y), (x + 1e-10, y - 1e-10)]
            for _ in range(30):
                probes.append((
                    rng.uniform(box.min_x - box.width, box.max_x + box.width),
                    rng.uniform(box.min_y - box.height, box.max_y + box.height),
                ))
            for x, y in probes:
                checked += 1
                point = Vector(x, y)
                if polygon.distance_to_point(point) != ref_distance_to_point(polygon, point):
                    mismatches.append((polygon, point))
        assert checked > 10_000
        assert mismatches == []

    def test_minimum_width_matches_the_vector_version(self):
        rng = random.Random(13)
        polygons = [p for pair in _polygon_pairs(rng, 300) for p in pair]
        polygons.append(Polygon([(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)]))  # zero-length edge
        assert [minimum_width(p) for p in polygons] == [ref_minimum_width(p) for p in polygons]

    def test_bounding_box_is_fresh_and_matches_of_points(self):
        polygon = Polygon([(3, -1), (5, 2), (-2, 4)])
        box = polygon.bounding_box()
        assert box == BoundingBox.of_points(polygon.vertices)
        box.min_x = -100.0  # BoundingBox is mutable; the cache is not
        assert polygon.bounding_box() == BoundingBox.of_points(polygon.vertices)
        assert polygon.bounds() == (-2.0, -1.0, 5.0, 4.0)


class TestTriangleSampling:
    def test_sample_point_in_triangle_matches_the_vector_version(self):
        rng = random.Random(3)
        for _ in range(3000):
            triangle = tuple(
                Vector(rng.uniform(-1e3, 1e3) * rng.choice([1e-6, 1.0]), rng.uniform(-1e3, 1e3))
                for _ in range(3)
            )
            seed = rng.random()
            got = sample_point_in_triangle(triangle, random.Random(seed))
            expected = ref_sample_point_in_triangle(triangle, random.Random(seed))
            assert (got.x, got.y) == (expected.x, expected.y)

    def test_piece_and_triangle_choice_match_the_linear_scans(self):
        rng = random.Random(5)
        pieces = [Polygon(_random_ring(rng, (3.0 * i, 0.0), 1.0)) for i in range(12)]
        pieces.append(Polygon([(0, 0), (1e-7, 0), (1e-7, 1e-7), (0, 1e-7)]))  # near-zero share
        region = PolygonalRegion(pieces)
        sampler = TriangulatedSampler(Polygon([(0, 0), (4, 0), (5, 2), (3, 5), (1, 4), (-1, 2)]))
        for seed in range(4000):
            assert region.uniform_point(random.Random(seed)) == ref_uniform_point(region, random.Random(seed))
            assert sampler.sample(random.Random(seed)) == ref_triangulated_sample(sampler, random.Random(seed))

    def test_a_draw_at_every_cumulative_threshold_picks_the_same_piece(self):
        region = PolygonalRegion([Polygon([(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)]) for i in range(5)])

        class Fixed:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        for threshold in region._cumulative + [0.0, 1.0]:
            for u in (threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, 2.0)):
                draws = [u, 0.25, 0.5, 0.75]
                assert region.uniform_point(Fixed(draws)) == ref_uniform_point(region, Fixed(draws))


# ---------------------------------------------------------------------------
# Per-candidate checks: collisions and visibility
# ---------------------------------------------------------------------------


class TestCollisions:
    def test_float_route_matches_the_vector_loop(self):
        rng = random.Random(20190622)
        outcomes, mismatches = [], []
        for _ in range(1500):
            objects = _random_layout(rng)
            expected = ref_no_pairwise_collisions(objects)
            outcomes.append(expected)
            stats = GenerationStats()
            if no_pairwise_collisions(objects, stats) != expected:
                mismatches.append(objects)
            assert stats.rejections_collision == (0 if expected else 1)
        assert sum(outcomes) > 300 and len(outcomes) - sum(outcomes) > 300
        assert mismatches == []

    def test_float_route_matches_the_kernel_on_boxes_with_extent(self):
        # Boxes with extent, and layouts with zero-width and zero-height
        # boxes: a zero-length edge is no boundary, so Object.intersects
        # tests a flat box as the segment it is, as the kernel's
        # separating-axis test does.
        rng = random.Random(20190623)
        for degenerate in (False, True):
            outcomes, mismatches = [], []
            for _ in range(1500):
                objects = _random_layout(rng, degenerate=degenerate)
                expected = no_pairwise_collisions(objects, GenerationStats())
                outcomes.append(expected)
                collidable = [not obj.allowCollisions for obj in objects]
                pairs = kernel.pairwise_collisions(kernel.corners_array(objects), collidable)
                if (len(pairs) == 0) != expected:
                    mismatches.append(objects)
            assert sum(outcomes) > 300 and len(outcomes) - sum(outcomes) > 300
            assert mismatches == []

        segment = _make_object(0.0, 0.0, math.pi / 4, 2.0, 0.0)
        box = _make_object(0.9, -0.9, 0.0, 1.0, 1.0)  # boxes meet, shapes apart
        assert not len(kernel.pairwise_collisions(kernel.corners_array([segment, box])))
        assert not segment.intersects(box) and not box.intersects(segment)
        far = [_make_object(50.0, 50.0, 0.0, 1.0, 1.0), _make_object(-50.0, 50.0, 0.0, 1.0, 1.0)]
        assert no_pairwise_collisions([segment, box] + far, GenerationStats())
        touching = _make_object(0.9, 0.0, 0.0, 1.0, 1.0)  # the segment crosses this box
        assert len(kernel.pairwise_collisions(kernel.corners_array([segment, touching]))) == 1
        assert segment.intersects(touching) and touching.intersects(segment)
        dot = _make_object(5.0, 5.0, 0.3, 0.0, 0.0)  # a point object inside a box
        around = _make_object(5.2, 4.9, 0.0, 1.0, 1.0)
        assert len(kernel.pairwise_collisions(kernel.corners_array([dot, around]))) == 1
        assert dot.intersects(around) and around.intersects(dot)

    def test_object_intersects_matches_per_pair(self):
        rng = random.Random(99)
        mismatches = []
        for _ in range(400):
            objects = _random_layout(rng)
            for first in objects:
                for second in objects:
                    if first.intersects(second) != ref_intersects(first, second):
                        mismatches.append((first, second))
        assert mismatches == []

    def test_pair_filter_is_honoured(self):
        rng = random.Random(4)
        for _ in range(300):
            objects = _random_layout(rng)
            keep = rng.random()

            def pair_filter(index, jndex, keep=keep):
                return (index * 31 + jndex * 17) % 100 < keep * 100

            assert no_pairwise_collisions(objects, GenerationStats(), pair_filter) == (
                ref_no_pairwise_collisions(objects, pair_filter)
            )

    def test_corners_keep_their_order_and_values(self):
        rng = random.Random(8)
        for _ in range(500):
            obj = _make_object(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-4, 4),
                               rng.choice([0.0, -1.5, rng.uniform(0, 5)]), rng.uniform(0, 5))
            assert obj.corners == ref_corners(obj)
            polygon = Polygon(ref_corners(obj))
            ring, bounds = object_footprint(obj)
            assert ring == tuple((v.x, v.y) for v in polygon.vertices)
            assert [(v.x, v.y) for v in obj.bounding_polygon.vertices] == list(ring)
            box = BoundingBox.of_points(polygon.vertices)
            assert bounds == (box.min_x, box.min_y, box.max_x, box.max_y)


class TestVisibility:
    def _viewers(self, rng):
        viewers = []
        for _ in range(60):
            x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
            heading = rng.choice([0.0, math.pi, -math.pi / 2, rng.uniform(-math.pi, math.pi)])
            angle = rng.choice([math.tau, math.tau - 1e-10, math.pi / 3, 1e-6, rng.uniform(0.01, 6.3)])
            distance = rng.choice([0.0, 5.0, rng.uniform(1, 40)])
            viewers.append(OrientedPoint._make(
                position=Vector(x, y), heading=heading, viewAngle=angle, viewDistance=distance,
            ))
            viewers.append(Point._make(position=Vector(x, y), viewDistance=distance))
        return viewers

    def _targets(self, viewer, rng):
        """Random objects, points and vectors, plus the apex, rim and edge rays."""
        vx, vy = viewer.position.x, viewer.position.y
        distance = float(viewer.viewDistance)
        heading = float(getattr(viewer, "heading", 0.0))
        half = float(getattr(viewer, "viewAngle", math.tau)) / 2
        positions = [(vx, vy), (math.nextafter(vx, math.inf), vy)]
        for angle in (heading, heading + half, heading - half, heading + half + 1e-9):
            for r in (distance, math.nextafter(distance, math.inf), distance + 1e-9, distance / 2):
                # Heading convention: 0 is North (+y), anticlockwise.
                positions.append((vx - r * math.sin(angle), vy + r * math.cos(angle)))
        for _ in range(8):
            positions.append((vx + rng.uniform(-45, 45), vy + rng.uniform(-45, 45)))
        targets = []
        for x, y in positions:
            targets.append(Vector(x, y))
            targets.append(Point._make(position=Vector(x, y)))
            targets.append(_make_object(x, y, rng.uniform(-4, 4), rng.choice([0.0, 2.0]), rng.choice([0.0, 4.5])))
        return targets

    def test_can_see_matches_the_vector_version(self):
        rng = random.Random(1234)
        verdicts, mismatches = [], []
        for viewer in self._viewers(rng):
            for target in self._targets(viewer, rng):
                expected = ref_can_see(viewer, target)
                verdicts.append(expected)
                if _can_see(viewer, target) != expected:
                    mismatches.append((viewer, target))
        assert sum(verdicts) > 1000 and len(verdicts) - sum(verdicts) > 1000
        assert mismatches == []

    def test_contains_xy_matches_contains_point(self):
        rng = random.Random(5)
        regions = [CircularRegion((1.0, -2.0), 3.0), CircularRegion((0, 0), 0.0)]
        for _ in range(40):
            regions.append(SectorRegion(
                (rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.choice([0.0, 4.0]),
                rng.uniform(-math.pi, math.pi), rng.choice([math.tau, 0.5, 1e-9, rng.uniform(0.1, 7)]),
            ))
        for region in regions:
            for _ in range(400):
                x, y = rng.uniform(-8, 8), rng.uniform(-8, 8)
                expected = ref_region_contains_point(region, Vector(x, y))
                assert region._contains_xy(x, y) == expected
                assert region.contains_point((x, y)) == expected
            cx, cy = region.center.x, region.center.y
            assert region._contains_xy(cx, cy) == ref_region_contains_point(region, Vector(cx, cy))

    def test_invalid_view_regions_still_raise(self):
        target = _make_object(0.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ScenicError):
            _can_see(OrientedPoint._make(position=Vector(0, 0), heading=0.0, viewAngle=1.0,
                                         viewDistance=-1.0), target)
        with pytest.raises(ScenicError):
            _can_see(OrientedPoint._make(position=Vector(0, 0), heading=0.0, viewAngle=0.0,
                                         viewDistance=5.0), target)


# ---------------------------------------------------------------------------
# Pruning: cell headings, coverage memo, pruned regions
# ---------------------------------------------------------------------------


class TestCellHeadings:
    def test_index_matches_the_linear_scan(self):
        rng = random.Random(2)
        polygons = [Polygon(_random_ring(rng, (2.0 * i, 0.0))) for i in range(10)]
        duplicate = Polygon(polygons[3].vertices)
        cells = [(polygon, rng.uniform(-3, 3)) for polygon in polygons]
        cells.append((duplicate, 1.25))  # an equal cell later: the first one wins
        cells.append((polygons[5], -0.5))  # the same object twice
        field = PolygonalVectorField("f", cells)
        queries = polygons + [duplicate, Polygon(polygons[7].vertices), Polygon(_random_ring(rng))]
        queries.append(Polygon(list(reversed(polygons[2].vertices))))  # same ring, clockwise input
        queries.append(Polygon(polygons[4].vertices[1:] + polygons[4].vertices[:1]))  # rotated start
        for query in queries:
            assert field.heading_of_cell(query) == ref_heading_of_cell(field, query)

    def test_index_is_not_pickled_or_copied(self):
        field = PolygonalVectorField("f", [(Polygon([(0, 0), (1, 0), (1, 1)]), 0.5)])
        assert field.heading_of_cell(Polygon([(0, 0), (1, 0), (1, 1)])) == 0.5
        assert field._cell_headings is not None
        for clone in (pickle.loads(pickle.dumps(field)), copy.copy(field), copy.deepcopy(field)):
            assert "_cell_headings" not in clone.__dict__
            assert clone.heading_of_cell(Polygon([(0, 0), (1, 0), (1, 1)])) == 0.5

    def test_nearest_cell_matches_the_vector_distance_scan(self):
        rng = random.Random(6)
        for count in (3, 6, 20):
            cells = [(Polygon(_random_ring(rng, (3.0 * i, rng.uniform(-2, 2)))), i / 10) for i in range(count)]
            field = PolygonalVectorField("f", cells)
            for _ in range(300):
                point = Vector(rng.uniform(-5, 3.0 * count + 5), rng.uniform(-6, 6))
                expected = min(cells, key=lambda cell: ref_distance_to_point(cell[0], point))
                assert field.nearest_cell(point) is not None
                assert field.nearest_cell(point)[1] == expected[1]


class TestCoverageMemo:
    def test_memo_hits_by_content_and_matches_a_fresh_proof(self, monkeypatch):
        monkeypatch.setattr(pruning, "_COVER_PROOFS", {})
        cells = [Polygon([(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)]) for i in range(4)]
        workspace = [Polygon([(0, 0), (4, 0), (4, 1), (0, 1)])]
        clips = []
        real_clip = pruning.clip_polygon
        monkeypatch.setattr(pruning, "clip_polygon", lambda *a: clips.append(a) or real_clip(*a))
        assert pruning._polygons_cover(workspace, cells)
        computed = len(clips)
        assert computed > 0
        copies = [Polygon(polygon.vertices) for polygon in cells]
        assert pruning._polygons_cover([Polygon(workspace[0].vertices)], copies)
        assert len(clips) == computed  # equal contents: a memo hit
        assert not pruning._polygons_cover(workspace, cells[:3])  # different cells
        assert len(clips) > computed
        monkeypatch.setattr(pruning, "_COVER_PROOFS", {})
        assert not pruning._polygons_cover(workspace, cells[:3])

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pruning, "_COVER_PROOFS", {})
        monkeypatch.setattr(pruning, "_COVER_PROOFS_MAX", 3)
        for i in range(10):
            square = Polygon([(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)])
            assert pruning._polygons_cover([square], [square])
            assert len(pruning._COVER_PROOFS) <= 3


def pruned_region_digests():
    """A digest of every corpus program's pruned regions (vertex floats in hex)."""
    from repro.language import compiler

    manifest = json.loads((REPO_ROOT / "corpus" / "manifest.json").read_text())
    digests = {}
    for entry in manifest["scenarios"]:
        source = (REPO_ROOT / entry["path"]).read_text()
        artifact = compiler.compile_scenario(source, cache=compiler.ArtifactCache())
        scenario = artifact.scenario(fresh=True)
        try:
            report = pruning.prune_scenario(scenario)
        except InfeasibleScenarioError:
            digests[entry["id"]] = "infeasible"
            continue
        parts = [report.area_after.hex(), repr(report.notes)]
        for index, obj in enumerate(scenario.objects):
            position = obj.properties.get("position")
            if isinstance(position, pruning.PointInRegionDistribution) and isinstance(
                position.region, PolygonalRegion
            ):
                parts.append(str(index))
                for polygon in position.region.polygons:
                    parts.append(" ".join(f"{v.x.hex()},{v.y.hex()}" for v in polygon.vertices))
        digests[entry["id"]] = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
    return digests


def test_pruned_regions_of_every_corpus_program_are_unchanged():
    expected = json.loads(PRUNED_FIXTURE.read_text())
    got = pruned_region_digests()
    assert len(got) == len(expected) >= 165
    assert {key: value for key, value in got.items() if expected.get(key) != value} == {}


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------


class TestPolygonFloatCaches:
    def test_caches_are_not_pickled_or_copied(self):
        polygon = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        other = Polygon([(1, 1), (5, 1), (5, 5)])
        assert polygons_intersect(polygon, other) and polygon.distance_to_point((9, 9)) > 0
        assert polygon._points is not None and polygon._bounds is not None
        for clone in (pickle.loads(pickle.dumps(polygon)), copy.deepcopy(polygon), copy.copy(polygon)):
            assert clone == polygon
            assert clone._points is None and clone._bounds is None and clone._table is None
            assert clone.points() == polygon.points() and clone.bounds() == polygon.bounds()
        assert len(pickle.dumps(polygon)) == len(pickle.dumps(Polygon(polygon.vertices)))

    def test_threads_sharing_a_polygon_build_its_caches_once(self, monkeypatch):
        shared = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        others = [Polygon([(i, i), (i + 2, i), (i + 1, i + 2)]) for i in range(-2, 6)]
        expected = [ref_polygons_intersect(shared, other) for other in others]
        builds = []
        build = polygon_module._float_vertices

        def slow_build(vertices):
            builds.append(vertices)
            time.sleep(0.005)  # releases the GIL mid-build: the others pile up
            return build(vertices)

        monkeypatch.setattr(polygon_module, "_float_vertices", slow_build)
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait()
            results.append([polygons_intersect(shared, other) for other in others])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(map(id, builds)) == sorted(id(p.vertices) for p in [shared] + others)
        assert results == [expected] * 8


if __name__ == "__main__":
    PRUNED_FIXTURE.write_text(json.dumps(pruned_region_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PRUNED_FIXTURE}")
