"""Unit tests for the geometry substrate: polygons, triangulation, morphology."""

import copy
import math
import pickle
import random
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.regions import PolygonalRegion
from repro.core.vectors import Vector
from repro.geometry import kernel
from repro.geometry import polygon as polygon_module
from repro.geometry.morphology import dilate_polygon, erode_polygon, minimum_width
from repro.geometry.polygon import (
    BoundingBox,
    Polygon,
    clip_polygon,
    convex_hull,
    point_in_polygon,
    polygons_intersect,
    segments_intersect,
)
from repro.geometry.triangulation import (
    TriangulatedSampler,
    sample_point_in_polygon,
    sample_point_on_boundary,
    triangulate,
)


class TestBoundingBox:
    def test_basic_properties(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.center == Vector(2, 1)

    def test_of_points(self):
        box = BoundingBox.of_points([(1, 2), (5, -1), (3, 3)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (1, -1, 5, 3)

    def test_contains_and_intersects(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains_point((1, 1))
        assert not box.contains_point((3, 1))
        assert box.intersects(BoundingBox(1, 1, 3, 3))
        assert not box.intersects(BoundingBox(5, 5, 6, 6))

    def test_expanded(self):
        assert BoundingBox(0, 0, 1, 1).expanded(1).width == 3

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)


class TestSegments:
    def test_crossing_segments(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_parallel_segments(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoints(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


class TestPolygon:
    def test_area_and_centroid(self, unit_square):
        assert unit_square.area == pytest.approx(1.0)
        assert unit_square.centroid.is_close_to(Vector(0.5, 0.5))

    def test_orientation_normalised(self):
        clockwise = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert clockwise.area == pytest.approx(1.0)

    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_containment(self, unit_square, l_shape):
        assert unit_square.contains_point((0.5, 0.5))
        assert not unit_square.contains_point((1.5, 0.5))
        assert l_shape.contains_point((0.5, 1.5))
        assert not l_shape.contains_point((1.5, 1.5))

    def test_boundary_points_count_as_inside(self, unit_square):
        assert unit_square.contains_point((0.5, 0.0))
        assert unit_square.contains_point((1.0, 1.0))

    def test_convexity(self, unit_square, l_shape):
        assert unit_square.is_convex()
        assert not l_shape.is_convex()

    def test_contains_polygon(self, unit_square):
        inner = Polygon([(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])
        assert unit_square.contains_polygon(inner)
        assert not inner.contains_polygon(unit_square)

    def test_intersection_predicate(self, unit_square):
        overlapping = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
        disjoint = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        contained = Polygon([(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)])
        assert polygons_intersect(unit_square, overlapping)
        assert not polygons_intersect(unit_square, disjoint)
        assert polygons_intersect(unit_square, contained)

    def test_distance_to_point(self, unit_square):
        assert unit_square.distance_to_point((0.5, 0.5)) == 0.0
        assert unit_square.distance_to_point((2.0, 0.5)) == pytest.approx(1.0)

    def test_transforms(self, unit_square):
        translated = unit_square.translated((2, 3))
        assert translated.centroid.is_close_to(Vector(2.5, 3.5))
        rotated = unit_square.rotated(math.pi / 2, about=(0, 0))
        assert rotated.area == pytest.approx(1.0)
        scaled = unit_square.scaled(2.0)
        assert scaled.area == pytest.approx(4.0)

    def test_rectangle_constructor(self):
        rect = Polygon.rectangle((0, 0), 2.0, 4.0, heading=0.0)
        assert rect.area == pytest.approx(8.0)
        assert rect.contains_point((0.9, 1.9))
        rotated = Polygon.rectangle((0, 0), 2.0, 4.0, heading=math.pi / 2)
        # After rotating to face West, the long axis lies along x.
        assert rotated.contains_point((1.9, 0.9))
        assert not rotated.contains_point((0.9, 1.9))


# -- containment: the edge table against the Vector-loop reference -----------


def _reference_point_in_polygon(point, vertices):
    """Ray-casting containment test; boundary points count as inside.

    The Vector-loop implementation the edge-table containment replaced,
    kept verbatim as the oracle.
    """
    point = Vector.from_any(point)
    count = len(vertices)
    inside = False
    j = count - 1
    for i in range(count):
        vi, vj = vertices[i], vertices[j]
        # Boundary check: point exactly on edge vi-vj.
        if _reference_point_on_segment(point, vi, vj):
            return True
        if (vi.y > point.y) != (vj.y > point.y):
            slope_x = vj.x + (point.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
            if point.x < slope_x:
                inside = not inside
        j = i
    return inside


def _reference_point_on_segment(point, a, b, tolerance=1e-9):
    cross = (b.x - a.x) * (point.y - a.y) - (b.y - a.y) * (point.x - a.x)
    if abs(cross) > tolerance * max(1.0, a.distance_to(b)):
        return False
    dot = (point.x - a.x) * (b.x - a.x) + (point.y - a.y) * (b.y - a.y)
    return -tolerance <= dot <= (b.x - a.x) ** 2 + (b.y - a.y) ** 2 + tolerance


def _random_polygon(rng):
    """Random vertex rings: convex and not, tiny to large, far from the origin."""
    count = rng.randint(3, 9)
    scale = rng.choice([1e-3, 0.1, 1.0, 40.0, 2e3])
    origin = rng.choice([0.0, 17.25, -1e3, 2.5e5])
    if rng.random() < 0.5:
        # Star-shaped about the origin: simple, often concave.
        angles = sorted(rng.uniform(0, math.tau) for _ in range(count))
        vertices = [
            (origin + scale * rng.uniform(0.2, 1) * math.cos(t),
             origin + scale * rng.uniform(0.2, 1) * math.sin(t))
            for t in angles
        ]
    else:
        vertices = [
            (origin + scale * rng.uniform(-1, 1), origin + scale * rng.uniform(-1, 1))
            for _ in range(count)
        ]
    if rng.random() < 0.3:
        # An edge shorter than 1e-3 (sometimes far shorter).
        x, y = vertices[0]
        short = rng.choice([5e-4, 1e-6, 1e-9])
        vertices.insert(1, (x + short * rng.uniform(-1, 1), y + short * rng.uniform(-1, 1)))
    return Polygon(vertices)


def _probe_points(polygon, rng):
    """Vertices, edge points, their float neighbours and overshoots, and noise."""
    probes = []
    for vertex in polygon.vertices:
        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            x = math.nextafter(vertex.x, dx * math.inf) if dx else vertex.x
            y = math.nextafter(vertex.y, dy * math.inf) if dy else vertex.y
            probes.append((x, y))
    for a, b in polygon.edges():
        for t in (0.0, 0.5, rng.random(), 1.0):
            x, y = a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t
            probes.append((x, y))
            probes.append((math.nextafter(x, math.inf), y))
            probes.append((x, math.nextafter(y, -math.inf)))
            for overshoot in (-1e-10, 1e-10):
                probes.append((x + overshoot, y))
                probes.append((x, y + overshoot))
    box = polygon.bounding_box()
    pad_x, pad_y = 0.25 * box.width + 1e-9, 0.25 * box.height + 1e-9
    for _ in range(40):
        probes.append((
            rng.uniform(box.min_x - pad_x, box.max_x + pad_x),
            rng.uniform(box.min_y - pad_y, box.max_y + pad_y),
        ))
    return probes


class TestContainmentEquivalence:
    def test_edge_table_matches_the_vector_loop(self):
        rng = random.Random(20190622)
        polygons = [_random_polygon(rng) for _ in range(400)]
        polygons += [
            Polygon.rectangle((3.0, -2.0), 2.0, 4.5, heading=0.7),
            Polygon([(0, 0), (1e-4, 0), (1e-4, 2e-4), (0, 2e-4)]),
        ]
        checked, mismatches = 0, []
        for polygon in polygons:
            for point in _probe_points(polygon, rng):
                expected = _reference_point_in_polygon(point, polygon.vertices)
                checked += 1
                if polygon.contains_point(point) != expected:
                    mismatches.append((polygon, point, "contains_point"))
                if point_in_polygon(point, polygon.vertices) != expected:
                    mismatches.append((polygon, point, "point_in_polygon"))
        assert checked > 90_000
        assert mismatches == []

    def test_zero_length_edge_adds_nothing(self):
        # A repeated vertex is neither a boundary for other points nor a ray
        # crossing: the polygon contains exactly what it contains without
        # the repeat, in the scalar test and in the kernel alike.  (The
        # Vector oracle above accepts every point on a zero-length edge.)
        rng = random.Random(3)
        cases = [
            ([(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)]),
            ([(0, 0), (0, 0), (2, 0), (2, 1), (0, 1), (0, 0)], [(0, 0), (2, 0), (2, 1), (0, 1)]),
            ([(0, 0), (4, 0), (4, 4), (2, 4), (2, 4), (2, 1.5), (0, 1.5)],
             [(0, 0), (4, 0), (4, 4), (2, 4), (2, 1.5), (0, 1.5)]),
        ]
        for ring, clean in cases:
            degenerate, reference = Polygon(ring), Polygon(clean)
            probes = _probe_points(reference, rng) + list(clean) + [(100.0, 100.0), (50.0, -7.0)]
            expected = [reference.contains_point(point) for point in probes]
            assert [degenerate.contains_point(point) for point in probes] == expected
            assert [point_in_polygon(point, degenerate.vertices) for point in probes] == expected
            vertices = np.array([(v.x, v.y) for v in degenerate.vertices])
            assert kernel.points_in_polygon(vertices, np.array(probes)).tolist() == expected
        square = Polygon([(0, 0), (1, 0), (1, 1), (1, 1), (0, 1)])
        assert not square.contains_point((100.0, 100.0))
        assert not square.contains_point((50.0, -7.0))
        assert square.contains_point((1.0, 1.0)) and square.contains_point((0.5, 0.5))

    def test_batch_agrees_with_scalar_on_gallery_workspaces(self):
        from repro.language import scenario_from_file

        scenarios = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        rng = random.Random(7)
        for stem in ("crossing_traffic", "mars_bottleneck", "warehouse_picking"):
            region = scenario_from_file(scenarios / f"{stem}.scenic").workspace.region
            box = region.bounding_box()
            points = [
                (rng.uniform(box.min_x - 1, box.max_x + 1), rng.uniform(box.min_y - 1, box.max_y + 1))
                for _ in range(2000)
            ]
            for piece in getattr(region, "polygons", [getattr(region, "polygon", None)]):
                points += [(v.x, v.y) for v in piece.vertices]
                points += [((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in piece.edges()]
            scalar = np.array([region.contains_point(point) for point in points])
            batch = region.contains_points_batch(np.array(points))
            assert scalar.any() and not scalar.all(), stem
            assert np.array_equal(batch, scalar), stem


class TestPolygonEdgeTableCache:
    def test_cache_is_ignored_by_equality_and_hash(self):
        used = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        unused = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        assert used.contains_point((1, 1))
        assert used == unused
        assert hash(used) == hash(unused)
        assert len({used, unused}) == 1

    def test_pickles_and_copies_without_the_cache(self):
        # The cache is never carried along; a clone builds its own on first use.
        polygon = Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        assert polygon.contains_point((2, 2))
        for clone in (pickle.loads(pickle.dumps(polygon)), copy.deepcopy(polygon), copy.copy(polygon)):
            assert clone == polygon
            assert clone._table is None
            assert clone.contains_point((2, 2)) and not clone.contains_point((5, 2))
        assert len(pickle.dumps(polygon)) == len(pickle.dumps(Polygon(polygon.vertices)))

    def test_tables_are_built_once_when_threads_share_a_region(self, monkeypatch):
        # The parallel strategy shares one workspace region across threads.
        builds = []
        build = polygon_module._edge_table

        def slow_build(vertices):
            builds.append(vertices)
            time.sleep(0.005)  # releases the GIL mid-build: the others pile up
            return build(vertices)

        monkeypatch.setattr(polygon_module, "_edge_table", slow_build)
        pieces = [
            Polygon([(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]) for i in range(3) for j in range(3)
        ]
        shared = PolygonalRegion(pieces)
        probes = [(x / 4, y / 4) for x in range(-1, 14) for y in range(-1, 14)]
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait()
            results.append([shared.contains_point(point) for point in probes])

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
        assert sorted(map(id, builds)) == sorted(id(piece.vertices) for piece in pieces)
        assert len(results) == 8 and all(result == results[0] for result in results)
        assert results[0] == [
            any(_reference_point_in_polygon(point, piece.vertices) for piece in pieces)
            for point in probes
        ]


class TestConvexHullAndClipping:
    def test_convex_hull_of_square_with_interior_point(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert hull.area == pytest.approx(1.0)
        assert len(hull.vertices) == 4

    def test_clip_overlapping_squares(self, unit_square):
        other = Polygon([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
        clipped = clip_polygon(unit_square, other)
        assert clipped is not None
        assert clipped.area == pytest.approx(0.25)

    def test_clip_disjoint_returns_none(self, unit_square):
        other = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert clip_polygon(unit_square, other) is None

    def test_clip_contained_returns_subject(self, unit_square):
        big = Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        clipped = clip_polygon(unit_square, big)
        assert clipped is not None
        assert clipped.area == pytest.approx(1.0)


class TestTriangulation:
    def test_triangulation_covers_area(self, unit_square, l_shape):
        for polygon in (unit_square, l_shape):
            triangles = triangulate(polygon)
            total = sum(
                abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2
                for a, b, c in triangles
            )
            assert total == pytest.approx(polygon.area, rel=1e-6)

    def test_samples_are_inside(self, l_shape, rng):
        sampler = TriangulatedSampler(l_shape)
        for _ in range(200):
            point = sampler.sample(rng)
            assert l_shape.contains_point(point)

    def test_sampling_is_roughly_uniform(self, rng):
        # Two equal halves of a rectangle should each get about half the samples.
        rectangle = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        left = sum(
            1 for _ in range(2000) if sample_point_in_polygon(rectangle, rng).x < 1.0
        )
        assert 800 < left < 1200

    def test_boundary_sampling(self, unit_square, rng):
        point, heading = sample_point_on_boundary(unit_square, rng)
        assert unit_square.distance_to_point(point) < 1e-9
        assert -math.pi < heading <= math.pi


class TestMorphology:
    def test_erosion_shrinks_convex_polygon(self, unit_square):
        eroded = erode_polygon(unit_square, 0.2)
        assert eroded is not None
        assert eroded.area == pytest.approx(0.36, rel=1e-6)
        assert unit_square.contains_polygon(eroded)

    def test_erosion_to_nothing(self, unit_square):
        assert erode_polygon(unit_square, 0.6) is None

    def test_erosion_of_nonconvex_is_conservative(self, l_shape):
        # Sound fallback: the polygon itself (a superset of the true erosion).
        assert erode_polygon(l_shape, 0.1) is l_shape

    def test_dilation_contains_original_and_true_dilation(self, unit_square, rng):
        dilated = dilate_polygon(unit_square, 0.5)
        assert dilated.contains_polygon(unit_square)
        # Any point within 0.5 of the square must be inside the dilation.
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            boundary_point = Vector(rng.uniform(0, 1), rng.choice([0.0, 1.0]))
            offset = Vector(0.49 * math.cos(angle), 0.49 * math.sin(angle))
            assert dilated.contains_point(boundary_point + offset)

    def test_minimum_width(self):
        thin = Polygon([(0, 0), (10, 0), (10, 1), (0, 1)])
        assert minimum_width(thin) == pytest.approx(1.0)
        assert minimum_width(Polygon.rectangle((0, 0), 3, 7)) == pytest.approx(3.0)


class TestSpatialGridBucketKeys:
    def test_math_floor_keys_equal_numpy_floor_keys(self):
        from repro.geometry.spatial_index import SpatialGrid

        class RecordingCells(dict):
            def get(self, key, default=None):
                looked_up.append(key)
                return super().get(key, default)

        rng = random.Random(11)
        boxes = np.array([[-30.0, -12.5, -20.0, -2.5], [0.0, 0.0, 3.0, 3.0], [7.25, -4.0, 19.0, 1.0]])
        grid = SpatialGrid(boxes)
        grid._cells = RecordingCells(grid._cells)
        ox, oy = grid.origin
        size = grid.cell_size
        points = [(rng.uniform(-80, 80), rng.uniform(-80, 80)) for _ in range(3000)]
        points += [(-rng.expovariate(0.1), -rng.expovariate(0.1)) for _ in range(500)]
        # Cell boundaries, and the floats on either side of them.
        for k in range(-8, 9):
            x = ox + k * size
            y = oy + k * size
            for dx in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
                points.append((dx, y))
                points.append((y, dx))
        points += [(ox, oy), (-0.0, 0.0), (1e-300, -1e-300)]
        mismatches = []
        for x, y in points:
            looked_up = []
            grid.bucket_for_point(x, y)
            expected = (int(np.floor((x - ox) / size)), int(np.floor((y - oy) / size)))
            if looked_up != [expected] or not all(type(part) is int for part in looked_up[0]):
                mismatches.append((x, y, looked_up, expected))
        assert mismatches == []
