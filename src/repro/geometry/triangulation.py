"""Ear-clipping triangulation and uniform sampling inside polygons.

Scenic's ``on region`` specifier needs uniformly random points inside
polygonal regions (roads, curbs, workspaces).  We triangulate the polygon
once, then sample a triangle with probability proportional to its area and a
uniform point inside that triangle.

Beyond the original simple-polygon path this module supports:

* **robust ear clipping** — polygons with duplicate or collinear vertices
  (the normal output of region clipping during pruning) are rescued by a
  cleanup-and-retry pass instead of silently falling back to a centroid fan
  that under- or over-covers non-convex inputs;
* **polygons with holes** — :func:`triangulate_with_holes` splices each hole
  into the outer ring with a bridge edge and ear-clips the result;
* **multi-polygon unions** — :func:`triangulate_union` concatenates the
  fans of a region's (disjoint) pieces;
* **O(1) area-weighted sampling** — :class:`TriangleFan` builds a Vose
  alias table over the triangle areas, so drawing a uniform point costs a
  constant three RNG calls regardless of triangle count.  This is the
  constructive-sampling primitive of :mod:`repro.synthesis`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from ..core.vectors import Vector, VectorLike
from .polygon import Polygon

Triangle = Tuple[Vector, Vector, Vector]

#: Cross products (twice the corner area) below this count as collinear in
#: the robust cleanup pass.
_COLLINEAR_EPS = 1e-12


def _triangle_area(a: Vector, b: Vector, c: Vector) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


def _is_ear(vertices: Sequence[Vector], indices: List[int], position: int) -> bool:
    count = len(indices)
    prev_vertex = vertices[indices[(position - 1) % count]]
    ear_vertex = vertices[indices[position]]
    next_vertex = vertices[indices[(position + 1) % count]]
    # The candidate ear must be a convex corner (polygon stored anticlockwise).
    cross = (ear_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
        ear_vertex.y - prev_vertex.y
    ) * (next_vertex.x - prev_vertex.x)
    if cross <= 0:
        return False
    # No other vertex may lie inside the candidate ear triangle.
    for other_position in range(count):
        if other_position in (
            (position - 1) % count,
            position,
            (position + 1) % count,
        ):
            continue
        other = vertices[indices[other_position]]
        if _point_in_triangle(other, prev_vertex, ear_vertex, next_vertex):
            return False
    return True


def _point_in_triangle(point: Vector, a: Vector, b: Vector, c: Vector) -> bool:
    d1 = (point.x - b.x) * (a.y - b.y) - (a.x - b.x) * (point.y - b.y)
    d2 = (point.x - c.x) * (b.y - c.y) - (b.x - c.x) * (point.y - c.y)
    d3 = (point.x - a.x) * (c.y - a.y) - (c.x - a.x) * (point.y - a.y)
    has_negative = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_positive = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_negative and has_positive)


def _ear_clip(vertices: Sequence[Vector], robust: bool = False) -> Optional[List[Triangle]]:
    """Ear-clip a vertex ring; ``None`` when the loop stalls before finishing.

    With ``robust=True`` the ear test skips coincident vertices and only
    counts strictly interior points as blockers (needed for the zero-width
    bridge edges of :func:`triangulate_with_holes`); the default test is the
    original, stricter one, kept bit-for-bit so previously-triangulable
    polygons produce the identical fan (the golden corpus pins the sampling
    streams built on it).
    """
    if len(vertices) < 3:
        return []
    if len(vertices) == 3:
        if _triangle_area(*vertices) > 1e-15:
            return [tuple(vertices)]  # type: ignore[return-value]
        return []
    ear_test = _is_ear_robust if robust else _is_ear
    indices = list(range(len(vertices)))
    triangles: List[Triangle] = []
    guard = 0
    max_iterations = len(vertices) ** 2 + 10
    while len(indices) > 3 and guard < max_iterations:
        guard += 1
        ear_found = False
        for position in range(len(indices)):
            if ear_test(vertices, indices, position):
                count = len(indices)
                prev_vertex = vertices[indices[(position - 1) % count]]
                ear_vertex = vertices[indices[position]]
                next_vertex = vertices[indices[(position + 1) % count]]
                if _triangle_area(prev_vertex, ear_vertex, next_vertex) > 1e-15:
                    triangles.append((prev_vertex, ear_vertex, next_vertex))
                del indices[position]
                ear_found = True
                break
        if not ear_found:
            return None
    if len(indices) == 3:
        a, b, c = (vertices[i] for i in indices)
        if _triangle_area(a, b, c) > 1e-15:
            triangles.append((a, b, c))
    return triangles


def _is_ear_robust(vertices: Sequence[Vector], indices: List[int], position: int) -> bool:
    """Ear test tolerant of duplicate vertices and bridge edges."""
    count = len(indices)
    prev_vertex = vertices[indices[(position - 1) % count]]
    ear_vertex = vertices[indices[position]]
    next_vertex = vertices[indices[(position + 1) % count]]
    cross = (ear_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
        ear_vertex.y - prev_vertex.y
    ) * (next_vertex.x - prev_vertex.x)
    if cross <= _COLLINEAR_EPS:
        return False
    corners = (prev_vertex, ear_vertex, next_vertex)
    for other_position in range(count):
        if other_position in (
            (position - 1) % count,
            position,
            (position + 1) % count,
        ):
            continue
        other = vertices[indices[other_position]]
        if any(_coincident(other, corner) for corner in corners):
            continue
        if _point_strictly_in_triangle(other, prev_vertex, ear_vertex, next_vertex):
            return False
        # A vertex exactly on the ear's *diagonal* (prev -> next) also
        # blocks: the boundary chain touches the cut there, and clipping
        # would pinch the ring into a weakly self-overlapping remainder
        # that double-covers area.  Points on the two existing polygon
        # edges are fine — the boundary genuinely runs along them.
        if _point_on_open_segment(other, prev_vertex, next_vertex):
            return False
    return True


def _point_on_open_segment(
    point: Vector, a: Vector, b: Vector, tolerance: float = 1e-9
) -> bool:
    """Whether *point* lies on segment ``a-b``, excluding the endpoints."""
    ab_x, ab_y = b.x - a.x, b.y - a.y
    length_sq = ab_x * ab_x + ab_y * ab_y
    if length_sq <= tolerance * tolerance:
        return False
    ap_x, ap_y = point.x - a.x, point.y - a.y
    t = (ap_x * ab_x + ap_y * ab_y) / length_sq
    if t <= 0.0 or t >= 1.0:
        return False
    cross = ap_x * ab_y - ap_y * ab_x
    return cross * cross <= (tolerance * tolerance) * length_sq


def _coincident(a: Vector, b: Vector, tolerance: float = 1e-12) -> bool:
    return abs(a.x - b.x) <= tolerance and abs(a.y - b.y) <= tolerance


def _point_strictly_in_triangle(point: Vector, a: Vector, b: Vector, c: Vector) -> bool:
    d1 = (point.x - b.x) * (a.y - b.y) - (a.x - b.x) * (point.y - b.y)
    d2 = (point.x - c.x) * (b.y - c.y) - (b.x - c.x) * (point.y - c.y)
    d3 = (point.x - a.x) * (c.y - a.y) - (c.x - a.x) * (point.y - a.y)
    return (d1 > _COLLINEAR_EPS and d2 > _COLLINEAR_EPS and d3 > _COLLINEAR_EPS) or (
        d1 < -_COLLINEAR_EPS and d2 < -_COLLINEAR_EPS and d3 < -_COLLINEAR_EPS
    )


def _drop_degenerate_vertices(vertices: Sequence[Vector]) -> List[Vector]:
    """Remove consecutive duplicates and exactly-collinear middle vertices.

    Region clipping routinely emits both (a clip edge grazing a vertex
    duplicates it; a cut through a straight edge leaves a collinear middle
    point); either can stall the strict ear test, so the rescue pass clips
    the cleaned ring instead.  The polygon's shape — and therefore its area
    — is unchanged.
    """
    cleaned: List[Vector] = []
    for vertex in vertices:
        if cleaned and _coincident(vertex, cleaned[-1]):
            continue
        cleaned.append(vertex)
    while len(cleaned) > 1 and _coincident(cleaned[0], cleaned[-1]):
        cleaned.pop()
    changed = True
    while changed and len(cleaned) > 3:
        changed = False
        for index in range(len(cleaned)):
            prev_vertex = cleaned[index - 1]
            mid_vertex = cleaned[index]
            next_vertex = cleaned[(index + 1) % len(cleaned)]
            cross = (mid_vertex.x - prev_vertex.x) * (next_vertex.y - prev_vertex.y) - (
                mid_vertex.y - prev_vertex.y
            ) * (next_vertex.x - prev_vertex.x)
            scale = 1.0 + prev_vertex.distance_to(mid_vertex) * mid_vertex.distance_to(next_vertex)
            if abs(cross) <= _COLLINEAR_EPS * scale:
                del cleaned[index]
                changed = True
                break
    return cleaned


def triangulate(polygon: Polygon) -> List[Triangle]:
    """Split a simple polygon into triangles by ear clipping.

    The polygon's vertices are assumed to be in anticlockwise order (the
    :class:`Polygon` constructor guarantees this).  Runs in O(n^2), which is
    ample for the map polygons used in the reproduction.

    Polygons the strict ear test stalls on — duplicate vertices, collinear
    runs, both common in clipped pruned regions — are retried on a cleaned
    vertex ring with the tolerant ear test; only if that also fails does the
    legacy centroid-fan fallback apply (exact for convex input, best-effort
    otherwise).
    """
    vertices = list(polygon.vertices)
    triangles = _ear_clip(vertices)
    if triangles is None:
        cleaned = _drop_degenerate_vertices(vertices)
        if len(cleaned) >= 3:
            triangles = _ear_clip(cleaned, robust=True)
    if not triangles:
        triangles = []
        centroid = polygon.centroid
        verts = polygon.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            if _triangle_area(centroid, a, b) > 1e-15:
                triangles.append((centroid, a, b))
    return triangles


def triangulate_with_holes(outer: Polygon, holes: Sequence[Polygon]) -> List[Triangle]:
    """Triangulate a polygon with holes by bridge-splicing each hole.

    Each hole is connected to the enclosing ring through a zero-width bridge
    edge at its rightmost vertex (the classic Eberly construction), turning
    the region into one simple (weakly self-touching) ring that the tolerant
    ear test can clip.  Holes are assumed to be pairwise disjoint and
    strictly inside *outer*; the triangle areas sum to
    ``outer.area - sum(hole.area)``.
    """
    ring = [Vector.from_any(vertex) for vertex in outer.vertices]
    # Rightmost holes first: once a hole is spliced its bridge is part of
    # the ring, so later (more leftward) bridges can cross it safely.
    ordered = sorted(holes, key=lambda hole: -max(v.x for v in hole.vertices))
    for hole in ordered:
        if hole.area <= 1e-15:
            continue
        # Hole rings must wind opposite to the outer ring for ear clipping;
        # Polygon normalizes to anticlockwise, so traverse it backwards.
        hole_ring = [Vector.from_any(vertex) for vertex in reversed(hole.vertices)]
        anchor_position = max(range(len(hole_ring)), key=lambda i: hole_ring[i].x)
        anchor = hole_ring[anchor_position]
        bridge_position = _visible_ring_vertex(ring, anchor)
        spliced = ring[: bridge_position + 1]
        spliced.extend(hole_ring[anchor_position:])
        spliced.extend(hole_ring[: anchor_position + 1])
        spliced.extend(ring[bridge_position:])
        ring = spliced
    triangles = _ear_clip(ring, robust=True)
    if triangles is None:
        cleaned = _drop_degenerate_vertices(ring)
        triangles = _ear_clip(cleaned, robust=True) if len(cleaned) >= 3 else None
    if triangles is None:
        raise ValueError("failed to triangulate polygon with holes")
    return triangles


def _visible_ring_vertex(ring: Sequence[Vector], anchor: Vector) -> int:
    """Index of a ring vertex the bridge segment from *anchor* can reach.

    Prefers the nearest vertex to *anchor*'s right whose connecting segment
    crosses no ring edge; falls back to the nearest vertex outright (the
    tolerant ear test copes with mildly crossing bridges on the degenerate
    inputs where perfect visibility is unattainable).
    """
    from .polygon import segments_intersect

    candidates = sorted(range(len(ring)), key=lambda i: anchor.distance_to(ring[i]))
    for index in candidates:
        vertex = ring[index]
        if vertex.x < anchor.x - 1e-12:
            continue
        visible = True
        for j in range(len(ring)):
            a, b = ring[j], ring[(j + 1) % len(ring)]
            if _coincident(a, vertex) or _coincident(b, vertex):
                continue
            if _coincident(a, anchor) or _coincident(b, anchor):
                continue
            if segments_intersect(anchor, vertex, a, b):
                visible = False
                break
        if visible:
            return index
    return candidates[0]


def triangulate_union(polygons: Sequence[Polygon]) -> List[Triangle]:
    """Triangulate a union of disjoint polygon pieces into one fan.

    Pieces are assumed pairwise disjoint — the invariant
    :class:`~repro.core.regions.PolygonalRegion` maintains (its ``area``
    sums piece areas and ``uniform_point`` picks pieces by area weight);
    overlapping input would double-weight the overlap.
    """
    triangles: List[Triangle] = []
    for polygon in polygons:
        triangles.extend(triangulate(polygon))
    return triangles


def sample_point_in_triangle(triangle: Triangle, random_source) -> Vector:
    """Uniformly random point inside a triangle via the square-root trick."""
    a, b, c = triangle
    r1 = math.sqrt(random_source.random())
    r2 = random_source.random()
    s, t, u = 1 - r1, r1 * (1 - r2), r1 * r2
    # a * s + b * t + c * u, summed left to right on floats.
    return Vector(a.x * s + b.x * t + c.x * u, a.y * s + b.y * t + c.y * u)


class TriangleFan:
    """An area-weighted triangle fan with O(1) uniform point sampling.

    Selection uses a Vose alias table over the triangle areas, so each draw
    costs one RNG call for the (column, coin) pair plus the two in-triangle
    calls — constant regardless of triangle count, unlike the linear
    cumulative scan of :class:`TriangulatedSampler` (kept unchanged because
    the golden corpus pins its RNG stream).
    """

    def __init__(self, triangles: Sequence[Triangle]):
        kept = [(t, _triangle_area(*t)) for t in triangles]
        kept = [(t, area) for t, area in kept if area > 1e-15]
        self.triangles: Tuple[Triangle, ...] = tuple(t for t, _ in kept)
        self._areas = [area for _, area in kept]
        self.total_area = float(sum(self._areas))
        if not kept or self.total_area <= 0.0:
            raise ValueError("cannot build a triangle fan with zero total area")
        self._prob, self._alias = _vose_alias_table(
            [area / self.total_area for area in self._areas]
        )

    @classmethod
    def of_polygons(cls, polygons: Sequence[Polygon]) -> "TriangleFan":
        return cls(triangulate_union(polygons))

    @classmethod
    def of_polygon_with_holes(cls, outer: Polygon, holes: Sequence[Polygon]) -> "TriangleFan":
        return cls(triangulate_with_holes(outer, holes))

    def __len__(self) -> int:
        return len(self.triangles)

    def sample(self, random_source) -> Vector:
        count = len(self.triangles)
        scaled = random_source.random() * count
        column = int(scaled)
        # Reuse the fractional part as the alias coin: both are uniform and
        # independent, so the draw stays a single RNG call.
        index = column if (scaled - column) <= self._prob[column] else self._alias[column]
        return sample_point_in_triangle(self.triangles[index], random_source)


def _vose_alias_table(probabilities: Sequence[float]) -> Tuple[List[float], List[int]]:
    """Vose's alias method: O(n) setup for O(1) categorical sampling."""
    count = len(probabilities)
    prob = [0.0] * count
    alias = list(range(count))
    scaled = [p * count for p in probabilities]
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    for remaining in large + small:
        prob[remaining] = 1.0
    return prob, alias


class TriangulatedSampler:
    """Caches a polygon's triangulation to draw many uniform samples cheaply."""

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        self.triangles = triangulate(polygon)
        self._areas = [_triangle_area(*t) for t in self.triangles]
        total = sum(self._areas)
        if total <= 0:
            raise ValueError("cannot sample from a polygon with zero area")
        self._cumulative = []
        running = 0.0
        for area in self._areas:
            running += area / total
            self._cumulative.append(running)

    def sample(self, random_source) -> Vector:
        # The first triangle whose cumulative share reaches u (the list is
        # non-decreasing), else the last one.
        index = bisect_left(self._cumulative, random_source.random())
        return sample_point_in_triangle(
            self.triangles[min(index, len(self.triangles) - 1)], random_source
        )


def sample_point_in_polygon(polygon: Polygon, random_source) -> Vector:
    """Uniformly random point inside *polygon* (one-shot convenience wrapper)."""
    return TriangulatedSampler(polygon).sample(random_source)


def sample_point_on_boundary(polygon: Polygon, random_source) -> Tuple[Vector, float]:
    """Random point on the polygon boundary, uniform by arc length.

    Returns the point together with the heading of the edge it lies on
    (useful for curb-like regions whose preferred orientation follows the
    boundary).
    """
    edges = polygon.edges()
    lengths = [a.distance_to(b) for a, b in edges]
    total = sum(lengths)
    if total <= 0:
        raise ValueError("cannot sample on a degenerate boundary")
    target = random_source.random() * total
    running = 0.0
    for (a, b), length in zip(edges, lengths):
        if running + length >= target:
            t = (target - running) / length if length > 0 else 0.0
            point = a + (b - a) * t
            heading = (b - a).angle()
            return point, heading
        running += length
    a, b = edges[-1]
    return b, (b - a).angle()
