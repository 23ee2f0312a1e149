"""Conservative polygon erosion and dilation for the pruning algorithms.

Section 5.2 of the paper prunes the sample space using ``erode(C, r)`` and
``dilate(Q, M)``.  Soundness of pruning only requires that

* the computed erosion is a *superset* of the true erosion (we may fail to
  prune some invalid centre positions, but never discard a valid one), and
* the computed dilation is a *superset* of the true dilation (ditto).

We therefore implement exact operations for convex polygons (the synthetic
road map is built from convex pieces) and fall back to sound conservative
approximations for non-convex inputs.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..core.vectors import Vector
from .polygon import Polygon, convex_hull, segment_distance


def erode_polygon(polygon: Polygon, radius: float) -> Optional[Polygon]:
    """Shrink *polygon* inward by *radius*.

    For convex polygons the result is the exact erosion (intersection of the
    half-planes bounded by each edge moved inward by *radius*); if the
    erosion is empty, returns ``None``.  For non-convex polygons we return
    the polygon unchanged, which is a sound (if useless) over-approximation.
    """
    if radius <= 0:
        return polygon
    if not polygon.is_convex():
        return polygon
    vertices = polygon.vertices
    count = len(vertices)
    # Move each edge inward along its inward normal, then intersect
    # consecutive edge lines to recover the eroded vertices.
    lines = []  # (point_on_line, direction)
    for i in range(count):
        a, b = vertices[i], vertices[(i + 1) % count]
        direction = b - a
        length = direction.norm()
        if length == 0:
            continue
        direction = direction / length
        # Vertices are anticlockwise, so the inward normal is the left normal.
        inward = Vector(-direction.y, direction.x)
        lines.append((a + inward * radius, direction))
    if len(lines) < 3:
        return None
    new_vertices: List[Vector] = []
    for i in range(len(lines)):
        p1, d1 = lines[i]
        p2, d2 = lines[(i + 1) % len(lines)]
        intersection = _line_intersection(p1, d1, p2, d2)
        if intersection is None:
            continue
        new_vertices.append(intersection)
    if len(new_vertices) < 3:
        return None
    # When the radius exceeds the inradius the offset edge lines cross over
    # and the vertex loop inverts; detect this via the raw signed area.
    signed_area = 0.0
    for i in range(len(new_vertices)):
        a, b = new_vertices[i], new_vertices[(i + 1) % len(new_vertices)]
        signed_area += a.x * b.y - b.x * a.y
    if signed_area <= 1e-12:
        return None
    try:
        eroded = Polygon(new_vertices)
    except ValueError:
        return None
    if eroded.area < 1e-12:
        return None
    # Every eroded vertex must really be at least ``radius`` from the boundary
    # (up to numerical tolerance); otherwise the erosion is degenerate.
    tolerance = 1e-6 * max(1.0, radius)
    for vertex in eroded.vertices:
        if not polygon.contains_point(vertex):
            return None
        boundary_distance = min(
            segment_distance(vertex.x, vertex.y, a.x, a.y, b.x, b.y) for a, b in polygon.edges()
        )
        if boundary_distance + tolerance < radius:
            return None
    return eroded


def dilate_polygon(polygon: Polygon, radius: float) -> Polygon:
    """Grow *polygon* outward by *radius* (sound superset of the true dilation).

    Implemented as the Minkowski sum of the polygon's convex hull with the
    square ``[-radius, radius]^2``, which contains the disc of radius
    *radius* and therefore contains the true (disc) dilation.
    """
    if radius <= 0:
        return polygon
    hull_source = polygon if polygon.is_convex() else convex_hull(polygon.vertices)
    offsets = [
        Vector(-radius, -radius),
        Vector(radius, -radius),
        Vector(radius, radius),
        Vector(-radius, radius),
    ]
    points = [v + offset for v in hull_source.vertices for offset in offsets]
    return convex_hull(points)


def inradius_lower_bound(polygon: Polygon) -> float:
    """A cheap lower bound on how far the centroid is from the boundary."""
    centroid = polygon.centroid
    return min(
        segment_distance(centroid.x, centroid.y, a.x, a.y, b.x, b.y) for a, b in polygon.edges()
    )


def minimum_width(polygon: Polygon) -> float:
    """Smallest distance between two parallel supporting lines (rotating calipers).

    Used by size-based pruning (Alg. 3) to decide whether a map polygon is
    "narrow".  Exact for convex polygons; for non-convex polygons we compute
    the width of the convex hull, which is an upper bound on the true width
    and therefore conservative (we only mark a polygon as narrow when even
    its hull is narrow).
    """
    hull = polygon if polygon.is_convex() else convex_hull(polygon.vertices)
    points = hull.points()
    count = len(points)
    best = math.inf
    for i in range(count):
        ax, ay = points[i]
        bx, by = points[(i + 1) % count]
        # The edge's unit left normal, and every vertex's offset along it.
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        if length == 0:
            continue
        nx, ny = -(ey / length), ex / length
        distances = [(x - ax) * nx + (y - ay) * ny for x, y in points]
        width = max(distances) - min(distances)
        best = min(best, width)
    return best if best is not math.inf else 0.0


def _line_intersection(p1: Vector, d1: Vector, p2: Vector, d2: Vector) -> Optional[Vector]:
    denominator = d1.cross(d2)
    if abs(denominator) < 1e-12:
        return None
    t = (p2 - p1).cross(d2) / denominator
    return p1 + d1 * t
