"""Simple polygons and the predicates the Scenic runtime needs.

A :class:`Polygon` is a simple (non-self-intersecting) polygon given by its
vertices in order (either orientation).  The runtime uses polygons for

* object bounding boxes (always convex quadrilaterals),
* road / curb / workspace regions (unions of convex pieces in the synthetic
  GTA-like map, arbitrary simple polygons elsewhere), and
* the pruning algorithms of Sec. 5.2, which intersect, dilate, and erode
  polygonal pieces of the map.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.vectors import Vector, VectorLike


class BoundingBox:
    """An axis-aligned rectangle given by its min/max corners."""

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        if min_x > max_x or min_y > max_y:
            raise ValueError("bounding box corners are inverted")
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    @staticmethod
    def of_points(points: Iterable[VectorLike]) -> "BoundingBox":
        xs, ys = [], []
        for point in points:
            vec = Vector.from_any(point)
            xs.append(vec.x)
            ys.append(vec.y)
        if not xs:
            raise ValueError("bounding box of empty point set")
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Vector:
        return Vector((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains_point(self, point: VectorLike) -> bool:
        vec = Vector.from_any(point)
        return self.min_x <= vec.x <= self.max_x and self.min_y <= vec.y <= self.max_y

    def intersects(self, other: "BoundingBox") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def expanded(self, margin: float) -> "BoundingBox":
        return BoundingBox(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    def to_polygon(self) -> "Polygon":
        return Polygon(
            [
                (self.min_x, self.min_y),
                (self.max_x, self.min_y),
                (self.max_x, self.max_y),
                (self.min_x, self.max_y),
            ]
        )

    def sample_point(self, random_source) -> Vector:
        """Uniformly random point inside the box, using ``random_source.uniform``."""
        return Vector(
            random_source.uniform(self.min_x, self.max_x),
            random_source.uniform(self.min_y, self.max_y),
        )

    def __repr__(self) -> str:
        return (
            f"BoundingBox({self.min_x:g}, {self.min_y:g}, {self.max_x:g}, {self.max_y:g})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return (self.min_x, self.min_y, self.max_x, self.max_y) == (
            other.min_x,
            other.min_y,
            other.max_x,
            other.max_y,
        )


def _orientation(a: Vector, b: Vector, c: Vector) -> float:
    """Twice the signed area of triangle abc (positive = anticlockwise)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_intersect(
    p1: VectorLike, p2: VectorLike, q1: VectorLike, q2: VectorLike
) -> bool:
    """True iff the closed segments ``p1p2`` and ``q1q2`` intersect."""
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

    def on_segment(a: Vector, b: Vector, c: Vector) -> bool:
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


#: Boundary tolerance of the containment test: a point within about this
#: distance of an edge (relative to the edge length for edges longer than 1)
#: counts as inside.
_ON_EDGE_TOLERANCE = 1e-9

#: Lock taken only while a polygon's edge table is first built, so a region
#: shared by sampling threads builds each table once.
_EDGE_TABLE_LOCK = threading.Lock()


def _edge_table(vertices: Sequence[Vector]) -> Tuple[float, float, float, float, tuple]:
    """The float table :func:`_contains` scans: a reject box plus one row per edge.

    Edge ``i`` joins ``a = vertices[i]`` to ``b = vertices[i - 1]``; its row is
    ``(ax, ay, bx, by, dx, dy, threshold, limit, ex, ey)`` with ``d = b - a``,
    ``e = a - b``, the on-edge cross-product ``threshold`` and the dot-product
    ``limit`` (squared length plus tolerance), each computed with exactly the
    expression the containment test has always used, so verdicts are
    bit-identical.

    A point on an edge of length ``L`` passes the on-edge test only within
    ``tol * max(1, L) / L`` of the edge's line and ``tol / L`` past its ends,
    and a point beyond the vertices' bounding box crosses an even number of
    edges.  The reject box is the bounding box padded by twice the largest
    such distance plus 64 ulps of the largest coordinate (which covers the
    rounding of the ray-crossing abscissa), so rejecting outside it never
    changes a verdict.  A zero-length edge accepts every point, so it turns
    the reject box off.
    """
    tolerance = _ON_EDGE_TOLERANCE
    rows = []
    reach = 0.0
    j = len(vertices) - 1
    for i in range(len(vertices)):
        ax, ay = vertices[i].x, vertices[i].y
        bx, by = vertices[j].x, vertices[j].y
        dx, dy = bx - ax, by - ay
        length = math.hypot(ax - bx, ay - by)
        threshold = tolerance * max(1.0, length)
        rows.append(
            (ax, ay, bx, by, dx, dy, threshold, dx ** 2 + dy ** 2 + tolerance, ax - bx, ay - by)
        )
        reach = max(reach, (threshold + tolerance) / length if length > 0 else math.inf)
        j = i
    xs = [vertex.x for vertex in vertices]
    ys = [vertex.y for vertex in vertices]
    min_x, min_y, max_x, max_y = min(xs), min(ys), max(xs), max(ys)
    margin = 2.0 * reach + 64.0 * math.ulp(max(-min_x, -min_y, max_x, max_y))
    return (min_x - margin, min_y - margin, max_x + margin, max_y + margin, tuple(rows))


def _contains(px: float, py: float, table: tuple) -> bool:
    """Ray-casting containment of ``(px, py)``; boundary points count as inside."""
    min_x, min_y, max_x, max_y, rows = table
    if px < min_x or px > max_x or py < min_y or py > max_y:
        return False
    low = -_ON_EDGE_TOLERANCE
    inside = False
    for ax, ay, bx, by, dx, dy, threshold, limit, ex, ey in rows:
        rx = px - ax
        ry = py - ay
        # Boundary check: point on the edge, within tolerance.
        if not abs(dx * ry - dy * rx) > threshold and low <= rx * dx + ry * dy <= limit:
            return True
        if (ay > py) != (by > py) and px < bx + (py - by) * ex / ey:
            inside = not inside
    return inside


def point_in_polygon(point: VectorLike, vertices: Sequence[Vector]) -> bool:
    """Ray-casting containment test; boundary points count as inside.

    The scalar reference every containment path agrees with.  A
    :class:`Polygon` caches its edge table, so prefer
    :meth:`Polygon.contains_point` in loops.
    """
    point = Vector.from_any(point)
    return _contains(point.x, point.y, _edge_table(vertices))


class Polygon:
    """A simple polygon, stored with anticlockwise vertex order."""

    __slots__ = ("vertices", "_table")

    def __init__(self, vertices: Sequence[VectorLike]):
        points = [Vector.from_any(v) for v in vertices]
        if len(points) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if _signed_area(points) < 0:
            points = list(reversed(points))
        self.vertices: Tuple[Vector, ...] = tuple(points)
        self._table: Optional[tuple] = None

    def __getstate__(self) -> Tuple[Vector, ...]:
        # The edge table is a cache: pickles and copies carry the vertices only.
        return self.vertices

    def __setstate__(self, vertices: Tuple[Vector, ...]) -> None:
        self.vertices = vertices
        self._table = None

    # -- basic measures --------------------------------------------------------

    @property
    def area(self) -> float:
        return abs(_signed_area(self.vertices))

    @property
    def centroid(self) -> Vector:
        signed = _signed_area(self.vertices)
        if signed == 0:
            xs = [v.x for v in self.vertices]
            ys = [v.y for v in self.vertices]
            return Vector(sum(xs) / len(xs), sum(ys) / len(ys))
        cx = cy = 0.0
        verts = self.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            cross = a.x * b.y - b.x * a.y
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Vector(cx * factor, cy * factor)

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.of_points(self.vertices)

    def edges(self) -> List[Tuple[Vector, Vector]]:
        verts = self.vertices
        return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]

    def is_convex(self, tolerance: float = 1e-9) -> bool:
        verts = self.vertices
        count = len(verts)
        for i in range(count):
            a, b, c = verts[i], verts[(i + 1) % count], verts[(i + 2) % count]
            if _orientation(a, b, c) < -tolerance:
                return False
        return True

    # -- predicates ------------------------------------------------------------

    def edge_table(self) -> tuple:
        """The cached float table :func:`_contains` scans, built on first use."""
        table = self._table
        if table is None:
            with _EDGE_TABLE_LOCK:
                if self._table is None:
                    # Published in one assignment, complete.
                    self._table = _edge_table(self.vertices)
            table = self._table
        return table

    def contains_point(self, point: VectorLike) -> bool:
        if type(point) is not Vector:
            point = Vector.from_any(point)
        return _contains(point.x, point.y, self.edge_table())

    def contains_polygon(self, other: "Polygon") -> bool:
        """Conservative containment: all of *other*'s vertices inside and no edge crossings."""
        if not all(self.contains_point(v) for v in other.vertices):
            return False
        for a1, a2 in self.edges():
            for b1, b2 in other.edges():
                if segments_intersect(a1, a2, b1, b2):
                    # Edges may touch at shared boundary points; treat proper
                    # crossings only as violations by checking midpoints.
                    mid = (b1 + b2) / 2
                    if not self.contains_point(mid):
                        return False
        return True

    def intersects(self, other: "Polygon") -> bool:
        return polygons_intersect(self, other)

    def distance_to_point(self, point: VectorLike) -> float:
        """Distance from *point* to the polygon (0 if inside)."""
        point = Vector.from_any(point)
        if self.contains_point(point):
            return 0.0
        return min(_point_segment_distance(point, a, b) for a, b in self.edges())

    # -- transforms ------------------------------------------------------------

    def translated(self, offset: VectorLike) -> "Polygon":
        offset = Vector.from_any(offset)
        return Polygon([v + offset for v in self.vertices])

    def rotated(self, angle: float, about: Optional[VectorLike] = None) -> "Polygon":
        pivot = Vector.from_any(about) if about is not None else Vector(0, 0)
        return Polygon([(v - pivot).rotated_by(angle) + pivot for v in self.vertices])

    def scaled(self, factor: float, about: Optional[VectorLike] = None) -> "Polygon":
        pivot = Vector.from_any(about) if about is not None else self.centroid
        return Polygon([(v - pivot) * factor + pivot for v in self.vertices])

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polygon({[v.to_tuple() for v in self.vertices]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    @staticmethod
    def rectangle(center: VectorLike, width: float, height: float, heading: float = 0.0) -> "Polygon":
        """Axis-aligned w×h rectangle rotated to *heading* about its centre.

        This is exactly the bounding box of an :class:`Object` in the paper:
        ``width`` spans the local x axis and ``height`` the local y axis.
        """
        center = Vector.from_any(center)
        half_w, half_h = width / 2.0, height / 2.0
        corners = [
            Vector(-half_w, -half_h),
            Vector(half_w, -half_h),
            Vector(half_w, half_h),
            Vector(-half_w, half_h),
        ]
        return Polygon([center + corner.rotated_by(heading) for corner in corners])


def _signed_area(vertices: Sequence[Vector]) -> float:
    total = 0.0
    count = len(vertices)
    for i in range(count):
        a, b = vertices[i], vertices[(i + 1) % count]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


def _point_segment_distance(point: Vector, a: Vector, b: Vector) -> float:
    segment = b - a
    length_sq = segment.dot(segment)
    if length_sq == 0:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(segment) / length_sq))
    projection = a + segment * t
    return point.distance_to(projection)


def polygons_intersect(p: Polygon, q: Polygon) -> bool:
    """True iff the two polygons overlap (share interior or boundary points)."""
    if not p.bounding_box().intersects(q.bounding_box()):
        return False
    for a1, a2 in p.edges():
        for b1, b2 in q.edges():
            if segments_intersect(a1, a2, b1, b2):
                return True
    # No edge crossings: one may contain the other entirely.
    return p.contains_point(q.vertices[0]) or q.contains_point(p.vertices[0])


def convex_hull(points: Iterable[VectorLike]) -> Polygon:
    """Andrew's monotone-chain convex hull."""
    pts = sorted({Vector.from_any(p).to_tuple() for p in points})
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")
    pts = [Vector(x, y) for x, y in pts]

    def half_hull(sequence):
        hull: List[Vector] = []
        for point in sequence:
            while len(hull) >= 2 and _orientation(hull[-2], hull[-1], point) <= 0:
                hull.pop()
            hull.append(point)
        return hull

    lower = half_hull(pts)
    upper = half_hull(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # All points collinear: fall back to a degenerate thin rectangle.
        a, b = pts[0], pts[-1]
        direction = (b - a)
        if direction.norm() == 0:
            raise ValueError("convex hull of coincident points")
        normal = Vector(-direction.y, direction.x) * (1e-9 / direction.norm())
        return Polygon([a + normal, b + normal, b - normal, a - normal])
    return Polygon(hull)


def clip_polygon(subject: Polygon, clip: Polygon) -> Optional[Polygon]:
    """Sutherland–Hodgman clipping of *subject* against a convex *clip* polygon.

    Returns the intersection polygon, or ``None`` if it is empty.  The result
    is exact when *clip* is convex (the only case the pruning algorithms
    need); *subject* may be any simple polygon, in which case the output is a
    (possibly degenerate) superset of the true intersection boundary, which
    keeps the pruning algorithms sound.
    """
    output = list(subject.vertices)
    clip_vertices = clip.vertices
    count = len(clip_vertices)
    for i in range(count):
        if not output:
            return None
        a, b = clip_vertices[i], clip_vertices[(i + 1) % count]
        input_list = output
        output = []

        def inside(point: Vector) -> bool:
            return _orientation(a, b, point) >= -1e-12

        def line_intersection(p1: Vector, p2: Vector) -> Vector:
            # Intersection of segment p1p2 with the infinite line ab.
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
    # Remove (near-)duplicate consecutive vertices before constructing.
    cleaned: List[Vector] = []
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
