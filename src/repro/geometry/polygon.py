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
from typing import Any, Iterable, List, Optional, Sequence, Tuple

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

#: Lock taken only while a polygon's float caches are first built, so a
#: region shared by sampling threads builds each cache once.
_CACHE_LOCK = threading.Lock()


def _bounds_xy(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of float points, as :meth:`BoundingBox.of_points`."""
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    return (min(xs), min(ys), max(xs), max(ys))


def _float_vertices(vertices: Sequence[Vector]) -> Tuple[tuple, Tuple[float, float, float, float]]:
    """A polygon's float caches: its vertices as ``(x, y)`` pairs, and their bounds."""
    points = tuple((vertex.x, vertex.y) for vertex in vertices)
    return points, _bounds_xy(points)


#: An inner box keeps at least this distance, times ``max(1, M)`` for the
#: piece's largest absolute coordinate ``M``, from every edge line.
_INNER_MARGIN = 1e-6

#: The inner box of a table that has none: no point is strictly inside it.
_NO_INNER_BOX = (math.inf, math.inf, -math.inf, -math.inf)


def _edge_table(vertices: Sequence[Vector]) -> tuple:
    """A :class:`Polygon`'s table: :func:`_edge_table_xy` plus the ring's :func:`_inner_box`."""
    points = [(vertex.x, vertex.y) for vertex in vertices]
    return _edge_table_xy(points, _inner_box(points))


def _edge_table_xy(points: Sequence[Tuple[float, float]], inner: Tuple[float, ...] = _NO_INNER_BOX) -> tuple:
    """The float table :func:`_contains` scans: a reject box, one row per edge, an inner box.

    Edge ``i`` joins ``a = points[i]`` to ``b = points[i - 1]``; its row is
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
    changes a verdict.  A zero-length edge (a repeated vertex) gets no row:
    it is neither on-edge for any other point nor a ray crossing, and the
    edges on either side of it already cover its vertex.

    *inner* is ``(min_x, min_y, max_x, max_y)`` of a box whose strict
    interior is inside the ring (see :func:`_inner_box`); tables built per
    call, such as :func:`rings_intersect`'s, keep the empty default.
    """
    tolerance = _ON_EDGE_TOLERANCE
    rows = []
    reach = 0.0
    j = len(points) - 1
    for i in range(len(points)):
        ax, ay = points[i]
        bx, by = points[j]
        j = i
        dx, dy = bx - ax, by - ay
        if dx == 0.0 and dy == 0.0:
            continue
        length = math.hypot(ax - bx, ay - by)
        threshold = tolerance * max(1.0, length)
        rows.append(
            (ax, ay, bx, by, dx, dy, threshold, dx ** 2 + dy ** 2 + tolerance, ax - bx, ay - by)
        )
        reach = max(reach, (threshold + tolerance) / length)
    min_x, min_y, max_x, max_y = _bounds_xy(points)
    margin = 2.0 * reach + 64.0 * math.ulp(max(-min_x, -min_y, max_x, max_y))
    return (min_x - margin, min_y - margin, max_x + margin, max_y + margin, tuple(rows), *inner)


def _inner_box(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float, float]:
    """An axis-aligned box deep inside the anticlockwise convex ring *points*.

    The ring's bounding box, scaled about the ring's centroid by the largest
    ``s <= 1`` at which each of its four corners keeps a signed distance of
    at least ``2 * _INNER_MARGIN * max(1, M)`` from every edge line (each
    corner-edge pair bounds ``s`` linearly).  Half that margin covers every
    rounding in this computation, so each point of the box is at least
    ``_INNER_MARGIN * max(1, M)`` inside every edge line, hence inside the
    ring.  That is far beyond both the on-edge tolerance and the few ulps of
    ``M`` by which the ray-crossing abscissa can be off, so :func:`_contains`
    answers ``True`` for it, and may do so without scanning the edges.

    Rings that are not convex, or turn more than once, get
    :data:`_NO_INNER_BOX`, as does a ring whose centroid is within the
    margin of an edge.
    """
    edges = []
    for i in range(len(points)):
        ax, ay = points[i - 1]
        bx, by = points[i]
        if ax != bx or ay != by:
            edges.append((ax, ay, bx - ax, by - ay))
    min_x, min_y, max_x, max_y = _bounds_xy(points)
    if len(edges) < 3 or not all(map(math.isfinite, (min_x, min_y, max_x, max_y))):
        return _NO_INNER_BOX
    # Convex and simple: every turn is to the left (or straight), and the
    # turns add up to one full turn.
    turning = 0.0
    for (_ax, _ay, dx, dy), (_bx, _by, ex, ey) in zip(edges, edges[1:] + edges[:1]):
        cross = dx * ey - dy * ex
        if cross < 0.0:
            return _NO_INNER_BOX
        turning += math.atan2(cross, dx * ex + dy * ey)
    if abs(turning - 2.0 * math.pi) > 1e-6:
        return _NO_INNER_BOX
    # The area centroid, relative to the first vertex against cancellation.
    ox, oy = points[0]
    twice_area = cx = cy = 0.0
    for i in range(len(points)):
        ax, ay = points[i - 1]
        bx, by = points[i]
        ax, ay, bx, by = ax - ox, ay - oy, bx - ox, by - oy
        cross = ax * by - bx * ay
        twice_area += cross
        cx += (ax + bx) * cross
        cy += (ay + by) * cross
    if not twice_area > 0.0:
        return _NO_INNER_BOX
    cx = ox + cx / (3.0 * twice_area)
    cy = oy + cy / (3.0 * twice_area)
    margin = 2.0 * _INNER_MARGIN * max(1.0, -min_x, -min_y, max_x, max_y)
    offsets = (
        (min_x - cx, min_y - cy), (max_x - cx, min_y - cy), (max_x - cx, max_y - cy), (min_x - cx, max_y - cy),
    )
    scale = 1.0
    for ax, ay, dx, dy in edges:
        length = math.hypot(dx, dy)
        # Signed distance from the edge line, positive inside: the centroid's
        # slack, and the rate at which each corner of the scaled box eats it.
        slack = (dx * (cy - ay) - dy * (cx - ax)) / length - margin
        if not slack > 0.0:
            return _NO_INNER_BOX
        for offset_x, offset_y in offsets:
            rate = (dx * offset_y - dy * offset_x) / length
            if rate < 0.0:
                scale = min(scale, slack / -rate)
    return (
        cx + scale * (min_x - cx),
        cy + scale * (min_y - cy),
        cx + scale * (max_x - cx),
        cy + scale * (max_y - cy),
    )


def _contains(px: float, py: float, table: tuple) -> bool:
    """Ray-casting containment of ``(px, py)``; boundary points count as inside."""
    min_x, min_y, max_x, max_y, rows, in_min_x, in_min_y, in_max_x, in_max_y = table
    if px < min_x or px > max_x or py < min_y or py > max_y:
        return False
    if in_min_x < px < in_max_x and in_min_y < py < in_max_y:
        return True
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
    return _contains(point.x, point.y, _edge_table_xy([(vertex.x, vertex.y) for vertex in vertices]))


class Polygon:
    """A simple polygon, stored with anticlockwise vertex order."""

    __slots__ = ("vertices", "_table", "_points", "_bounds")

    def __init__(self, vertices: Sequence[VectorLike]):
        points = [Vector.from_any(v) for v in vertices]
        if len(points) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if _signed_area(points) < 0:
            points = list(reversed(points))
        self.vertices: Tuple[Vector, ...] = tuple(points)
        self._table: Optional[tuple] = None
        self._points: Optional[tuple] = None
        self._bounds: Optional[tuple] = None

    def __getstate__(self) -> Tuple[Vector, ...]:
        # The edge table and float vertices are caches: pickles and copies
        # carry the vertices only.
        return self.vertices

    def __setstate__(self, vertices: Tuple[Vector, ...]) -> None:
        self.vertices = vertices
        self._table = None
        self._points = None
        self._bounds = None

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
        # A fresh box each call: BoundingBox is mutable, the cached tuple not.
        return BoundingBox(*self.bounds())

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
            with _CACHE_LOCK:
                if self._table is None:
                    # Published in one assignment, complete.
                    self._table = _edge_table(self.vertices)
            table = self._table
        return table

    def points(self) -> Tuple[Tuple[float, float], ...]:
        """The vertices as cached ``(x, y)`` float pairs, built on first use."""
        points = self._points
        if points is None:
            with _CACHE_LOCK:
                if self._points is None:
                    points, bounds = _float_vertices(self.vertices)
                    # The bounds first: a reader that sees the points sees both.
                    self._bounds = bounds
                    self._points = points
            points = self._points
        return points

    def bounds(self) -> Tuple[float, float, float, float]:
        """The cached ``(min_x, min_y, max_x, max_y)`` of the vertices."""
        if self._bounds is None:
            self.points()
        return self._bounds

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
        if type(point) is not Vector:
            point = Vector.from_any(point)
        px, py = point.x, point.y
        table = self._table or self.edge_table()
        if _contains(px, py, table):
            return 0.0
        # Row (a, b) is the edge from b to a, with e = a - b: the closest
        # point of that segment, as segment_distance computes it.
        best = None
        for _ax, _ay, bx, by, _dx, _dy, _threshold, _limit, ex, ey in table[4]:
            length_sq = ex * ex + ey * ey
            if length_sq == 0:
                distance = math.hypot(px - bx, py - by)
            else:
                t = max(0.0, min(1.0, ((px - bx) * ex + (py - by) * ey) / length_sq))
                distance = math.hypot(px - (bx + ex * t), py - (by + ey * t))
            # min()'s rule: a later distance replaces the best only if smaller.
            if best is None or distance < best:
                best = distance
        return best

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


def segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from the point ``(px, py)`` to the closed segment from ``a`` to ``b``."""
    sx, sy = bx - ax, by - ay
    length_sq = sx * sx + sy * sy
    if length_sq == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * sx + (py - ay) * sy) / length_sq))
    return math.hypot(px - (ax + sx * t), py - (ay + sy * t))


def _edges_cross(pp: Sequence[Tuple[float, float]], qq: Sequence[Tuple[float, float]]) -> bool:
    """:func:`segments_intersect` for some edge of ring *pp* and some edge of ring *qq*.

    The rings are ``(x, y)`` vertex sequences; each edge joins a vertex to
    the next.  Every orientation is ``_orientation``'s expression on the
    same floats, so each pair's verdict is the Vector version's.
    """
    p_count, q_count = len(pp), len(qq)
    q_edges = []
    for j in range(q_count):
        qx1, qy1 = qq[j]
        qx2, qy2 = qq[(j + 1) % q_count]
        q_edges.append((qx1, qy1, qx2, qy2, qx2 - qx1, qy2 - qy1))
    for i in range(p_count):
        px1, py1 = pp[i]
        px2, py2 = pp[(i + 1) % p_count]
        pdx, pdy = px2 - px1, py2 - py1
        for qx1, qy1, qx2, qy2, qdx, qdy in q_edges:
            d1 = qdx * (py1 - qy1) - qdy * (px1 - qx1)
            d2 = qdx * (py2 - qy1) - qdy * (px2 - qx1)
            d3 = pdx * (qy1 - py1) - pdy * (qx1 - px1)
            d4 = pdx * (qy2 - py1) - pdy * (qx2 - px1)
            if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
                (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
            ):
                return True
            # An endpoint on the other segment's line and within its box.
            if d1 == 0 and _in_box(px1, py1, qx1, qy1, qx2, qy2):
                return True
            if d2 == 0 and _in_box(px2, py2, qx1, qy1, qx2, qy2):
                return True
            if d3 == 0 and _in_box(qx1, qy1, px1, py1, px2, py2):
                return True
            if d4 == 0 and _in_box(qx2, qy2, px1, py1, px2, py2):
                return True
    return False


def _in_box(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """``segments_intersect``'s ``on_segment``: ``(x, y)`` within the box of ``(x1, y1)-(x2, y2)``."""
    return min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)


def corner_coords(scenic_object: Any) -> Tuple[float, ...]:
    """An object's bounding-box corners as ``(ax, ay, bx, by, cx, cy, dx, dy)``.

    Front-right first, then anticlockwise: ``position + offset.rotated_by(heading)``
    for each corner offset, on floats.  ``Object.corners``, workspace
    containment, collisions and visibility all take their corners from here.
    Anything with ``position``, ``heading``, ``width`` and ``height`` works.
    """
    position = scenic_object.position
    if type(position) is not Vector:
        position = Vector.from_any(position)
    heading = float(scenic_object.heading)
    half_w = float(scenic_object.width) / 2.0
    half_h = float(scenic_object.height) / 2.0
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    x, y = position.x, position.y
    return (
        x + (half_w * cos_h - half_h * sin_h),
        y + (half_w * sin_h + half_h * cos_h),
        x + (-half_w * cos_h - half_h * sin_h),
        y + (-half_w * sin_h + half_h * cos_h),
        x + (-half_w * cos_h - -half_h * sin_h),
        y + (-half_w * sin_h + -half_h * cos_h),
        x + (half_w * cos_h - -half_h * sin_h),
        y + (half_w * sin_h + -half_h * cos_h),
    )


def object_footprint(scenic_object: Any) -> Tuple[tuple, Tuple[float, float, float, float]]:
    """An object's bounding box as ``Polygon(corners)`` would hold it: ``(ring, bounds)``.

    *ring* is the four corners as ``(x, y)`` pairs, reversed when clockwise
    (:class:`Polygon`'s rule, on ``_signed_area``'s sum); *bounds* is
    ``(min_x, min_y, max_x, max_y)``.  Feed two of them to
    :func:`rings_intersect`.
    """
    ax, ay, bx, by, cx, cy, dx, dy = corner_coords(scenic_object)
    twice_area = (((ax * by - bx * ay) + (bx * cy - cx * by)) + (cx * dy - dx * cy)) + (dx * ay - ax * dy)
    if twice_area / 2.0 < 0:
        ax, ay, bx, by, cx, cy, dx, dy = dx, dy, cx, cy, bx, by, ax, ay
    return (
        ((ax, ay), (bx, by), (cx, cy), (dx, dy)),
        (min(ax, bx, cx, dx), min(ay, by, cy, dy), max(ax, bx, cx, dx), max(ay, by, cy, dy)),
    )


def _boxes_overlap(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """:meth:`BoundingBox.intersects` on ``(min_x, min_y, max_x, max_y)`` tuples."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def rings_intersect(
    pp: Sequence[Tuple[float, float]],
    p_bounds: Tuple[float, float, float, float],
    qq: Sequence[Tuple[float, float]],
    q_bounds: Tuple[float, float, float, float],
) -> bool:
    """:func:`polygons_intersect` on float rings in :class:`Polygon` vertex order.

    *p_bounds*/*q_bounds* are the rings' ``(min_x, min_y, max_x, max_y)``.
    """
    if not _boxes_overlap(p_bounds, q_bounds):
        return False
    if _edges_cross(pp, qq):
        return True
    # No edge crossings: one may contain the other entirely.
    x, y = qq[0]
    if _contains(x, y, _edge_table_xy(pp)):
        return True
    x, y = pp[0]
    return _contains(x, y, _edge_table_xy(qq))


def polygons_intersect(p: Polygon, q: Polygon) -> bool:
    """True iff the two polygons overlap (share interior or boundary points)."""
    # Points first: a polygon publishes its bounds before its points.
    pp, qq = p._points or p.points(), q._points or q.points()
    if not _boxes_overlap(p._bounds, q._bounds):
        return False
    if _edges_cross(pp, qq):
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
    output = list(subject.points())
    clip_points = clip.points()
    count = len(clip_points)
    for i in range(count):
        if not output:
            return None
        ax, ay = clip_points[i]
        bx, by = clip_points[(i + 1) % count]
        abx, aby = bx - ax, by - ay
        input_list = output
        output = []
        # _orientation(a, b, point) of every input vertex, once.
        sides = [abx * (y - ay) - aby * (x - ax) for x, y in input_list]
        previous_side = sides[-1]
        for index, current in enumerate(input_list):
            side = sides[index]
            if side >= -1e-12:
                if not previous_side >= -1e-12:
                    output.append(_cut(input_list[index - 1], current, previous_side, side))
                output.append(current)
            elif previous_side >= -1e-12:
                output.append(_cut(input_list[index - 1], current, previous_side, side))
            previous_side = side
    # Remove (near-)duplicate consecutive vertices before constructing.
    cleaned: List[Tuple[float, float]] = []
    for vertex in output:
        if not cleaned or not _close(vertex, cleaned[-1]):
            cleaned.append(vertex)
    if len(cleaned) >= 2 and _close(cleaned[0], cleaned[-1]):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    result = Polygon(cleaned)
    if result.area < 1e-12:
        return None
    return result


def _cut(
    p1: Tuple[float, float], p2: Tuple[float, float], d1: float, d2: float
) -> Tuple[float, float]:
    """Where segment ``p1p2`` meets the clip line, given both orientations."""
    if d1 == d2:
        return p1
    t = d1 / (d1 - d2)
    # p1 + (p2 - p1) * t
    return (p1[0] + (p2[0] - p1[0]) * t, p1[1] + (p2[1] - p1[1]) * t)


def _close(p: Tuple[float, float], q: Tuple[float, float]) -> bool:
    """``Vector.is_close_to`` with the clip clean-up's 1e-9 tolerance."""
    return math.isclose(p[0], q[0], abs_tol=1e-9, rel_tol=1e-9) and math.isclose(
        p[1], q[1], abs_tol=1e-9, rel_tol=1e-9
    )
