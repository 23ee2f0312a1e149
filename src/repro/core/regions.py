"""Regions: sets of points in the workspace (one of Scenic's primitive types).

Regions support three operations the runtime needs:

* membership (``contains_point`` / ``contains_object``) for the built-in and
  user requirements (``X is in region``);
* uniform sampling, used by the ``(in | on) region`` and ``visible`` position
  specifiers — sampling a region yields a :class:`PointInRegionDistribution`
  so the draw happens per scene;
* an optional *preferred orientation* (a vector field), which the ``on
  region`` specifier uses to optionally specify ``heading``.

The concrete region classes mirror the reference implementation: circles,
sectors (view cones), rotated rectangles, polygonal regions (unions of simple
polygons), polylines (for curbs) and finite point sets, plus lazy
intersection and difference regions evaluated by rejection.
"""

from __future__ import annotations

import math
import random as _random
from bisect import bisect_left
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import kernel as _kernel
from ..geometry.polygon import (
    BoundingBox,
    Polygon,
    _contains,
    corner_coords,
    polygons_intersect,
    segment_distance,
)
from ..geometry.spatial_index import SpatialGrid
from ..geometry.triangulation import TriangulatedSampler
from .distributions import Distribution, needs_sampling
from .errors import RejectSample, ScenicError
from .utils import normalize_angle
from .vectors import Vector, VectorLike


class PointInRegionDistribution(Distribution):
    """A uniformly random point of a region (drawn once per scene)."""

    def __init__(self, region: "Region"):
        super().__init__(region)
        self.region = region

    def sample_given(self, dependency_values, rng):
        (region,) = dependency_values
        return region.uniform_point(rng)

    def __repr__(self) -> str:
        return f"PointInRegionDistribution({self.region!r})"


class Region:
    """Abstract base class for all regions."""

    def __init__(self, name: str, orientation: Optional[Any] = None):
        self.name = name
        #: Optional preferred orientation (a :class:`VectorField`).
        self.orientation = orientation

    # -- membership -------------------------------------------------------------

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass redefining contains_point but not _contains_xy must not
        # inherit a parent's float route that bypasses its own definition.
        if "contains_point" in cls.__dict__ and "_contains_xy" not in cls.__dict__:
            cls._contains_xy = Region._contains_xy

    def contains_point(self, point: VectorLike) -> bool:
        raise NotImplementedError

    def _contains_xy(self, x: float, y: float) -> bool:
        """``contains_point`` on plain floats; regions override it to skip the Vector."""
        return self.contains_point(Vector(x, y))

    def contains_points_batch(self, points: Any) -> "np.ndarray":
        """Membership of ``N`` points at once, as a boolean array.

        This scalar fallback simply loops :meth:`contains_point`, so
        third-party regions inherit batch semantics for free; every built-in
        region overrides it with a genuinely vectorized implementation (the
        contract: identical results to calling ``contains_point`` per point,
        up to ~1-ulp boundary coincidences).  *points* may be an ``(N, 2)``
        array or any iterable of vector-likes.
        """
        pts = _kernel.as_points(points)
        return np.fromiter(
            (bool(self.contains_point((x, y))) for x, y in pts), dtype=bool, count=len(pts)
        )

    def contains_object(self, scenic_object: Any) -> bool:
        """An object is inside iff its corners *and* edge midpoints all are.

        Corners alone wrongly accept a box straddling a concave notch of the
        region (all four corners inside, the middle of an edge outside); the
        midpoints catch that case while staying exact for convex regions,
        where corner containment already implies full containment.
        """
        # The corners, then the midpoints as (a + b) / 2, on floats.
        ax, ay, bx, by, cx, cy, dx, dy = corner_coords(scenic_object)
        contains = self._contains_xy
        return (
            contains(ax, ay)
            and contains(bx, by)
            and contains(cx, cy)
            and contains(dx, dy)
            and contains((ax + bx) / 2, (ay + by) / 2)
            and contains((bx + cx) / 2, (by + cy) / 2)
            and contains((cx + dx) / 2, (cy + dy) / 2)
            and contains((dx + ax) / 2, (dy + ay) / 2)
        )

    # -- sampling ---------------------------------------------------------------

    def uniform_point(self, rng: _random.Random) -> Vector:
        """Draw a uniformly random point; may raise :class:`RejectSample`."""
        raise NotImplementedError

    def uniform_point_distribution(self) -> PointInRegionDistribution:
        return PointInRegionDistribution(self)

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> Optional[BoundingBox]:
        """Axis-aligned bounds, or ``None`` when unbounded."""
        return None

    def area(self) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no finite area")

    def intersect(self, other: "Region") -> "Region":
        """The intersection region (sampled by rejection unless specialised)."""
        if isinstance(other, EverywhereRegion):
            return self
        if isinstance(self, EverywhereRegion):
            return other
        return IntersectionRegion(self, other)

    def difference(self, other: "Region") -> "Region":
        return DifferenceRegion(self, other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class EverywhereRegion(Region):
    """The whole plane: everything is contained, nothing can be sampled."""

    def __init__(self, name: str = "everywhere"):
        super().__init__(name)

    def contains_point(self, point: VectorLike) -> bool:
        return True

    def contains_points_batch(self, points: Any) -> np.ndarray:
        return np.ones(len(_kernel.as_points(points)), dtype=bool)

    def contains_object(self, scenic_object: Any) -> bool:
        return True

    def uniform_point(self, rng):
        raise ScenicError("cannot sample a uniformly random point of the whole plane")


class EmptyRegion(Region):
    """The empty set (useful as an identity for unions and error cases)."""

    def __init__(self, name: str = "empty"):
        super().__init__(name)

    def contains_point(self, point: VectorLike) -> bool:
        return False

    def contains_points_batch(self, points: Any) -> np.ndarray:
        return np.zeros(len(_kernel.as_points(points)), dtype=bool)

    def contains_object(self, scenic_object: Any) -> bool:
        return False

    def uniform_point(self, rng):
        raise RejectSample("sampling from an empty region")

    def area(self) -> float:
        return 0.0


everywhere = EverywhereRegion()
nowhere = EmptyRegion()


class CircularRegion(Region):
    """A disc of the given radius about a centre point."""

    def __init__(self, center: VectorLike, radius: float, name: str = "circle"):
        super().__init__(name)
        self.center = Vector.from_any(center)
        self.radius = float(radius)
        if self.radius < 0:
            raise ScenicError("circle radius must be non-negative")

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return self._contains_xy(point.x, point.y)

    def _contains_xy(self, x: float, y: float) -> bool:
        # center.distance_to(point), on floats.
        return math.hypot(self.center.x - x, self.center.y - y) <= self.radius + 1e-9

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        distances = np.hypot(pts[:, 0] - self.center.x, pts[:, 1] - self.center.y)
        return distances <= self.radius + 1e-9

    def uniform_point(self, rng):
        r = self.radius * math.sqrt(rng.random())
        theta = rng.uniform(0, 2 * math.pi)
        return self.center + Vector(r * math.cos(theta), r * math.sin(theta))

    def bounding_box(self):
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def area(self) -> float:
        return math.pi * self.radius ** 2


class SectorRegion(Region):
    """A circular sector: the view cone of an :class:`OrientedPoint`.

    ``heading`` is the direction of the bisector and ``angle`` the full
    opening angle; an angle of ``2*pi`` (or more) degenerates to a disc.
    """

    def __init__(
        self,
        center: VectorLike,
        radius: float,
        heading: float,
        angle: float,
        name: str = "sector",
    ):
        super().__init__(name)
        self.center = Vector.from_any(center)
        self.radius = float(radius)
        self.heading = float(heading)
        self.angle = float(angle)
        if self.radius < 0:
            raise ScenicError("sector radius must be non-negative")
        if self.angle <= 0:
            raise ScenicError("sector angle must be positive")

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return self._contains_xy(point.x, point.y)

    def _contains_xy(self, x: float, y: float) -> bool:
        # offset = point - center; its norm and heading (Vector.angle), on floats.
        ox = x - self.center.x
        oy = y - self.center.y
        norm = math.hypot(ox, oy)
        if norm > self.radius + 1e-9:
            return False
        if self.angle >= 2 * math.pi - 1e-9:
            return True
        if norm < 1e-12:
            return True
        heading = 0.0 if ox == 0.0 and oy == 0.0 else normalize_angle(math.atan2(-ox, oy))
        relative = abs(normalize_angle(heading - self.heading))
        return relative <= self.angle / 2 + 1e-9

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        dx = pts[:, 0] - self.center.x
        dy = pts[:, 1] - self.center.y
        norms = np.hypot(dx, dy)
        in_radius = norms <= self.radius + 1e-9
        if self.angle >= 2 * math.pi - 1e-9:
            return in_radius
        # Heading of the offset (anticlockwise from North), wrapped to (-pi, pi].
        angles = np.arctan2(-dx, dy)
        relative = np.abs(_normalize_angles(angles - self.heading))
        in_cone = (relative <= self.angle / 2 + 1e-9) | (norms < 1e-12)
        return in_radius & in_cone

    def uniform_point(self, rng):
        half = min(self.angle, 2 * math.pi) / 2
        theta = self.heading + rng.uniform(-half, half)
        r = self.radius * math.sqrt(rng.random())
        # theta is a *heading* (anticlockwise from North).
        return self.center + Vector(-r * math.sin(theta), r * math.cos(theta))

    def bounding_box(self):
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def area(self) -> float:
        fraction = min(self.angle, 2 * math.pi) / (2 * math.pi)
        return math.pi * self.radius ** 2 * fraction


class RectangularRegion(Region):
    """A rectangle with arbitrary heading, given by centre, width and height."""

    # Class-level fallback: instances unpickled from artifacts written before
    # the containment frame was cached have no such key in their __dict__.
    _frame = None

    def __init__(
        self,
        center: VectorLike,
        heading: float,
        width: float,
        height: float,
        name: str = "rectangle",
        orientation: Optional[Any] = None,
    ):
        super().__init__(name, orientation)
        self.center = Vector.from_any(center)
        self.heading = float(heading)
        self.width = float(width)
        self.height = float(height)
        self.polygon = Polygon.rectangle(self.center, self.width, self.height, self.heading)
        self._local_frame()

    def _local_frame(self) -> Tuple[float, float, float, float, float, float]:
        """``(cx, cy, cos, sin, half_width, half_height)`` of the containment tests, cached."""
        self._frame = frame = (
            self.center.x,
            self.center.y,
            math.cos(-self.heading),
            math.sin(-self.heading),
            self.width / 2 + 1e-9,
            self.height / 2 + 1e-9,
        )
        return frame

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return self._contains_xy(point.x, point.y)

    def _contains_xy(self, x: float, y: float) -> bool:
        # (point - center).rotated_by(-heading), on floats.
        cx, cy, cos_a, sin_a, half_w, half_h = self._frame or self._local_frame()
        dx = x - cx
        dy = y - cy
        return abs(dx * cos_a - dy * sin_a) <= half_w and abs(dx * sin_a + dy * cos_a) <= half_h

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        cx, cy, cos_h, sin_h, half_w, half_h = self._frame or self._local_frame()
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        local_x = dx * cos_h - dy * sin_h
        local_y = dx * sin_h + dy * cos_h
        return (np.abs(local_x) <= half_w) & (np.abs(local_y) <= half_h)

    def uniform_point(self, rng):
        local = Vector(
            rng.uniform(-self.width / 2, self.width / 2),
            rng.uniform(-self.height / 2, self.height / 2),
        )
        return self.center + local.rotated_by(self.heading)

    def bounding_box(self):
        return self.polygon.bounding_box()

    def area(self) -> float:
        return self.width * self.height


class PolygonalRegion(Region):
    """A union of simple polygons, optionally with a preferred orientation."""

    def __init__(
        self,
        polygons: Sequence[Polygon],
        name: str = "polygonal",
        orientation: Optional[Any] = None,
    ):
        super().__init__(name, orientation)
        polygon_list = list(polygons)
        if not polygon_list:
            raise ScenicError("a polygonal region needs at least one polygon")
        self.polygons: Tuple[Polygon, ...] = tuple(polygon_list)
        self._samplers = [TriangulatedSampler(polygon) for polygon in self.polygons]
        self._areas = [polygon.area for polygon in self.polygons]
        self._total_area = sum(self._areas)
        if self._total_area <= 0:
            raise ScenicError("polygonal region has zero total area")
        self._cumulative: List[float] = []
        running = 0.0
        for polygon_area in self._areas:
            running += polygon_area / self._total_area
            self._cumulative.append(running)
        self._vertex_arrays: Optional[List[np.ndarray]] = None
        self._boxes: Optional[np.ndarray] = None
        self._grid: Optional[SpatialGrid] = None

    #: Unions with at least this many pieces index them in a SpatialGrid, so
    #: each query point is tested against its nearby pieces only.
    _GRID_MIN_POLYGONS = 8

    def _batch_tables(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Lazily built per-piece vertex arrays and (margin-padded) bounds."""
        if self._vertex_arrays is None:
            vertex_arrays = [
                np.array([(v.x, v.y) for v in polygon.vertices], dtype=float)
                for polygon in self.polygons
            ]
            boxes = np.empty((len(self.polygons), 4), dtype=float)
            for index, vertices in enumerate(vertex_arrays):
                boxes[index, 0:2] = vertices.min(axis=0)
                boxes[index, 2:4] = vertices.max(axis=0)
            # The scalar containment test accepts boundary points within a
            # ~1e-9 tolerance; pad the prefilter boxes so it cannot prune them.
            boxes += np.array([-1e-6, -1e-6, 1e-6, 1e-6])
            self._boxes = boxes
            if len(self.polygons) >= self._GRID_MIN_POLYGONS:
                self._grid = SpatialGrid(boxes)
            # Published last: concurrent callers key off _vertex_arrays, so
            # boxes and grid must be visible before it is (parallel sampling
            # shares one region across worker threads).
            self._vertex_arrays = vertex_arrays
        return self._vertex_arrays, self._boxes

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return self._contains_xy(point.x, point.y)

    def _contains_xy(self, x: float, y: float) -> bool:
        polygons = self.polygons
        if len(polygons) >= self._GRID_MIN_POLYGONS:
            # Large unions (road maps) test only the pieces whose grid cell
            # covers the point.  The grid over-approximates (padded bounding
            # boxes), so the boolean verdict is identical to the linear scan.
            self._batch_tables()
            if self._grid is not None:
                for index in self._grid.bucket_for_point(x, y):
                    polygon = polygons[index]
                    if _contains(x, y, polygon._table or polygon.edge_table()):
                        return True
                return False
        for polygon in polygons:
            # The piece's edge table, read directly once built.
            if _contains(x, y, polygon._table or polygon.edge_table()):
                return True
        return False

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        result = np.zeros(len(pts), dtype=bool)
        if len(pts) == 0:
            return result
        vertex_arrays, boxes = self._batch_tables()
        if self._grid is not None:
            point_indices, piece_indices = self._grid.candidates_for_points(pts)
            for piece in np.unique(piece_indices):
                members = point_indices[piece_indices == piece]
                members = members[~result[members]]
                if len(members) == 0:
                    continue
                result[members] = _kernel.points_in_polygon(
                    vertex_arrays[piece], pts[members]
                )
            return result
        for vertices, box in zip(vertex_arrays, boxes):
            pending = (
                ~result
                & (pts[:, 0] >= box[0])
                & (pts[:, 0] <= box[2])
                & (pts[:, 1] >= box[1])
                & (pts[:, 1] <= box[3])
            )
            if pending.any():
                candidates = np.flatnonzero(pending)
                result[candidates] = _kernel.points_in_polygon(vertices, pts[candidates])
        return result

    def uniform_point(self, rng):
        # The first piece whose cumulative share reaches u (the list is
        # non-decreasing), else the last one.
        index = bisect_left(self._cumulative, rng.random())
        return self._samplers[min(index, len(self._samplers) - 1)].sample(rng)

    def bounding_box(self):
        boxes = [polygon.bounding_box() for polygon in self.polygons]
        return BoundingBox(
            min(box.min_x for box in boxes),
            min(box.min_y for box in boxes),
            max(box.max_x for box in boxes),
            max(box.max_y for box in boxes),
        )

    def area(self) -> float:
        return self._total_area

    def intersects_polygon(self, polygon: Polygon) -> bool:
        return any(polygons_intersect(piece, polygon) for piece in self.polygons)

    def restricted_to(self, polygons: Sequence[Polygon], name: Optional[str] = None) -> "PolygonalRegion":
        """A new region made of the given polygons but keeping this region's orientation."""
        return PolygonalRegion(polygons, name or f"{self.name}*", orientation=self.orientation)


class PolylineRegion(Region):
    """A chain (or union of chains) of line segments, e.g. the curb.

    Sampling is uniform by arc length.  The region has a natural preferred
    orientation: the heading of the segment a point lies on.  That
    orientation is exposed both through :meth:`orientation_at` and, when the
    region is constructed, through a segment-based vector field assigned to
    ``self.orientation`` by the caller (the GTA world library does this).
    """

    def __init__(self, chains: Sequence[Sequence[VectorLike]], name: str = "polyline",
                 orientation: Optional[Any] = None):
        super().__init__(name, orientation)
        self.segments: List[Tuple[Vector, Vector]] = []
        for chain in chains:
            points = [Vector.from_any(p) for p in chain]
            for start, end in zip(points[:-1], points[1:]):
                if start.distance_to(end) > 0:
                    self.segments.append((start, end))
        if not self.segments:
            raise ScenicError("a polyline region needs at least one segment")
        self._lengths = [a.distance_to(b) for a, b in self.segments]
        self._total_length = sum(self._lengths)

    def contains_point(self, point: VectorLike, tolerance: float = 0.5) -> bool:
        point = Vector.from_any(point)
        return any(
            segment_distance(point.x, point.y, a.x, a.y, b.x, b.y) <= tolerance
            for a, b in self.segments
        )

    def contains_points_batch(self, points: Any, tolerance: float = 0.5) -> np.ndarray:
        pts = _kernel.as_points(points)
        result = np.zeros(len(pts), dtype=bool)
        if len(pts) == 0:
            return result
        starts = np.array([(a.x, a.y) for a, _b in self.segments], dtype=float)
        ends = np.array([(b.x, b.y) for _a, b in self.segments], dtype=float)
        segments = ends - starts  # (S, 2)
        lengths_sq = (segments ** 2).sum(axis=1)
        # Project every point onto every segment: (N, S) parameters clamped to [0, 1].
        offsets_x = pts[:, 0:1] - starts[None, :, 0]
        offsets_y = pts[:, 1:2] - starts[None, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (offsets_x * segments[None, :, 0] + offsets_y * segments[None, :, 1]) / lengths_sq
        t = np.clip(np.where(lengths_sq > 0, t, 0.0), 0.0, 1.0)
        nearest_dx = offsets_x - t * segments[None, :, 0]
        nearest_dy = offsets_y - t * segments[None, :, 1]
        distances = np.hypot(nearest_dx, nearest_dy)
        return (distances <= tolerance).any(axis=1)

    def uniform_point(self, rng):
        target = rng.random() * self._total_length
        running = 0.0
        for (a, b), length in zip(self.segments, self._lengths):
            if running + length >= target:
                t = (target - running) / length
                return a + (b - a) * t
            running += length
        a, b = self.segments[-1]
        return b

    def orientation_at(self, point: VectorLike) -> float:
        """Heading of the nearest segment at *point*."""
        point = Vector.from_any(point)
        x, y = point.x, point.y
        best_segment = min(
            self.segments, key=lambda seg: segment_distance(x, y, seg[0].x, seg[0].y, seg[1].x, seg[1].y)
        )
        return (best_segment[1] - best_segment[0]).angle()

    def bounding_box(self):
        points = [p for segment in self.segments for p in segment]
        return BoundingBox.of_points(points)

    def length(self) -> float:
        return self._total_length

    def area(self) -> float:
        return 0.0


class PointSetRegion(Region):
    """A finite set of points (e.g. parking spots); sampling picks one uniformly."""

    def __init__(self, points: Iterable[VectorLike], name: str = "points",
                 orientation: Optional[Any] = None, tolerance: float = 1e-6):
        super().__init__(name, orientation)
        self.points = [Vector.from_any(p) for p in points]
        if not self.points:
            raise ScenicError("a point-set region needs at least one point")
        self.tolerance = tolerance

    def contains_point(self, point: VectorLike) -> bool:
        point = Vector.from_any(point)
        return any(point.distance_to(p) <= self.tolerance for p in self.points)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        if len(pts) == 0:
            return np.zeros(0, dtype=bool)
        anchors = np.array([(p.x, p.y) for p in self.points], dtype=float)
        distances = np.hypot(
            pts[:, 0:1] - anchors[None, :, 0], pts[:, 1:2] - anchors[None, :, 1]
        )
        return (distances <= self.tolerance).any(axis=1)

    def uniform_point(self, rng):
        return rng.choice(self.points)

    def bounding_box(self):
        return BoundingBox.of_points(self.points)

    def area(self) -> float:
        return 0.0


class IntersectionRegion(Region):
    """Intersection of two regions, sampled by rejection from the smaller one."""

    def __init__(self, first: Region, second: Region, name: Optional[str] = None,
                 max_attempts: int = 200):
        super().__init__(name or f"({first.name} ∩ {second.name})",
                         first.orientation or second.orientation)
        self.first = first
        self.second = second
        self.max_attempts = max_attempts

    def _sampling_order(self) -> Tuple[Region, Region]:
        """Sample from the region with the smaller (known) area, test the other."""
        try:
            first_area = self.first.area()
        except (NotImplementedError, ScenicError):
            first_area = math.inf
        try:
            second_area = self.second.area()
        except (NotImplementedError, ScenicError):
            second_area = math.inf
        if second_area < first_area:
            return self.second, self.first
        return self.first, self.second

    def contains_point(self, point: VectorLike) -> bool:
        return self.first.contains_point(point) and self.second.contains_point(point)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        return self.first.contains_points_batch(pts) & self.second.contains_points_batch(pts)

    def uniform_point(self, rng):
        source, filter_region = self._sampling_order()
        for _ in range(self.max_attempts):
            candidate = source.uniform_point(rng)
            if filter_region.contains_point(candidate):
                return candidate
        raise RejectSample(f"could not sample a point in {self.name}")

    def bounding_box(self):
        first_box = self.first.bounding_box()
        second_box = self.second.bounding_box()
        if first_box is None:
            return second_box
        if second_box is None:
            return first_box
        return BoundingBox(
            max(first_box.min_x, second_box.min_x),
            max(first_box.min_y, second_box.min_y),
            min(first_box.max_x, second_box.max_x),
            min(first_box.max_y, second_box.max_y),
        )


class DifferenceRegion(Region):
    """Points of ``first`` that are not in ``second`` (rejection sampled)."""

    def __init__(self, first: Region, second: Region, name: Optional[str] = None,
                 max_attempts: int = 200):
        super().__init__(name or f"({first.name} \\ {second.name})", first.orientation)
        self.first = first
        self.second = second
        self.max_attempts = max_attempts

    def contains_point(self, point: VectorLike) -> bool:
        return self.first.contains_point(point) and not self.second.contains_point(point)

    def contains_points_batch(self, points: Any) -> np.ndarray:
        pts = _kernel.as_points(points)
        return self.first.contains_points_batch(pts) & ~self.second.contains_points_batch(pts)

    def uniform_point(self, rng):
        for _ in range(self.max_attempts):
            candidate = self.first.uniform_point(rng)
            if not self.second.contains_point(candidate):
                return candidate
        raise RejectSample(f"could not sample a point in {self.name}")

    def bounding_box(self):
        return self.first.bounding_box()

    def area(self) -> float:
        return self.first.area()


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.utils.normalize_angle`: wrap into (-pi, pi]."""
    wrapped = np.mod(angles, 2 * math.pi)
    return np.where(wrapped > math.pi, wrapped - 2 * math.pi, wrapped)


__all__ = [
    "Region",
    "EverywhereRegion",
    "EmptyRegion",
    "everywhere",
    "nowhere",
    "CircularRegion",
    "SectorRegion",
    "RectangularRegion",
    "PolygonalRegion",
    "PolylineRegion",
    "PointSetRegion",
    "IntersectionRegion",
    "DifferenceRegion",
    "PointInRegionDistribution",
]
