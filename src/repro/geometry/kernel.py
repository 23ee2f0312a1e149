"""Vectorized batch-geometry kernel for the sampling hot path.

The scene-improvisation loop (Sec. 5) spends essentially all of its time on
three predicates: is a point inside a region, is an object's bounding box
inside a region, and do two objects' bounding boxes overlap.  The scalar
implementations in :mod:`repro.geometry.polygon` and
:mod:`repro.core.regions` evaluate them one point / one pair at a time in
pure Python; this module evaluates them over whole *batches* with numpy:

* :func:`contains_points` — membership of ``N`` points in a region at once,
  dispatching to the region's ``contains_points_batch`` (every built-in
  region implements a genuinely vectorized one; the :class:`~repro.core.regions.Region`
  base class provides a scalar fallback so third-party regions keep
  working).
* :func:`objects_contained` — containment of ``N`` objects given their
  corner arrays, using the same corners-plus-edge-midpoints test as
  ``Region.contains_object``.
* :func:`pairwise_collisions` — all overlapping pairs among ``N`` convex
  quadrilaterals via a batched separating-axis test, with an AABB prefilter
  and a :class:`~repro.geometry.spatial_index.SpatialGrid` pruning the
  O(n²) pair enumeration for large ``N``.

The predicates agree with the scalar implementations: the separating-axis
test uses closed intervals (touching counts as overlap, exactly like
``polygons_intersect``) and :func:`points_in_polygon` replicates the scalar
ray-casting code operation for operation, so results are bit-identical away
from ~1-ulp boundary coincidences.

Since PR 9 the *compute* lives in pluggable backends
(:mod:`repro.geometry.backends`): this module keeps the coercion helpers and
region dispatch, while :func:`points_in_polygon`, :func:`objects_contained`,
:func:`pairwise_collisions` and :func:`batch_collision_free` forward to the
process-global active backend (numpy by default — same code as before, moved
verbatim, so results are unchanged bit for bit).  Select backends globally
with :func:`repro.geometry.backends.use_backend` or per engine with
``SamplerEngine(..., backend=...)``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

#: Object counts below this skip the spatial grid: enumerating all pairs is
#: cheaper than building the index.
GRID_PAIR_THRESHOLD = 16


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------


def as_points(points: Any) -> np.ndarray:
    """Coerce vectors / pairs / arrays into an ``(N, 2)`` float array."""
    if isinstance(points, np.ndarray):
        if points.size == 0:
            return points.reshape(0, 2).astype(float, copy=False)
        return points.reshape(-1, 2).astype(float, copy=False)
    rows: List = []
    for point in points:
        if hasattr(point, "x"):
            rows.append((point.x, point.y))
        else:
            rows.append((point[0], point[1]))
    if not rows:
        return np.zeros((0, 2), dtype=float)
    return np.asarray(rows, dtype=float)


def corners_array(objects: Sequence[Any]) -> np.ndarray:
    """The bounding-box corners of concrete objects as an ``(N, 4, 2)`` array.

    Corner order matches ``Object.corners``: front-right first, then
    anticlockwise — so midpoint and SAT results line up with the scalar path.
    """
    n = len(objects)
    if n == 0:
        return np.zeros((0, 4, 2), dtype=float)
    positions = np.empty((n, 2), dtype=float)
    headings = np.empty(n, dtype=float)
    half_w = np.empty(n, dtype=float)
    half_h = np.empty(n, dtype=float)
    for index, scenic_object in enumerate(objects):
        position = scenic_object.position
        if hasattr(position, "x"):
            positions[index, 0] = position.x
            positions[index, 1] = position.y
        else:
            positions[index, 0] = position[0]
            positions[index, 1] = position[1]
        headings[index] = float(scenic_object.heading)
        half_w[index] = float(scenic_object.width) / 2.0
        half_h[index] = float(scenic_object.height) / 2.0
    # Local corner offsets (front-right, front-left, back-left, back-right).
    local_x = np.stack([half_w, -half_w, -half_w, half_w], axis=1)
    local_y = np.stack([half_h, half_h, -half_h, -half_h], axis=1)
    cos_h = np.cos(headings)[:, None]
    sin_h = np.sin(headings)[:, None]
    world_x = local_x * cos_h - local_y * sin_h + positions[:, 0:1]
    world_y = local_x * sin_h + local_y * cos_h + positions[:, 1:2]
    return np.stack([world_x, world_y], axis=2)


def object_test_points(corners: np.ndarray) -> np.ndarray:
    """Corners plus edge midpoints: the ``(N, 8, 2)`` containment test points.

    Matches ``Region.contains_object``: four corners and the midpoint of each
    bounding-box edge (the midpoints catch boxes straddling concave notches
    that a corner-only test wrongly accepts).
    """
    corners = np.asarray(corners, dtype=float)
    midpoints = (corners + np.roll(corners, -1, axis=1)) / 2.0
    return np.concatenate([corners, midpoints], axis=1)


# ---------------------------------------------------------------------------
# point containment
# ---------------------------------------------------------------------------


def contains_points(region: Any, points: Any) -> np.ndarray:
    """Membership of each point in *region* as a boolean array.

    Dispatches to ``region.contains_points_batch`` when present (all
    built-in regions), otherwise falls back to looping the region's scalar
    ``contains_point`` — so the kernel accepts any region-like object.
    """
    pts = as_points(points)
    batch = getattr(region, "contains_points_batch", None)
    if batch is not None:
        return np.asarray(batch(pts), dtype=bool)
    return np.fromiter(
        (bool(region.contains_point((x, y))) for x, y in pts), dtype=bool, count=len(pts)
    )


def points_in_polygon(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized ray casting; boundary points count as inside.

    Dispatches to the active backend.  The numpy reference implementation
    (:class:`~repro.geometry.backends.numpy_backend.NumpyBackend`) evaluates
    the scalar reference, :func:`repro.geometry.polygon.point_in_polygon`
    (the edge-table loop behind every ``Polygon.contains_point``), for all
    points at once with one numpy pass per polygon edge.
    """
    from . import backends

    return backends.active_backend().points_in_polygon(vertices, points)


# ---------------------------------------------------------------------------
# object containment
# ---------------------------------------------------------------------------


def region_supports_batch_objects(region: Any) -> bool:
    """True when *region* uses the default corners-plus-midpoints object test.

    Regions overriding ``contains_object`` (e.g. ``EverywhereRegion``) carry
    their own semantics; the kernel defers to the scalar method for those.
    """
    from ..core.regions import Region  # deferred: core imports this module

    contains = getattr(type(region), "contains_object", None)
    return contains is Region.contains_object


def objects_contained(region: Any, corners: np.ndarray) -> np.ndarray:
    """Containment of ``N`` objects (given their ``(N, 4, 2)`` corners).

    Evaluates the default ``Region.contains_object`` semantics — all four
    corners and all four edge midpoints inside — in one batched containment
    query, dispatched to the active backend.  Only valid for regions where
    :func:`region_supports_batch_objects` holds; callers keep the scalar
    path otherwise.
    """
    from . import backends

    return backends.active_backend().objects_contained(region, corners)


# ---------------------------------------------------------------------------
# pairwise collisions
# ---------------------------------------------------------------------------


def quads_overlap(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Batched separating-axis overlap test for convex quadrilateral pairs.

    *first* and *second* are ``(M, 4, 2)`` corner arrays; the result is a
    boolean ``(M,)`` array.  Intervals are closed (projections merely touching
    count as overlap), matching ``polygons_intersect``.  Degenerate
    zero-length edges produce zero axes, which can never separate — safe.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    edges = np.concatenate(
        [np.roll(first, -1, axis=1) - first, np.roll(second, -1, axis=1) - second], axis=1
    )  # (M, 8, 2)
    axes = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)  # outward-ish normals
    projections_first = axes @ first.transpose(0, 2, 1)  # (M, 8, 4)
    projections_second = axes @ second.transpose(0, 2, 1)
    separated = (projections_first.max(axis=2) < projections_second.min(axis=2)) | (
        projections_second.max(axis=2) < projections_first.min(axis=2)
    )
    return ~separated.any(axis=1)


def aabbs_of(corners: np.ndarray) -> np.ndarray:
    """Axis-aligned bounds of each quad: ``(N, 4)`` rows of (minx, miny, maxx, maxy)."""
    corners = np.asarray(corners, dtype=float)
    if corners.shape[0] == 0:
        return np.zeros((0, 4), dtype=float)
    return np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)


def pairwise_collisions(
    corners: np.ndarray,
    collidable: Optional[np.ndarray] = None,
    grid_threshold: int = GRID_PAIR_THRESHOLD,
) -> np.ndarray:
    """All overlapping object pairs as an ``(M, 2)`` array of index pairs.

    *corners* is ``(N, 4, 2)``; *collidable* optionally masks objects out of
    the check (``allowCollisions`` objects).  For ``N >= grid_threshold`` the
    candidate pairs come from a uniform :class:`SpatialGrid` instead of the
    full upper triangle, pruning the O(n²) enumeration.  Pairs are returned
    in lexicographic order with ``i < j``, matching the scalar nested loop.
    Dispatches to the active backend.
    """
    from . import backends

    return backends.active_backend().pairwise_collisions(
        corners, collidable, grid_threshold=grid_threshold
    )


def batch_collision_free(
    corners: np.ndarray, collidable: Optional[np.ndarray] = None
) -> np.ndarray:
    """Collision-freedom of ``K`` candidate scenes at once.

    *corners* is ``(K, N, 4, 2)`` (same object count per candidate, as
    produced by concretizing one scenario ``K`` times); *collidable* is an
    optional ``(K, N)`` mask.  Returns a boolean ``(K,)`` array that is True
    where no collidable pair overlaps — the bulk form of
    ``no_pairwise_collisions`` used by the vectorized sampling strategy.
    Dispatches to the active backend.
    """
    from . import backends

    return backends.active_backend().batch_collision_free(corners, collidable)


__all__ = [
    "GRID_PAIR_THRESHOLD",
    "as_points",
    "corners_array",
    "object_test_points",
    "contains_points",
    "points_in_polygon",
    "region_supports_batch_objects",
    "objects_contained",
    "quads_overlap",
    "aabbs_of",
    "pairwise_collisions",
    "batch_collision_free",
]
