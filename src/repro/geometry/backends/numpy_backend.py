"""The numpy reference backend: the kernel's original vectorized code.

This is the implementation the golden corpus was recorded against, moved
here verbatim from :mod:`repro.geometry.kernel`.  It is the default active
backend and the bit-identical anchor every other backend is differentially
tested against: the separating-axis test uses closed intervals (touching
counts as overlap, exactly like ``polygons_intersect``) and
:meth:`NumpyBackend.points_in_polygon` replicates the scalar ray-casting
code operation for operation.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import KernelBackend


class NumpyBackend(KernelBackend):
    """Pure-numpy reference implementation (always available, default)."""

    name = "numpy"
    priority = 10

    def points_in_polygon(self, vertices: Any, points: Any) -> np.ndarray:
        """Vectorized ray casting; boundary points count as inside.

        The scalar reference, :func:`repro.geometry.polygon.point_in_polygon`
        (the edge-table loop behind every ``Polygon.contains_point``), evaluated
        for all points at once with one numpy pass per polygon edge that
        mirrors the edge table's on-edge and ray-crossing expressions.
        """
        from ..kernel import as_points

        vertices = np.asarray(vertices, dtype=float)
        pts = as_points(points)
        x, y = pts[:, 0], pts[:, 1]
        count = len(vertices)
        inside = np.zeros(len(pts), dtype=bool)
        on_edge = np.zeros(len(pts), dtype=bool)
        j = count - 1
        for i in range(count):
            xi, yi = vertices[i]
            xj, yj = vertices[j]
            # Boundary check (the edge table's on-edge test, a=v_i, b=v_j).
            edge_x, edge_y = xj - xi, yj - yi
            length_sq = edge_x * edge_x + edge_y * edge_y
            tolerance = 1e-9 * max(1.0, float(np.hypot(edge_x, edge_y)))
            cross = edge_x * (y - yi) - edge_y * (x - xi)
            dot = (x - xi) * edge_x + (y - yi) * edge_y
            on_edge |= (np.abs(cross) <= tolerance) & (dot >= -1e-9) & (dot <= length_sq + 1e-9)
            # Ray crossing (same expression as the scalar code, v_i/v_j swapped
            # roles preserved: slope_x anchored at v_j).
            crosses = (yi > y) != (yj > y)
            if crosses.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope_x = xj + (y - yj) * (xi - xj) / (yi - yj)
                inside ^= crosses & (x < slope_x)
            j = i
        return inside | on_edge

    def pairwise_collisions(
        self,
        corners: Any,
        collidable: Optional[np.ndarray] = None,
        grid_threshold: Optional[int] = None,
    ) -> np.ndarray:
        """All overlapping object pairs as an ``(M, 2)`` array of index pairs.

        *corners* is ``(N, 4, 2)``; *collidable* optionally masks objects out of
        the check (``allowCollisions`` objects).  For ``N >= grid_threshold`` the
        candidate pairs come from a uniform :class:`SpatialGrid` instead of the
        full upper triangle, pruning the O(n²) enumeration.  Pairs are returned
        in lexicographic order with ``i < j``, matching the scalar nested loop.
        """
        from ..kernel import GRID_PAIR_THRESHOLD, aabbs_of, quads_overlap

        if grid_threshold is None:
            grid_threshold = GRID_PAIR_THRESHOLD
        corners = np.asarray(corners, dtype=float)
        n = corners.shape[0]
        if n < 2:
            return np.zeros((0, 2), dtype=int)
        if collidable is None:
            collidable_mask = np.ones(n, dtype=bool)
        else:
            collidable_mask = np.asarray(collidable, dtype=bool)
        boxes = aabbs_of(corners)
        if n >= grid_threshold:
            from ..spatial_index import SpatialGrid

            pairs = SpatialGrid(boxes).candidate_pairs()
        else:
            row, col = np.triu_indices(n, k=1)
            pairs = np.stack([row, col], axis=1)
        if len(pairs) == 0:
            return np.zeros((0, 2), dtype=int)
        i, j = pairs[:, 0], pairs[:, 1]
        keep = collidable_mask[i] & collidable_mask[j]
        # Closed-interval AABB prefilter, identical to BoundingBox.intersects.
        keep &= ~(
            (boxes[i, 2] < boxes[j, 0])
            | (boxes[j, 2] < boxes[i, 0])
            | (boxes[i, 3] < boxes[j, 1])
            | (boxes[j, 3] < boxes[i, 1])
        )
        pairs = pairs[keep]
        if len(pairs) == 0:
            return pairs
        hits = quads_overlap(corners[pairs[:, 0]], corners[pairs[:, 1]])
        return pairs[hits]

    def batch_collision_free(
        self, corners: Any, collidable: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Collision-freedom of ``K`` candidate scenes at once.

        *corners* is ``(K, N, 4, 2)`` (same object count per candidate, as
        produced by concretizing one scenario ``K`` times); *collidable* is an
        optional ``(K, N)`` mask.  Returns a boolean ``(K,)`` array that is True
        where no collidable pair overlaps — the bulk form of
        ``no_pairwise_collisions`` used by the vectorized sampling strategy.
        """
        from ..kernel import quads_overlap

        corners = np.asarray(corners, dtype=float)
        k, n = corners.shape[0], corners.shape[1]
        if k == 0:
            return np.zeros(0, dtype=bool)
        if n < 2:
            return np.ones(k, dtype=bool)
        row, col = np.triu_indices(n, k=1)
        # Cheap AABB prefilter over every (candidate, pair): the exact SAT only
        # runs on pairs whose bounds overlap — usually a small fraction.
        mins = corners.min(axis=2)  # (K, N, 2)
        maxs = corners.max(axis=2)
        candidate = ~(
            (maxs[:, row, 0] < mins[:, col, 0])
            | (maxs[:, col, 0] < mins[:, row, 0])
            | (maxs[:, row, 1] < mins[:, col, 1])
            | (maxs[:, col, 1] < mins[:, row, 1])
        )  # (K, P)
        if collidable is not None:
            mask = np.asarray(collidable, dtype=bool)
            candidate &= mask[:, row] & mask[:, col]
        scene_index, pair_index = np.nonzero(candidate)
        if len(scene_index) == 0:
            return np.ones(k, dtype=bool)
        hits = quads_overlap(
            corners[scene_index, row[pair_index]], corners[scene_index, col[pair_index]]
        )
        free = np.ones(k, dtype=bool)
        free[scene_index[hits]] = False
        return free


__all__ = ["NumpyBackend"]
