"""Ground-truth depth labels of living faces.

A living sample's label is a GRID_SIZE x GRID_SIZE float array in [0, 1]
built from an (n, 3) facial vertex array over its own x/y extent (nearest
point 1, farthest point 0, background 0). A spoof's label is the all-zero
grid and the face mask is a living label's positive cells; both are plain
array expressions (see model.demo_labels). A parametric dome surface stands
in for a real face reconstruction so the whole path stays deterministic and
mesh free.
"""

from __future__ import annotations

import numpy as np

from .supervision import CONTRAST_OFFSETS

GRID_SIZE = 32


def synthesize_face_surface(*, amplitude: float, center: tuple[float, float],
                            radius: float, grid_size: int) -> np.ndarray:
    """Deterministic dome-shaped (n, 3) vertex cloud, a living face proxy.

    Samples a grid_size x grid_size lattice over the square circumscribing the
    dome; z follows a hemisphere profile (amplitude at the apex, 0 outside the
    radius).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    cx, cy = center
    xs = np.linspace(cx - radius, cx + radius, grid_size)
    ys = np.linspace(cy - radius, cy + radius, grid_size)
    gx, gy = np.meshgrid(xs, ys)
    x = gx.ravel()
    y = gy.ravel()
    r2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius ** 2
    z = amplitude * np.sqrt(np.clip(1.0 - r2, 0.0, None))
    return np.column_stack([x, y, z])


def _cell_indices(coords: np.ndarray) -> np.ndarray:
    """Each coordinate's cell among GRID_SIZE cells spanning their extent."""
    low, high = coords.min(), coords.max()
    if high <= low:
        raise ValueError(f"vertex extent must be positive, got [{low}, {high}]")
    idx = np.floor((coords - low) / (high - low) * GRID_SIZE).astype(int)
    return np.clip(idx, 0, GRID_SIZE - 1)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_mask(occupied: np.ndarray) -> np.ndarray:
    """Cells whose centers lie inside the convex hull of the occupied cells.

    Exact on the integer lattice: Andrew's monotone chain over each occupied
    row's end cells; a center is inside when its integer cross product with
    every counter-clockwise edge is >= 0. Collinear cells are returned as is.
    """
    cells = np.argwhere(occupied)  # row-major, so each row's cells are adjacent
    new_row = np.diff(cells[:, 0], prepend=-1, append=occupied.shape[0]) != 0
    points = cells[new_row[:-1] | new_row[1:]].tolist()
    hull = []
    for chain in (points, points[::-1]):
        half = []
        for p in chain:
            while len(half) > 1 and _cross(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        hull += half[:-1]
    if len(hull) < 3:
        return occupied.copy()
    a = np.array(hull).T[:, :, None, None]
    d = np.roll(a, -1, axis=1) - a
    i, j = np.indices(occupied.shape)
    return (d[0] * (j - a[1]) - d[1] * (i - a[0]) >= 0).all(axis=0)


def _fill_holes(values: np.ndarray, filled: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Average unfilled in-hull cells from their filled 8-neighbors, repeatedly.

    Each pass fills every hole that touches a filled cell, so the unfilled
    count strictly decreases until none remain. If a pass stalls (possible
    only when the rasterized hull is disconnected), the leftovers get the mean
    of all filled cells so the loop always terminates.
    """
    values = values.copy()
    filled = filled.copy()
    grid = values.shape[0]
    while True:
        holes = hull & ~filled
        if not holes.any():
            return values
        # Offset (di, dj) reads neighbour p - (di, dj), at p + (1 - di, 1 - dj)
        # in the zero-padded copies, so cells outside the grid count as
        # unfilled. The order of the offsets fixes the order of the sum.
        vals = np.pad(np.where(filled, values, 0.0), 1)
        fill = np.pad(filled, 1)
        acc = np.zeros_like(values)
        cnt = np.zeros((grid, grid))
        for di, dj in CONTRAST_OFFSETS:
            acc += vals[1 - di:1 - di + grid, 1 - dj:1 - dj + grid]
            cnt += fill[1 - di:1 - di + grid, 1 - dj:1 - dj + grid]
        ready = holes & (cnt > 0)
        if not ready.any():
            values[holes] = values[filled].mean()
            return values
        values[ready] = acc[ready] / cnt[ready]
        filled |= ready


def generate_living_depth(vertices: np.ndarray) -> np.ndarray:
    """Splat an (n, 3) vertex cloud onto the grid as a living label.

    Each row is one vertex's (x, y, z), z toward the camera. The
    GRID_SIZE x GRID_SIZE grid spans the vertices' x/y extent. Each vertex
    lands in its nearest cell; a cell keeps the z closest to the camera.
    Holes inside the occupied cells' exact lattice hull are filled by
    iterative neighbor averaging, then values are min-max normalized: nearest
    point 1, farthest 0, cells outside the hull 0.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"vertices must be an (n, 3) array, got shape {v.shape}")
    if v.shape[0] < 3:
        raise ValueError(f"need at least 3 vertices, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertices contain non-finite coordinates")
    cols, rows = _cell_indices(v[:, 0]), _cell_indices(v[:, 1])
    splat = np.full((GRID_SIZE, GRID_SIZE), -np.inf)
    np.maximum.at(splat, (rows, cols), v[:, 2])
    occupied = splat > -np.inf

    z_low = splat[occupied].min()
    z_high = splat[occupied].max()
    if z_high - z_low == 0:
        raise ValueError("splatted depth extent is zero; the surface is a plane")

    hull = _hull_mask(occupied)
    values = _fill_holes(np.where(occupied, splat, 0.0), occupied, hull)
    normalized = np.where(hull, (values - z_low) / (z_high - z_low), 0.0)
    return np.clip(normalized, 0.0, 1.0)
