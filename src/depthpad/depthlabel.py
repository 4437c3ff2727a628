"""Ground-truth depth labels of living faces.

A living sample's label is a GRID_SIZE x GRID_SIZE float array in [0, 1]:
an (n, 3) facial vertex array splatted over its own x/y extent, then
min-max normalized (nearest point 1, farthest point 0). The cloud is
expected to be dense, with at least one vertex per cell, as a dense face
reconstruction is; the demo's 65x65 lattice gives two samples per cell
along each axis. A cell that no vertex lands in is background 0. A spoof's
label is the all-zero grid and the face mask is a living label's positive
cells; both are plain array expressions (see model.demo_labels). A
parametric dome surface stands in for a real face reconstruction so the
whole path stays deterministic and mesh free.
"""

from __future__ import annotations

import numpy as np

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


def generate_living_depth(vertices: np.ndarray) -> np.ndarray:
    """Splat an (n, 3) vertex cloud onto the grid as a living label.

    Each row is one vertex's (x, y, z), z toward the camera. The
    GRID_SIZE x GRID_SIZE grid spans the vertices' x/y extent. Each vertex
    lands in its nearest cell; a cell keeps the z closest to the camera.
    Occupied cells are min-max normalized: nearest point 1, farthest 0.
    The cloud should hold at least one vertex per cell, as the demo's 65x65
    lattice does with two samples per cell along each axis; a cell that no
    vertex lands in is background 0.
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
    z = splat[occupied]
    z_low, z_high = z.min(), z.max()
    if z_high - z_low == 0:
        raise ValueError("splatted depth extent is zero; the surface is a plane")
    label = np.zeros_like(splat)
    label[occupied] = (z - z_low) / (z_high - z_low)
    return label
