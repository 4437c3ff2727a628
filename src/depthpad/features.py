"""Flow-guided feature computations on H x W x C grids.

Forward passes only: replicate-padded convolution, Sobel spatial gradients,
the flow-orthogonality residual (whose temporal gradient is the frame
difference), and the five-branch motion block. off_sequence is the one
motion-block entry: it takes a (T, H, W, C) frame sequence and yields the
T - 1 (H, W, Cout) blocks one at a time. Block t fuses, with a 3x3 kernel,
the concatenation of a reduced feature map, both frames' spatial gradients
and the temporal gradient. The block is linear, so the 1x1 reduce is folded
into the fuse kernel: each frame gets one Sobel, and each pair one conv over
both frames' input channels, which pays while the input is narrower than
the reduced map.

The Sobel stencils carry their conventional gain: a unit ramp reads 8, not 1,
so velocity vectors fed to off_vector_residual must absorb that factor.
Tensors are plain numpy arrays shaped (height, width, channels); a frame
sequence is one array with a leading time axis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

SOBEL_GAIN = 8.0  # response of the 3x3 stencil on a unit ramp


def _require_hwc(name: str, x: np.ndarray, stacked: bool = False) -> np.ndarray:
    """x as a finite float array shaped (H, W, C), or (T, H, W, C) if stacked."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 + stacked:
        axes = "(T, H, W, C)" if stacked else "(H, W, C)"
        raise ValueError(f"{name} must be {axes}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def _pad(x: np.ndarray) -> np.ndarray:
    """x (H, W, C) replicate-padded by one cell on each side.

    One allocation and slice assignment, equal bit for bit to numpy's pad in
    "edge" mode: edge rows are copied first, then edge columns (corners
    included) from the padded columns. The ConvGRU zero-pads in its own
    buffer.
    """
    h, w, c = x.shape
    out = np.empty((h + 2, w + 2, c), dtype=x.dtype)
    out[1:-1, 1:-1] = x
    out[0, 1:-1] = x[0]
    out[-1, 1:-1] = x[-1]
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]
    return out


def _correlate(padded: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a padded (H+kH-1, W+kW-1, Cin) tensor.

    One (H, W, Cin) @ (Cin, Cout) matmul per tap, summed over the taps in
    row-major order starting from the (0, 0) tap.
    """
    kh, kw = kernel.shape[:2]
    h, w = padded.shape[0] - kh + 1, padded.shape[1] - kw + 1
    out = padded[:h, :w] @ kernel[0, 0]
    for a in range(kh):
        for b in range(kw):
            if a or b:
                out += padded[a:a + h, b:b + w] @ kernel[a, b]
    return out


def conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size stride-1 cross-correlation mixing channels, replicate-padded.

    x is (H, W, Cin), kernel is (kH, kW, Cin, Cout) with odd kH and kW. The
    input is padded by numpy's pad in "edge" mode, by any widths, and the
    taps are summed as _correlate sums them.
    """
    x = _require_hwc("input", x)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 4:
        raise ValueError(f"kernel must be (kH, kW, Cin, Cout), got shape {kernel.shape}")
    kh, kw, cin, _ = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd for same padding, got {kh}x{kw}")
    if cin != x.shape[2]:
        raise ValueError(f"kernel expects {cin} input channels, tensor has {x.shape[2]}")
    widths = ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0))
    return _correlate(np.pad(x, widths, mode="edge"), kernel)


def spatial_gradient(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Sobel responses (gx, gy) with replicate padding.

    Computed as neighbor differences followed by the 1-2-1 smoothing sum, so a
    constant input yields exactly zero.
    """
    x = _require_hwc("input", x)
    h, w, _ = x.shape
    if h < 3 or w < 3:
        raise ValueError(f"spatial gradient needs at least 3x3 input, got {h}x{w}")
    p = _pad(x)
    dx = p[:, 2:, :] - p[:, :-2, :]          # east minus west, (H+2, W, C)
    gx = dx[:-2] + 2.0 * dx[1:-1] + dx[2:]
    dy = p[2:, :, :] - p[:-2, :, :]          # south minus north, (H, W+2, C)
    gy = dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:]
    return gx, gy


def off_vector_residual(x_t: np.ndarray, x_t1: np.ndarray,
                        v: tuple[float, float]) -> np.ndarray:
    """Per-cell deviation from brightness constancy, gx*vx + gy*vy + gt.

    gt is the temporal gradient, the frame difference x_t1 - x_t, so a zero
    v gives exactly that difference. The residual vanishes in the interior
    when x_t1 is x_t translated by the flow and v is expressed in Sobel-gain
    units (true displacement divided by SOBEL_GAIN).
    """
    x_t = _require_hwc("x_t", x_t)
    x_t1 = _require_hwc("x_t1", x_t1)
    if x_t.shape != x_t1.shape:
        raise ValueError(f"frame shapes differ: {x_t.shape} vs {x_t1.shape}")
    gx, gy = spatial_gradient(x_t)
    vx, vy = v
    return gx * vx + gy * vy + (x_t1 - x_t)


@dataclass(frozen=True)
class OffBlockWeights:
    """Weights of one motion block.

    reduce_1x1 maps the incoming features to the working width Cr; fuse_3x3
    consumes the 6 * Cr channels of the five branches
    [reduced(t), gx(t), gy(t), gx(t+dt), gy(t+dt), temporal].
    """

    reduce_1x1: np.ndarray
    fuse_3x3: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.reduce_1x1, dtype=float)
        f = np.asarray(self.fuse_3x3, dtype=float)
        if r.ndim != 4 or r.shape[:2] != (1, 1):
            raise ValueError(f"reduce kernel must be (1, 1, Cin, Cr), got {r.shape}")
        if f.ndim != 4 or f.shape[:2] != (3, 3):
            raise ValueError(f"fuse kernel must be (3, 3, Ccat, Cout), got {f.shape}")
        if f.shape[2] != 6 * r.shape[3]:
            raise ValueError(f"fuse kernel consumes {f.shape[2]} channels but "
                             f"the branches produce {6 * r.shape[3]}")
        object.__setattr__(self, "reduce_1x1", r)
        object.__setattr__(self, "fuse_3x3", f)

    @classmethod
    def seeded(cls, in_channels: int, reduce_channels: int,
               out_channels: int, *, seed: int) -> "OffBlockWeights":
        """Random weights scaled by fan-in, reproducible from the seed."""
        rng = np.random.default_rng(seed)
        reduce = rng.standard_normal((1, 1, in_channels, reduce_channels))
        reduce /= np.sqrt(in_channels)
        cat = 6 * reduce_channels
        fuse = rng.standard_normal((3, 3, cat, out_channels)) / np.sqrt(9 * cat)
        return cls(reduce, fuse)


def _motion_stack(x: np.ndarray) -> np.ndarray:
    """Frame x's (H + 2, W + 2, 3C) motion input, [x, Sx x, Sy x] on the
    channel axis, replicate-padded by one cell as conv2d pads a 3x3 input."""
    return _pad(np.concatenate([x, *spatial_gradient(x)], axis=2))


def _pair_blocks(held: np.ndarray, frames: np.ndarray, folded: np.ndarray
                 ) -> Iterator[np.ndarray]:
    """One folded correlation per pair; held is the motion stack of the
    frame before frames[0], and two stacks are alive at a time."""
    for x in frames:
        stack = _motion_stack(x)
        yield _correlate(np.concatenate([held, stack], axis=2), folded)
        held = stack


def off_sequence(frames: np.ndarray, weights: OffBlockWeights
                 ) -> Iterator[np.ndarray]:
    """Motion blocks for every consecutive pair of a (T, H, W, C) frame stack.

    Returns an iterator over the T - 1 (H, W, Cout) blocks, block t fusing
    the branches of frames t and t + 1 with the 3x3 kernel; no nonlinearity
    follows. The inputs are checked by this call, and each block is
    computed when it is read, so a consumer that folds them holds one block,
    not a stack.

    The block is linear, and the 1x1 reduce R commutes with replicate padding
    and with the per-channel Sobel, so it is computed folded: with F0..F5 the
    fuse slices of [r_t, gx_t, gy_t, gx_t1, gy_t1, r_t1 - r_t], block t is one
    conv of [x_t, Sx x_t, Sy x_t, x_t1, Sx x_t1, Sy x_t1] with the kernel
    [(F0 - F5) R, F1 R, F2 R, F5 R, F3 R, F4 R] stacked on the input axis.
    Replicate padding commutes with the channel concatenation, so that conv
    is the valid correlation of the two frames' padded [x, Sx x, Sy x] side
    by side. Each frame gets one Sobel, kept for the next pair. This costs
    6 * Cin * Cout multiply-adds per pixel and tap per pair against
    6 * Cr * Cout unfolded, so it pays while the input width Cin is below
    the reduce width Cr.
    """
    frames = _require_hwc("frames", frames, stacked=True)
    n_frames, _, _, channels = frames.shape
    if n_frames < 2:
        raise ValueError(f"a motion sequence needs at least 2 frames, got {n_frames}")
    reduce, fuse = weights.reduce_1x1[0, 0], weights.fuse_3x3
    if channels != reduce.shape[0]:
        # Counted as the folded kernel sees a pair's stacked [x, Sx x, Sy x].
        raise ValueError(f"kernel expects {6 * reduce.shape[0]} input channels, "
                         f"tensor has {6 * channels}")
    cr = reduce.shape[1]
    f0, f1, f2, f3, f4, f5 = (reduce @ fuse[:, :, k * cr:(k + 1) * cr] for k in range(6))
    folded = np.concatenate([f0 - f5, f1, f2, f5, f3, f4], axis=2)
    # Frame 0's stack is built here, so frames too small for the Sobel
    # raise at the call, not at the first read.
    return _pair_blocks(_motion_stack(frames[0]), frames[1:], folded)
