"""Flow-guided feature computations on H x W x C grids.

Forward passes only: replicate-padded convolution, Sobel spatial gradients,
frame-difference temporal gradients, the flow-orthogonality residual, and the
five-branch motion block. off_sequence is the one motion-block entry: it
takes the motion_stacks of a (T, H, W, C) frame sequence, each frame's
replicate-padded [x, Sx x, Sy x], and yields the T - 1 (H, W, Cout) blocks
one at a time. Block t fuses, with a 3x3 kernel, the concatenation of a
reduced feature map, both frames' spatial gradients and the temporal
gradient. The block is linear, so the 1x1 reduce is folded into the fuse
kernel: each frame gets one Sobel, and each pair one conv over both frames'
input channels, which pays while the input is narrower than the reduced
map. The stacks do not depend on the weights, so a caller with fixed frames
builds them once.

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


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """x (H, W, C) replicate-padded by ph rows and pw columns on each side.

    One allocation and slice assignment, equal bit for bit to numpy's pad in
    "edge" mode, for any widths, including ones wider than x: edge rows are
    broadcast first, then edge columns (corners included) are copied from
    the padded columns. Zero widths return x itself, not a copy. The ConvGRU
    zero-pads in its own buffer.
    """
    if not (ph or pw):
        return x
    h, w, c = x.shape
    out = np.empty((h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    out[ph:ph + h, pw:pw + w] = x
    out[:ph, pw:pw + w] = x[:1]
    out[ph + h:, pw:pw + w] = x[-1:]
    out[:, :pw] = out[:, pw:pw + 1]
    out[:, pw + w:] = out[:, pw + w - 1:pw + w]
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
    input is edge-padded into one fresh buffer (a 1x1 kernel reads x itself)
    and the taps are summed as _correlate sums them, so the result equals
    numpy's "edge" pad followed by the same tap sum bit for bit.
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
    return _correlate(_pad(x, kh // 2, kw // 2), kernel)


def spatial_gradient(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Sobel responses (gx, gy) with replicate padding.

    Computed as neighbor differences followed by the 1-2-1 smoothing sum, so a
    constant input yields exactly zero.
    """
    x = _require_hwc("input", x)
    h, w, _ = x.shape
    if h < 3 or w < 3:
        raise ValueError(f"spatial gradient needs at least 3x3 input, got {h}x{w}")
    p = _pad(x, 1, 1)
    dx = p[:, 2:, :] - p[:, :-2, :]          # east minus west, (H+2, W, C)
    gx = dx[:-2] + 2.0 * dx[1:-1] + dx[2:]
    dy = p[2:, :, :] - p[:-2, :, :]          # south minus north, (H, W+2, C)
    gy = dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:]
    return gx, gy


def temporal_gradient(x_t: np.ndarray, x_t1: np.ndarray) -> np.ndarray:
    """Elementwise frame difference x(t+dt) - x(t)."""
    x_t = _require_hwc("x_t", x_t)
    x_t1 = _require_hwc("x_t1", x_t1)
    if x_t.shape != x_t1.shape:
        raise ValueError(f"frame shapes differ: {x_t.shape} vs {x_t1.shape}")
    return x_t1 - x_t


def off_vector_residual(x_t: np.ndarray, x_t1: np.ndarray,
                        v: tuple[float, float]) -> np.ndarray:
    """Per-cell deviation from brightness constancy, gx*vx + gy*vy + gt.

    Vanishes in the interior when x_t1 is x_t translated by the flow and v is
    expressed in Sobel-gain units (true displacement divided by SOBEL_GAIN).
    """
    gx, gy = spatial_gradient(x_t)
    gt = temporal_gradient(x_t, x_t1)
    vx, vy = v
    return gx * vx + gy * vy + gt


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


def motion_stacks(frames: np.ndarray) -> np.ndarray:
    """The (T, H + 2, W + 2, 3C) motion inputs of a (T, H, W, C) sequence.

    Entry t is [x_t, Sx x_t, Sy x_t] on the channel axis, replicate-padded by
    one cell as conv2d pads a 3x3 input, with one Sobel per frame.
    """
    frames = _require_hwc("frames", frames, stacked=True)
    n_frames, h, w, c = frames.shape
    stacks = np.empty((n_frames, h + 2, w + 2, 3 * c))
    for t, x in enumerate(frames):
        stacks[t] = _pad(np.concatenate([x, *spatial_gradient(x)], axis=2), 1, 1)
    return stacks


def off_sequence(stacks: np.ndarray, weights: OffBlockWeights
                 ) -> Iterator[np.ndarray]:
    """Motion blocks for every consecutive pair of a frame sequence.

    stacks is the sequence's motion_stacks. Returns an iterator over the
    T - 1 (H, W, Cout) blocks, block t fusing the branches of frames t and
    t + 1 with the 3x3 kernel; no nonlinearity follows. The inputs are
    checked by this call, and each block is computed when it is read, so a
    consumer that folds them holds one block, not a stack.

    The block is linear, and the 1x1 reduce R commutes with replicate padding
    and with the per-channel Sobel, so it is computed folded: with F0..F5 the
    fuse slices of [r_t, gx_t, gy_t, gx_t1, gy_t1, r_t1 - r_t], block t is one
    conv of [x_t, Sx x_t, Sy x_t, x_t1, Sx x_t1, Sy x_t1] with the kernel
    [(F0 - F5) R, F1 R, F2 R, F5 R, F3 R, F4 R] stacked on the input axis.
    Replicate padding commutes with the channel concatenation, so that conv
    is the valid correlation of the two padded stacks side by side. This
    costs 6 * Cin * Cout multiply-adds per pixel and tap per pair against
    6 * Cr * Cout unfolded, so it pays while the input width Cin is below
    the reduce width Cr.
    """
    stacks = _require_hwc("stacks", stacks, stacked=True)
    n_frames, _, _, channels = stacks.shape
    if n_frames < 2:
        raise ValueError(f"a motion sequence needs at least 2 frames, got {n_frames}")
    reduce, fuse = weights.reduce_1x1[0, 0], weights.fuse_3x3
    if 2 * channels != 6 * reduce.shape[0]:
        raise ValueError(f"kernel expects {6 * reduce.shape[0]} input channels, "
                         f"tensor has {2 * channels}")
    cr = reduce.shape[1]
    f0, f1, f2, f3, f4, f5 = (reduce @ fuse[:, :, k * cr:(k + 1) * cr] for k in range(6))
    folded = np.concatenate([f0 - f5, f1, f2, f5, f3, f4], axis=2)
    return (_correlate(np.concatenate([stacks[t], stacks[t + 1]], axis=2), folded)
            for t in range(n_frames - 1))
