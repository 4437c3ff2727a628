"""Convolutional GRU forward recurrence and depth fusion.

The cell's reset/update gates and candidate state are same-padded (zero pad)
convolutions over the channel concatenation of hidden state and input:

    r = sigmoid(k_r * [h, x])
    u = sigmoid(k_u * [h, x])
    c = tanh(k_h * [r h, x])
    h' = (1 - u) h + u c

No bias terms. Because h' is a convex combination of h and a tanh output,
a hidden state started inside [-1, 1] stays there for every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import _correlate, _require_hwc


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, branch-free; exp only sees -|x|, so no overflow.

    Equal bit for bit to the two-branch form 1 / (1 + exp(-x)) for x >= 0
    (including -0) and exp(x) / (1 + exp(x)) below, for every finite or
    infinite input; NaN stays NaN.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class ConvGruCell:
    """Gate and candidate kernels, each (3, 3, hidden + input, hidden)."""

    k_r: np.ndarray
    k_u: np.ndarray
    k_h: np.ndarray

    def __post_init__(self) -> None:
        kernels = {}
        for name in ("k_r", "k_u", "k_h"):
            k = np.asarray(getattr(self, name), dtype=float)
            if k.ndim != 4 or k.shape[:2] != (3, 3):
                raise ValueError(f"{name} must be (3, 3, Cin, Ch), got {k.shape}")
            kernels[name] = k
        shapes = {k.shape for k in kernels.values()}
        if len(shapes) != 1:
            raise ValueError(f"gate kernels disagree on shape: {sorted(shapes)}")
        cin, ch = kernels["k_r"].shape[2:]
        if cin <= ch:
            raise ValueError(
                f"kernels consume {cin} channels, too few for hidden width {ch} "
                f"plus at least one input channel")
        for name, k in kernels.items():
            object.__setattr__(self, name, k)

    @property
    def hidden_channels(self) -> int:
        return self.k_r.shape[3]

    @property
    def input_channels(self) -> int:
        return self.k_r.shape[2] - self.hidden_channels

    @classmethod
    def seeded(cls, input_channels: int, hidden_channels: int, *,
               scale: float, seed: int) -> "ConvGruCell":
        rng = np.random.default_rng(seed)
        shape = (3, 3, hidden_channels + input_channels, hidden_channels)
        return cls(*(scale * rng.standard_normal(shape) for _ in range(3)))


def convgru_step(cell: ConvGruCell, h_prev: np.ndarray, x: np.ndarray
                 ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One recurrence step; returns the new state and the (reset, update) gates.

    h_prev and x must be finite (H, W, C) tensors. Both convs run on one
    zero-padded [h, x] buffer with conv2d's tap sum, and the candidate pass
    overwrites only the hidden channels, so the result equals concatenating,
    zero-padding with numpy's pad, then that tap sum, bit for bit.
    """
    h_prev = _require_hwc("hidden state", h_prev)
    x = _require_hwc("input", x)
    if h_prev.shape[:2] != x.shape[:2]:
        raise ValueError(f"spatial dims differ: {h_prev.shape[:2]} vs {x.shape[:2]}")
    if h_prev.shape[2] != cell.hidden_channels:
        raise ValueError(f"hidden state has {h_prev.shape[2]} channels, "
                         f"cell expects {cell.hidden_channels}")
    if x.shape[2] != cell.input_channels:
        raise ValueError(f"input has {x.shape[2]} channels, "
                         f"cell expects {cell.input_channels}")
    ch = cell.hidden_channels
    # Both convs read one zero-padded [h, x] buffer. The gates read it as
    # written (one conv over k_r and k_u stacked on Cout); the candidate
    # reads it after its hidden channels are overwritten with r * h.
    hx = np.zeros((x.shape[0] + 2, x.shape[1] + 2, ch + x.shape[2]))
    hx[1:-1, 1:-1, :ch] = h_prev
    hx[1:-1, 1:-1, ch:] = x
    gates = sigmoid(_correlate(hx, np.concatenate([cell.k_r, cell.k_u], axis=3)))
    r, u = gates[:, :, :ch], gates[:, :, ch:]
    hx[1:-1, 1:-1, :ch] = r * h_prev
    candidate = np.tanh(_correlate(hx, cell.k_h))
    h_new = (1.0 - u) * h_prev + u * candidate
    return h_new, (r, u)


def convgru_run(cell: ConvGruCell, h0: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Fold convgru_step over a (T, H, W, C) stack; returns the (T, H, W, Ch) states."""
    xs = _require_hwc("inputs", xs, stacked=True)
    if len(xs) < 1:
        raise ValueError("convgru_run needs at least one input")
    states = np.empty(xs.shape[:3] + (cell.hidden_channels,))
    h = h0
    for t, x in enumerate(xs):
        h, _ = convgru_step(cell, h, x)
        states[t] = h
    return states


def fuse_depth(d_single: np.ndarray, d_multi: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha * single-frame depth + (1 - alpha) * recurrent depth."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    d_single = np.asarray(d_single, dtype=float)
    d_multi = np.asarray(d_multi, dtype=float)
    if d_single.shape != d_multi.shape:
        raise ValueError(f"depth shapes differ: {d_single.shape} vs {d_multi.shape}")
    return alpha * d_single + (1.0 - alpha) * d_multi
