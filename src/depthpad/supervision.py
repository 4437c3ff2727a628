"""Depth-supervision losses, the topography kernels, and the binary head.

The absolute loss is the summed squared difference between predicted and
label depth grids. The contrastive loss compares, for each of 8 kernels
holding +1 at one neighbor position and -1 at the center, the same-padded
(zero pad) correlation responses of prediction and label, constraining each
cell's contrast to its neighborhood. Reductions are sums over cells and
frames, not means.

Losses accept leading batch dimensions: (H, W) inputs return a float,
(B, H, W) inputs return a length-B vector. Gradients are analytic and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12  # floor inside the cross-entropy log
HEAD_HIDDEN = 128  # width of the binary head's hidden layer

# Neighbor offsets (row, col), row-major around the center: the +1 entry of
# each contrastive kernel.
CONTRAST_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
                    (0, 1), (1, -1), (1, 0), (1, 1))


def _as_grids(name: str, grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got shape {g.shape}")
    return g


def _check_pair(pred, label) -> tuple[np.ndarray, np.ndarray]:
    pred = _as_grids("pred", pred)
    label = _as_grids("label", label)
    if pred.shape[-2:] != label.shape[-2:]:
        raise ValueError(f"grid shapes differ: {pred.shape[-2:]} vs {label.shape[-2:]}")
    return pred, label


def _maybe_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _shift_responses(grid: np.ndarray, offsets=CONTRAST_OFFSETS):
    """grid[p + (di, dj)] - grid[p] with zeros outside, per offset.

    These are the kernel correlations; the grid is zero-padded once for all
    offsets, into one buffer by slice assignment.
    """
    h, w = grid.shape[-2:]
    p = np.zeros(grid.shape[:-2] + (h + 2, w + 2), dtype=grid.dtype)
    p[..., 1:-1, 1:-1] = grid
    return [p[..., 1 + di:1 + di + h, 1 + dj:1 + dj + w] - grid
            for di, dj in offsets]


def euclidean_depth_loss(pred, label):
    """Summed squared difference over all cells."""
    pred, label = _check_pair(pred, label)
    diff = pred - label
    return _maybe_scalar(np.einsum("...ij,...ij->...", diff, diff))


def contrastive_depth_loss(pred, label):
    """Summed squared difference of the 8 kernel responses.

    The responses are linear, so they are evaluated on pred - label directly.
    """
    pred, label = _check_pair(pred, label)
    diff = pred - label
    total = np.zeros(diff.shape[:-2])
    for r in _shift_responses(diff):
        total = total + np.einsum("...ij,...ij->...", r, r)
    return _maybe_scalar(total)


def euclidean_loss_gradient(pred, label) -> np.ndarray:
    """d/dpred of the absolute term: 2 (pred - label)."""
    pred, label = _check_pair(pred, label)
    return 2.0 * (pred - label)


def contrastive_loss_gradient(pred, label) -> np.ndarray:
    """d/dpred of the contrastive term via the adjoint (flipped) kernels."""
    pred, label = _check_pair(pred, label)
    diff = pred - label
    grad = np.zeros(diff.shape)
    for (di, dj), response in zip(CONTRAST_OFFSETS, _shift_responses(diff)):
        (adjoint,) = _shift_responses(response, [(-di, -dj)])
        grad = grad + 2.0 * adjoint
    return grad


def depth_loss_gradient(pred, label) -> np.ndarray:
    """Gradient of euclidean + contrastive loss with respect to pred."""
    return euclidean_loss_gradient(pred, label) + contrastive_loss_gradient(pred, label)


@dataclass(frozen=True)
class LossReport:
    """Named loss terms of a multi-frame sequence."""

    absolute: float
    contrastive: float
    depth_total: float
    binary: float
    multi_total: float


@dataclass(frozen=True)
class BinaryHead:
    """Two fully connected layers (ReLU between) feeding a 2-way softmax."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        w1 = np.asarray(self.w1, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        if w1.ndim != 2 or b1.shape != (w1.shape[1],):
            raise ValueError(f"layer 1 shapes inconsistent: {w1.shape}, {b1.shape}")
        if w2.shape != (w1.shape[1], 2) or b2.shape != (2,):
            raise ValueError(f"layer 2 shapes inconsistent: {w2.shape}, {b2.shape}")
        for arr in (w1, b1, w2, b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("head weights contain non-finite values")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def seeded(cls, input_dim: int, *, seed: int) -> "BinaryHead":
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal((input_dim, HEAD_HIDDEN))
        w1 /= math.sqrt(input_dim)
        return cls(w1, np.zeros(HEAD_HIDDEN),
                   rng.standard_normal((HEAD_HIDDEN, 2)) / math.sqrt(HEAD_HIDDEN),
                   np.zeros(2))


def binary_loss(head: BinaryHead | None, fused: np.ndarray, label: int
                ) -> tuple[float, float]:
    """Cross entropy of the true class over the (T, H, W) depth maps, flattened.

    The head reads the maps in frame order, each row-major. label is 0 for
    spoof, 1 for living. Returns (loss, living probability). With head None
    no head is evaluated and the result is (log 2, 0.5), exactly what an
    all-zero head computes.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    if head is None:
        return math.log(2.0), 0.5
    flat = np.asarray(fused, dtype=float).ravel()
    if flat.size != head.input_dim:
        raise ValueError(f"head expects {head.input_dim} inputs, "
                         f"got {flat.size} depth cells")
    hidden = np.maximum(flat @ head.w1 + head.b1, 0.0)
    logits = hidden @ head.w2 + head.b2
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    loss = -math.log(max(probs[label], LOG_CLAMP))
    return loss, float(probs[1])


def multi_frame_loss(depth: float, binary: float, beta: float) -> float:
    """Weighted total beta * binary + (1 - beta) * depth."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta * binary + (1.0 - beta) * depth


def multi_frame_report(preds: np.ndarray, labels: np.ndarray,
                       head: BinaryHead | None, binary_label: int, beta: float
                       ) -> tuple[LossReport, float]:
    """Full multi-frame loss breakdown plus the living probability.

    preds and labels are (T, H, W) stacks of one shape, T >= 1. The absolute
    and contrastive terms are each evaluated once on the stacks, and their
    per-frame values are summed in frame order. head may be None, as in
    binary_loss.
    """
    preds, labels = _check_pair(preds, labels)
    if preds.ndim != 3 or preds.shape != labels.shape or not len(preds):
        raise ValueError(f"preds and labels must be (T, H, W) stacks of one "
                         f"shape with T >= 1, got {preds.shape} and {labels.shape}")
    absolute = float(sum(euclidean_depth_loss(preds, labels)))
    contrast = float(sum(contrastive_depth_loss(preds, labels)))
    depth_total = absolute + contrast
    bin_loss, b_hat = binary_loss(head, preds, binary_label)
    report = LossReport(absolute=absolute, contrastive=contrast,
                        depth_total=depth_total, binary=bin_loss,
                        multi_total=multi_frame_loss(depth_total, bin_loss, beta))
    return report, b_hat
