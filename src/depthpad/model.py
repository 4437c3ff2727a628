"""The synthetic multi-frame model behind the demo, as one forward pass.

Depth labels, then seeded three-channel frames through the motion block, the
ConvGRU and fusion with the single-frame map, then the losses and the live
score. All randomness flows from the seed; the weights are fixed, not trained.
"""

from __future__ import annotations

import numpy as np

from . import depthlabel, metrics
from .features import OffBlockWeights, off_sequence
from .recurrent import ConvGruCell, convgru_run, fuse_depth, sigmoid
from .supervision import BinaryHead, LossReport, multi_frame_report

DEMO_SURFACE = {"amplitude": 8.0, "center": (16.0, 16.0), "radius": 12.0,
                "grid_size": 65}
DEMO_REDUCE_CHANNELS = 16
DEMO_FUSE_CHANNELS = 32


def _demo_frames(base: np.ndarray, n_frames: int) -> np.ndarray:
    """(T, H, W, 3) frame stack; frame t is the base rolled down t rows."""
    stacked = np.stack([base * scale for scale in (0.5, 0.75, 1.0)], axis=2)
    rows = np.arange(len(base)) - np.arange(n_frames)[:, None]
    return stacked[rows % len(base)]


def run_model(alpha: float, beta: float, frames: int, seed: int,
              oracle: bool
              ) -> dict[str, tuple[LossReport, float, float, float]]:
    """(loss report, b_hat, masked depth term, live score) per sample.

    The keys are "living" and "spoof", in that order. In oracle mode the
    ground-truth depth maps stand in for the fused maps and no binary head is
    drawn, so b_hat is 0.5.
    """
    n_steps = frames - 1
    grid = depthlabel.GRID_SIZE

    surface = depthlabel.synthesize_face_surface(**DEMO_SURFACE)
    living_label = depthlabel.generate_living_depth(surface)
    spoof_label = depthlabel.spoof_depth()
    mask = depthlabel.mask_from_depth(living_label)
    steps = (n_steps, grid, grid)  # one label per step, as read-only views
    labels = {"living": np.broadcast_to(living_label.values, steps),
              "spoof": np.broadcast_to(spoof_label.values, steps)}

    if oracle:
        head = None
        fused = labels
    else:
        head = BinaryHead.seeded(n_steps * grid * grid, seed=seed + 3)
        off_weights = OffBlockWeights.seeded(
            3, reduce_channels=DEMO_REDUCE_CHANNELS,
            out_channels=DEMO_FUSE_CHANNELS, seed=seed + 1)
        cell = ConvGruCell.seeded(input_channels=DEMO_FUSE_CHANNELS,
                                  hidden_channels=1, scale=0.1, seed=seed + 2)
        single_kernel = (np.random.default_rng(seed)
                         .standard_normal((1, 1, 3, 1)))
        # A planar ramp stands in for the flat printed texture.
        ramp = np.tile(np.linspace(0.0, 1.0, grid)[:, None], (1, grid))
        bases = {"living": living_label.values, "spoof": ramp}
        fused = {}
        for kind, base in bases.items():
            frame_stack = _demo_frames(base, frames)
            # Step t fuses frame t + 1's single-frame map (a 1x1 conv, one
            # matmul over the stack); frame 0 needs none.
            single = sigmoid((frame_stack[1:] @ single_kernel[0, 0])[..., 0])
            motion = off_sequence(frame_stack, off_weights)
            states = convgru_run(cell, np.zeros((grid, grid, 1)), motion)
            fused[kind] = fuse_depth(single, states[..., 0], alpha)

    results = {}
    for kind, binary_label in (("living", 1), ("spoof", 0)):
        report, b_hat = multi_frame_report(fused[kind], labels[kind], head,
                                           binary_label, beta)
        depth_term = metrics.masked_depth_term(fused[kind], mask)
        results[kind] = (report, b_hat, depth_term,
                         metrics.living_score(b_hat, depth_term, beta))
    return results
