"""The demo model as the paper states it, unfolded, against cli.run_demo.

The reference builds every motion block from the 1x1 reduce, the Sobel of
the reduced maps, the frame difference, the five-branch concatenation and
the 3x3 fuse (manual_block); runs the ConvGRU from the gate equations with a
concatenation, zero-padded convs and a two-branch sigmoid; fuses step t with
frame t + 1's single-frame map; and sums the losses, the head input and the
masked depth frame by frame. It draws every weight set itself, in the
order and scaling of the library's seeded factories, so a change to any draw
fails here: seed for the single-frame kernel, seed + 1 for the motion block,
seed + 2 for the ConvGRU and seed + 3 for the binary head, each from its own
np.random.default_rng.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpad import cli, depthlabel, model

from conftest import contrastive_kernels
from test_features import manual_block, reference_conv2d

GRID = 32
SURFACE = {"amplitude": 8.0, "center": (16.0, 16.0), "radius": 12.0,
           "grid_size": 65}
REDUCE_CHANNELS = 16
FUSE_CHANNELS = 32
GRU_SCALE = 0.1
HEAD_HIDDEN = 128
# The 8 contrastive kernels as one (3, 3, 1, 8) conv kernel.
CONTRAST_KERNEL = contrastive_kernels().transpose(1, 2, 0)[:, :, None, :]


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gru_step(cell, h, x):
    # r = s(k_r * [h, x]), u = s(k_u * [h, x]), c = tanh(k_h * [r h, x]),
    # h' = (1 - u) h + u c, every conv zero-padded.
    hx = np.concatenate([h, x], axis=2)
    r = two_branch_sigmoid(reference_conv2d(hx, cell.k_r, "zero"))
    u = two_branch_sigmoid(reference_conv2d(hx, cell.k_u, "zero"))
    rhx = np.concatenate([r * h, x], axis=2)
    c = np.tanh(reference_conv2d(rhx, cell.k_h, "zero"))
    return (1.0 - u) * h + u * c


def demo_frames(base, n_frames):
    # Three channels scaled 0.5, 0.75 and 1; frame t is rolled down t rows.
    stacked = np.stack([0.5 * base, 0.75 * base, 1.0 * base], axis=2)
    return [np.roll(stacked, t, axis=0) for t in range(n_frames)]


def motion_weights(seed):
    # The 1x1 reduce, then the 3x3 fuse over the six branch widths, each
    # scaled by its fan-in.
    rng = np.random.default_rng(seed)
    reduce = rng.standard_normal((1, 1, 3, REDUCE_CHANNELS)) / math.sqrt(3)
    fan_in = 9 * 6 * REDUCE_CHANNELS
    fuse = (rng.standard_normal((3, 3, 6 * REDUCE_CHANNELS, FUSE_CHANNELS))
            / math.sqrt(fan_in))
    return SimpleNamespace(reduce_1x1=reduce, fuse_3x3=fuse)


def gru_weights(seed):
    # Reset, update and candidate kernels over [h, x], in that order.
    rng = np.random.default_rng(seed)
    shape = (3, 3, 1 + FUSE_CHANNELS, 1)
    k_r, k_u, k_h = (GRU_SCALE * rng.standard_normal(shape) for _ in range(3))
    return SimpleNamespace(k_r=k_r, k_u=k_u, k_h=k_h)


def head_weights(input_dim, seed):
    # Each layer's weights scaled by its fan-in; zero biases.
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((input_dim, HEAD_HIDDEN)) / math.sqrt(input_dim)
    w2 = rng.standard_normal((HEAD_HIDDEN, 2)) / math.sqrt(HEAD_HIDDEN)
    return SimpleNamespace(w1=w1, b1=np.zeros(HEAD_HIDDEN), w2=w2,
                           b2=np.zeros(2))


def fused_maps(base, n_frames, alpha, seed):
    single_kernel = np.random.default_rng(seed).standard_normal((1, 1, 3, 1))
    off = motion_weights(seed + 1)
    cell = gru_weights(seed + 2)
    frames = demo_frames(base, n_frames)
    h = np.zeros((GRID, GRID, 1))
    fused = []
    for t in range(n_frames - 1):
        h = gru_step(cell, h, manual_block(frames[t], frames[t + 1], off))
        single = two_branch_sigmoid(reference_conv2d(frames[t + 1],
                                                     single_kernel)[:, :, 0])
        fused.append(alpha * single + (1.0 - alpha) * h[:, :, 0])
    return fused


def sample_entry(fused, label, mask, head, binary_label, beta):
    absolute = contrastive = 0.0
    for pred in fused:
        diff = pred - label
        absolute += (diff ** 2).sum()
        responses = reference_conv2d(diff[:, :, None], CONTRAST_KERNEL, "zero")
        contrastive += (responses ** 2).sum()
    depth_total = absolute + contrastive
    if head is None:
        binary, b_hat = math.log(2.0), 0.5
    else:
        flat = np.concatenate([pred.ravel() for pred in fused])
        hidden = np.maximum(flat @ head.w1 + head.b1, 0.0)
        logits = hidden @ head.w2 + head.b2
        probs = np.exp(logits) / np.exp(logits).sum()
        binary, b_hat = -math.log(probs[binary_label]), float(probs[1])
    depth_term = float(np.mean([np.abs(pred * mask).sum() / mask.sum()
                                for pred in fused]))
    return {"losses": {"absolute": float(absolute),
                       "contrastive": float(contrastive),
                       "depth_total": float(depth_total),
                       "binary": binary,
                       "multi_total": beta * binary + (1.0 - beta) * depth_total},
            "b_hat": b_hat, "depth_term": depth_term,
            "score": beta * b_hat + (1.0 - beta) * depth_term}


def reference_demo(alpha, beta, n_frames, seed, oracle):
    """The model fields of demo.json: both samples, the gap and, in oracle
    mode, the gap check."""
    living = depthlabel.generate_living_depth(
        depthlabel.synthesize_face_surface(**SURFACE))
    spoof = np.zeros((GRID, GRID))
    mask = (living > 0).astype(np.int64)
    ramp = np.linspace(0.0, 1.0, GRID)[:, None] * np.ones(GRID)
    report = {}
    for kind, label, base, binary_label in (("living", living, living, 1),
                                            ("spoof", spoof, ramp, 0)):
        if oracle:
            fused, head = [label] * (n_frames - 1), None
        else:
            fused = fused_maps(base, n_frames, alpha, seed)
            head = head_weights((n_frames - 1) * GRID * GRID, seed + 3)
        report[kind] = sample_entry(fused, label, mask, head, binary_label, beta)
    report["score_gap"] = report["living"]["score"] - report["spoof"]["score"]
    if oracle:
        report["oracle_gap_ok"] = report["score_gap"] >= 0.5 * (1.0 - beta)
    return report


def model_fields(report):
    return {key: report[key] for key in report
            if key not in ("command", "seed", "oracle", "params")}


seeds = st.integers(0, 2**31)
frame_counts = st.integers(2, 9)
unit = st.floats(0.0, 1.0)


@settings(max_examples=10, deadline=None)
@given(seeds, frame_counts, unit, unit)
def test_full_mode_matches_the_unfolded_model(seed, n_frames, alpha, beta):
    got = model_fields(cli.run_demo(alpha, beta, n_frames, seed, oracle=False))
    want = reference_demo(alpha, beta, n_frames, seed, oracle=False)
    assert list(got) == list(want)
    for kind in ("living", "spoof"):
        assert list(got[kind]) == list(want[kind])
        assert list(got[kind]["losses"]) == list(want[kind]["losses"])
        for key, value in want[kind]["losses"].items():
            assert got[kind]["losses"][key] == pytest.approx(
                value, rel=1e-12, abs=0.0), (kind, key)
        for key in ("b_hat", "depth_term", "score"):
            assert got[kind][key] == pytest.approx(
                want[kind][key], rel=1e-12, abs=0.0), (kind, key)
    # The gap is a difference of two scores, each good to rel 1e-12.
    scale = max(abs(want["living"]["score"]), abs(want["spoof"]["score"]))
    assert got["score_gap"] == pytest.approx(want["score_gap"], rel=0.0,
                                             abs=1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(seeds, frame_counts, unit, unit)
def test_oracle_mode_equals_the_unfolded_model(seed, n_frames, alpha, beta):
    # A cold cache, so every example compares freshly computed numbers.
    model.oracle_results.cache_clear()
    got = model_fields(cli.run_demo(alpha, beta, n_frames, seed, oracle=True))
    assert got == reference_demo(alpha, beta, n_frames, seed, oracle=True)


def test_demo_frames_are_the_rolled_frames_stacked():
    base = np.random.default_rng(5).random((GRID, GRID))
    for n_frames in (2, 9, 40):
        stack = model._demo_frames(base, n_frames)
        assert stack.shape == (n_frames, GRID, GRID, 3)
        assert np.array_equal(stack, np.stack(demo_frames(base, n_frames)))
