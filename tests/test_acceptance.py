"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see the lines; -v names each criterion)."""

import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

from depthpad import depthlabel, metrics
from depthpad.cli import main as cli_main
from depthpad.features import SOBEL_GAIN, off_vector_residual, spatial_gradient
from depthpad.geometry import (
    AttackSceneConfig,
    DegenerateRotationError,
    RealSceneConfig,
    SingularConfigError,
    closed_form_rotated_ratio,
    estimate_relative_depth,
    flow_real,
    flow_replay,
    flow_rotated,
    map_rotated_coordinate,
    replay_distortion_factor,
    rotation_beta_factors,
    rotated_endpoints,
)
from depthpad.recurrent import ConvGruCell, convgru_run, convgru_step
from depthpad.supervision import contrastive_depth_loss, depth_loss_gradient

from conftest import contrastive_kernels, record_counts
from fdcheck import fd_gradient
from test_metrics import brute_force_rates
from test_supervision import reference_contrastive_loss, reference_kernel_response

N_CONFIGS = 1000


def _report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")
    sys.stdout.flush()


def test_geometry_closed_form_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()

    # (a) real scene: the estimate recovers d1/d2.
    for _ in range(N_CONFIGS):
        d2 = rng.uniform(0.1, 5)
        cfg = RealSceneConfig(f=rng.uniform(0.5, 5), z=rng.uniform(0.5, 10),
                              d1=rng.uniform(0.01, 0.99) * d2, d2=d2,
                              dx=rng.uniform(0.1, 2) * rng.choice([-1, 1]))
        est = estimate_relative_depth(flow_real(cfg))
        assert est is not None
        assert est == pytest.approx(cfg.relative_depth, rel=1e-9)

    # (b) print attack: zero content motion plus shake flags a flat scene.
    for _ in range(N_CONFIGS):
        d2 = rng.uniform(0.1, 5)
        cfg = AttackSceneConfig(fa=rng.uniform(0.5, 3), fb=rng.uniform(0.5, 3),
                                za=rng.uniform(0.5, 8), zb=rng.uniform(0.5, 8),
                                d1=rng.uniform(0, 1) * d2, d2=d2, dx=0.0)
        dv = rng.uniform(0.01, 1) * rng.choice([-1, 1])
        assert estimate_relative_depth(flow_replay(cfg, dv)) is None

    # (c) static carrier: the perfect spoofing scene reproduces d1/d2.
    for _ in range(N_CONFIGS):
        d2 = rng.uniform(0.1, 5)
        cfg = AttackSceneConfig(fa=rng.uniform(0.5, 3), fb=rng.uniform(0.5, 3),
                                za=rng.uniform(0.5, 8), zb=rng.uniform(0.5, 8),
                                d1=rng.uniform(0.01, 0.99) * d2, d2=d2,
                                dx=rng.uniform(0.1, 2) * rng.choice([-1, 1]))
        est = estimate_relative_depth(flow_replay(cfg, 0.0))
        assert est == pytest.approx(cfg.relative_depth, rel=1e-9)

    # (d) shaking carrier: the estimate is the true ratio times the closed-form
    # distortion factor, and it really is distorted.
    checked = 0
    while checked < N_CONFIGS:
        d2 = rng.uniform(0.5, 5)
        cfg = AttackSceneConfig(fa=rng.uniform(0.5, 3), fb=rng.uniform(0.5, 3),
                                za=rng.uniform(0.5, 8), zb=rng.uniform(0.5, 8),
                                d1=rng.uniform(0.1, 0.9) * d2, d2=d2,
                                dx=rng.uniform(0.1, 2) * rng.choice([-1, 1]))
        dv = rng.uniform(0.05, 0.5) * rng.choice([-1, 1])
        den_l = cfg.fa * cfg.dx + cfg.za * dv
        den_m = cfg.fa * cfg.dx + (cfg.za + cfg.d1) * dv
        den_r = cfg.fa * cfg.dx + (cfg.za + cfg.d2) * dv
        if min(abs(den_l), abs(den_m), abs(den_r)) < 0.05:
            continue
        factor = replay_distortion_factor(cfg, dv)
        if abs(factor - 1.0) < 1e-3:
            continue
        est = estimate_relative_depth(flow_replay(cfg, dv))
        if est is None:
            continue
        assert est == pytest.approx(cfg.relative_depth * factor, rel=1e-9)
        assert est != pytest.approx(cfg.relative_depth, rel=1e-9)
        checked += 1

    # (e) rotated carrier: flows equal the endpoint difference of the plane
    # mapping bit for bit, and the beta closed form matches the simulation.
    checked = 0
    while checked < N_CONFIGS:
        d2 = rng.uniform(0.2, 3)
        cfg = AttackSceneConfig(
            fa=rng.uniform(0.5, 2), fb=rng.uniform(0.5, 2),
            za=rng.uniform(2, 8), zb=rng.uniform(5, 15),
            d1=rng.uniform(0.05, 0.95) * d2, d2=d2,
            dx=rng.uniform(0.05, 0.5) * rng.choice([-1, 1]),
            theta=rng.uniform(0.05, math.pi / 4) * rng.choice([-1, 1]))
        starts = (rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        ends = rotated_endpoints(cfg, starts)
        try:
            closed = closed_form_rotated_ratio(cfg, ends)
        except (DegenerateRotationError, SingularConfigError):
            continue
        num = (cfg.d1 / cfg.za + 1.0) * rotation_beta_factors(cfg, ends)[0] - 1.0
        den = (cfg.d2 / cfg.za + 1.0) * rotation_beta_factors(cfg, ends)[1] - 1.0
        if abs(den) < 1e-6 or abs(num) < 1e-6:
            continue
        obs = flow_rotated(cfg, ends)
        flows = (cfg.fa * cfg.dx / cfg.za,
                 cfg.fa * cfg.dx / (cfg.za + cfg.d1),
                 cfg.fa * cfg.dx / (cfg.za + cfg.d2))
        scale = cfg.fb / cfg.zb
        for got, u1, du in zip((obs.du_l, obs.du_m, obs.du_r), starts, flows):
            expected = scale * (
                map_rotated_coordinate(u1 + du, cfg.zb, cfg.theta)
                - map_rotated_coordinate(u1, cfg.zb, cfg.theta))
            assert got == expected
        est = estimate_relative_depth(obs)
        if est is None:
            continue
        assert est == pytest.approx(closed, rel=1e-9)
        checked += 1

    # theta = 0 collapses both rotation factors to exactly 1.
    for _ in range(100):
        d2 = rng.uniform(0.2, 3)
        cfg = AttackSceneConfig(fa=rng.uniform(0.5, 2), fb=rng.uniform(0.5, 2),
                                za=rng.uniform(2, 8), zb=rng.uniform(5, 15),
                                d1=rng.uniform(0, 1) * d2, d2=d2,
                                dx=rng.uniform(0.05, 0.5), theta=0.0)
        starts = (rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        ends = rotated_endpoints(cfg, starts)
        assert rotation_beta_factors(cfg, ends) == (1.0, 1.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"geometry suite took {elapsed:.2f}s, budget 5s"
    _report("geometry closed-form suite",
            f"5 x {N_CONFIGS} configs in {elapsed:.2f}s")


def test_depth_gradient_finite_difference_check():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pred = rng.random((32, 32))
        label = rng.random((32, 32))
        analytic = depth_loss_gradient(pred, label)
        numeric = fd_gradient(pred, label, step=1e-4)
        rel = np.abs(numeric - analytic).max() / max(np.abs(analytic).max(),
                                                     1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient check took {elapsed:.2f}s, budget 10s"
    _report("depth-loss gradient vs central finite differences",
            f"100 pairs, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_contrastive_kernel_suite():
    kernels = contrastive_kernels()
    assert kernels.shape == (8, 3, 3)
    plus_positions = set()
    for k in kernels:
        assert k.sum() == 0.0
        assert np.count_nonzero(k) == 2
        assert k[1, 1] == -1.0
        plus_positions.add(tuple(np.argwhere(k == 1.0)[0]))
    assert len(plus_positions) == 8

    rng = np.random.default_rng(5)
    grid = rng.random((32, 32))
    assert contrastive_depth_loss(grid, grid) == 0.0

    # Constant offsets leave the interior untouched; only the zero-padded
    # border responds. Exact for an exactly constant difference, and within
    # float noise for a random base map.
    pred = np.full((16, 16), 0.3)
    label = np.zeros((16, 16))
    for k in kernels:
        diff = (reference_kernel_response(pred, k)
                - reference_kernel_response(label, k))
        assert not diff[1:-1, 1:-1].any()
    base = rng.random((16, 16))
    for k in kernels:
        diff = (reference_kernel_response(base + 0.25, k)
                - reference_kernel_response(base, k))
        assert np.abs(diff[1:-1, 1:-1]).max() < 1e-12

    delta = 0.7
    bump = np.zeros((3, 3))
    bump[1, 1] = delta
    flat = np.zeros((3, 3))
    brute = reference_contrastive_loss(bump, flat)
    assert brute == pytest.approx(16 * delta ** 2)
    assert contrastive_depth_loss(bump, flat) == pytest.approx(brute, rel=1e-12)
    _report("contrastive kernel suite",
            f"8 kernels, hand instance {brute:.4f} vs brute force")


def test_convgru_suite():
    rng = np.random.default_rng(11)

    # Gate values stay strictly inside (0, 1). Kernel scale keeps the
    # pre-activations inside the range where float64 sigmoid is itself
    # strictly inside the interval (it rounds to 1.0 above ~37).
    for seed in range(10):
        cell = ConvGruCell.seeded(input_channels=3, hidden_channels=2,
                                  scale=0.8, seed=seed)
        h = rng.uniform(-1, 1, (12, 12, 2))
        x = rng.standard_normal((12, 12, 3))
        _, (r, u) = convgru_step(cell, h, x)
        assert (r > 0).all() and (r < 1).all()
        assert (u > 0).all() and (u < 1).all()

    for seed in range(5):
        cell = ConvGruCell.seeded(input_channels=2, hidden_channels=1,
                                  scale=1.5, seed=100 + seed)
        h0 = rng.uniform(-1, 1, (10, 10, 1))
        xs = [3.0 * rng.standard_normal((10, 10, 2)) for _ in range(50)]
        for state in convgru_run(cell, h0, xs):
            assert state.min() >= -1.0
            assert state.max() <= 1.0

    shape = (3, 3, 2, 1)
    cell = ConvGruCell(np.zeros(shape), np.zeros(shape), np.zeros(shape))
    states = convgru_run(cell, np.ones((8, 8, 1)), [np.ones((8, 8, 1))] * 3)
    for state, expected in zip(states, (0.5, 0.25, 0.125)):
        assert np.abs(state - expected).max() <= 1e-12
    _report("convolutional GRU suite",
            "gate ranges, 50-step boundedness, exact halving")


def test_off_suite():
    for value in (0.0, 1.0, -3.25, 2.718281828):
        gx, gy = spatial_gradient(np.full((16, 16, 3), value))
        assert not gx.any()
        assert not gy.any()

    def residual_max(omega):
        idx = np.arange(48, dtype=float)
        jj, ii = np.meshgrid(idx, idx)
        x_t = (np.sin(omega * jj) + np.cos(omega * ii))[:, :, None]
        x_t1 = (np.sin(omega * (jj - 1)) + np.cos(omega * ii))[:, :, None]
        res = off_vector_residual(x_t, x_t1, (1.0 / SOBEL_GAIN, 0.0))
        return np.abs(res[2:-2, 2:-2]).max()

    omega = 2 * np.pi / 16
    coarse, fine = residual_max(omega), residual_max(omega / 2)
    assert coarse < 0.6 * omega ** 2  # second-order bound, see features module
    assert fine < 0.6 * (omega / 2) ** 2
    assert coarse / fine >= 3.5
    _report("flow-guided feature suite",
            f"residual {coarse:.2e} < {0.6 * omega ** 2:.2e}, "
            f"shrink x{coarse / fine:.2f}")


def _compositions(total, bins):
    """All nonnegative integer tuples of the given length summing to total."""
    for cuts in itertools.combinations(range(total + bins - 1), bins - 1):
        prev = -1
        parts = []
        for cut in cuts:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(total + bins - 2 - prev)
        yield tuple(parts)


def test_metrics_suite():
    # Fixed operating point: 2.5% worst-case attack acceptance with a clean
    # bona fide rate averages to 1.25% (1.3 when shown at one decimal,
    # rounding halves up).
    records = [(0.7, "attack", "print1")]
    records += [(0.3, "attack", "print1")] * 39
    records += [(0.9, "living", None)] * 10
    summary = metrics.metrics_summary(record_counts(records, 0.5))
    assert summary["apcer"] == pytest.approx(0.025)
    assert summary["bpcer"] == 0.0
    assert summary["acer"] == pytest.approx(0.0125)

    # Exhaustive recount equivalence for every record multiset of size <= 12
    # over {bona fide, print PAI, replay PAI} x {accepted, rejected}. The
    # metrics only see per-group accept/reject counts, so this covers every
    # record set of those sizes at a fixed threshold.
    checked = 0
    for total in range(2, 13):
        for parts in _compositions(total, 6):
            l_acc, l_rej, pa, pr, ra, rr = parts
            if l_acc + l_rej == 0 or pa + pr + ra + rr == 0:
                continue
            recs = ([(0.8, "living", None)] * l_acc
                    + [(0.2, "living", None)] * l_rej
                    + [(0.8, "attack", "print")] * pa
                    + [(0.2, "attack", "print")] * pr
                    + [(0.8, "attack", "replay")] * ra
                    + [(0.2, "attack", "replay")] * rr)
            summary = metrics.metrics_summary(record_counts(recs, 0.5))
            got = tuple(summary[k] for k in ("apcer", "bpcer", "acer", "hter"))
            assert got == pytest.approx(brute_force_rates(recs, 0.5))
            checked += 1

    # Threshold monotonicity on 200 random record sets.
    rng = np.random.default_rng(23)
    for _ in range(200):
        recs = [(rng.random(), "living", None)
                for _ in range(rng.integers(2, 9))]
        recs += [(rng.random(), "attack", rng.choice(["print1", "replay1"]))
                 for _ in range(rng.integers(2, 9))]
        thresholds = np.linspace(0.0, 1.0001, 9)
        prev_bpcer, prev_accept = -1.0, None
        for th in thresholds:
            bpcer = metrics.metrics_summary(record_counts(recs, th))["bpcer"]
            assert bpcer >= prev_bpcer
            pooled_accept = sum(score >= th for score, label, _ in recs
                                if label == "attack")
            if prev_accept is not None:
                assert pooled_accept <= prev_accept
            prev_bpcer, prev_accept = bpcer, pooled_accept
    _report("metrics suite",
            f"2.5/0.0 operating point, {checked} exhaustive multisets, "
            f"200 monotonic sweeps")


def test_demo_oracle_gap_and_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "oracle"
    assert cli_main(["demo", "--oracle", "--seed", "7",
                     "--out", str(out)]) == 0
    report = json.loads((out / "demo.json").read_text())
    beta = report["params"]["beta"]
    surface = depthlabel.synthesize_face_surface(
        amplitude=report["params"]["surface"]["amplitude"],
        center=tuple(report["params"]["surface"]["center"]),
        radius=report["params"]["surface"]["radius"],
        grid_size=report["params"]["surface"]["grid_size"])
    label = depthlabel.generate_living_depth(surface)
    mask = (label > 0).astype(np.int64)
    steps = report["params"]["frames"] - 1
    expected_gap = (1.0 - beta) * metrics.masked_depth_term(
        [label] * steps, [mask] * steps)
    assert report["score_gap"] == pytest.approx(expected_gap, abs=1e-9)

    full_a, full_b = tmp_path / "full_a", tmp_path / "full_b"
    one_run = time.perf_counter()
    assert cli_main(["demo", "--seed", "11", "--out", str(full_a)]) == 0
    one_run = time.perf_counter() - one_run
    assert cli_main(["demo", "--seed", "11", "--out", str(full_b)]) == 0
    assert (full_a / "demo.json").read_bytes() == (full_b / "demo.json").read_bytes()
    assert one_run < 5.0, f"demo run took {one_run:.2f}s, budget 5s"
    elapsed = time.perf_counter() - t0
    _report("end-to-end demo",
            f"oracle gap {report['score_gap']:.6f} == (1-beta)*masked depth, "
            f"deterministic, {one_run:.2f}s/run, total {elapsed:.2f}s")
