import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from depthpad import geometry
from depthpad.cli import main
from depthpad.geometry import (
    SWEEP_CSV_COLUMNS,
    AttackSceneConfig,
    DegenerateRotationError,
    FlowObservation,
    InconsistentFlowError,
    RealSceneConfig,
    SingularConfigError,
    Sweep,
    closed_form_replay_ratio,
    closed_form_rotated_ratio,
    estimate_relative_depth,
    flow_real,
    flow_replay,
    flow_rotated,
    map_rotated_coordinate,
    read_sweep_csv,
    replay_distortion_factor,
    rotated_endpoints,
    rotation_beta_factors,
    simulate_sequence,
    write_sweep_csv,
)


# Near, middle and far start coordinates of a rotated carrier.
STARTS = (1.0, 1.2, 0.8)


def frame_steps(sweep):
    """The (observation, ratio, closed_form_ratio) step of each frame step."""
    return [sweep.steps[i] for i in sweep.index]


def ray_plane_remap(u, zb, theta):
    # Independent construction: place the material point on the rotated plane,
    # shoot a ray from the focal point through it, intersect the vertical
    # plane at distance zb, and read off the height there.
    point = np.array([zb - u * math.sin(theta), u * math.cos(theta)])  # (z, x)
    t = zb / point[0]
    return t * point[1]


class TestRealScene:
    def test_hand_evaluated_flows(self):
        obs = flow_real(RealSceneConfig(f=1, z=1, d1=1, d2=2, dx=1))
        assert obs.du_l == pytest.approx(1)
        assert obs.du_m == pytest.approx(0.5)
        assert obs.du_r == pytest.approx(1 / 3)

    def test_no_motion_no_flow(self):
        obs = flow_real(RealSceneConfig(f=3, z=2, d1=0.5, d2=1, dx=0))
        assert (obs.du_l, obs.du_m, obs.du_r) == (0, 0, 0)

    def test_zero_middle_offset(self):
        obs = flow_real(RealSceneConfig(f=2, z=1, d1=0, d2=1, dx=0.5))
        assert (obs.du_l, obs.du_m, obs.du_r) == pytest.approx((1, 1, 0.5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RealSceneConfig(f=0, z=1, d1=0, d2=1, dx=1)
        with pytest.raises(ValueError):
            RealSceneConfig(f=1, z=-1, d1=0, d2=1, dx=1)
        with pytest.raises(ValueError):
            RealSceneConfig(f=1, z=1, d1=2, d2=1, dx=1)  # d1 > d2
        with pytest.raises(ValueError):
            RealSceneConfig(f=1, z=1, d1=0, d2=0, dx=1)  # flat face
        with pytest.raises(ValueError):
            RealSceneConfig(f=1, z=1, d1=0, d2=math.inf, dx=1)

    def test_relative_depth_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d2 = rng.uniform(0.1, 5)
            cfg = RealSceneConfig(f=rng.uniform(0.5, 5), z=rng.uniform(0.5, 10),
                                  d1=rng.uniform(0, 1) * d2, d2=d2,
                                  dx=rng.uniform(0.1, 2))
            assert 0 <= cfg.relative_depth <= 1

    def test_moving_face_flows_nonzero_and_share_sign(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d2 = rng.uniform(0.1, 5)
            cfg = RealSceneConfig(f=rng.uniform(0.5, 5), z=rng.uniform(0.5, 10),
                                  d1=rng.uniform(0, 1) * d2, d2=d2,
                                  dx=rng.uniform(0.1, 2) * rng.choice([-1, 1]))
            obs = flow_real(cfg)
            flows = (obs.du_l, obs.du_m, obs.du_r)
            assert all(f != 0 for f in flows)
            assert len({math.copysign(1, f) for f in flows}) == 1


class TestEstimateRelativeDepth:
    def test_round_trip_from_real_flows(self):
        obs = flow_real(RealSceneConfig(f=1, z=1, d1=1, d2=2, dx=1))
        est = estimate_relative_depth(obs)
        assert est is not None
        assert est == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("c", [1.0, -2.0, 0.3])
    def test_equal_flows_flag_flat(self, c):
        est = estimate_relative_depth(FlowObservation(c, c, c))
        assert est is None

    def test_hand_evaluated_ratio(self):
        est = estimate_relative_depth(FlowObservation(2, 1, 0.8))
        assert est == pytest.approx(2 / 3, rel=1e-12)

    @pytest.mark.parametrize("flows", [
        (1e308, 1e-10, 1e-10),       # num and den overflow: inf / inf
        (1e308, 5e307, 1e-10),       # den overflows: num / inf reads 0.0
        (1e308, 1e-10, 5e307),       # num overflows: inf / 1
        (1e305, 1.0, 1e305 / (1.0 + 1e-5)),  # both finite, the ratio overflows
    ])
    def test_overflowing_ratio_is_inconsistent(self, flows):
        with pytest.raises(InconsistentFlowError, match="flow ratios overflow"):
            estimate_relative_depth(FlowObservation(*flows))

    def test_overflowing_real_scene_cannot_be_simulated(self):
        cfg = RealSceneConfig(f=1.0, z=1e-308, d1=1e10, d2=2e10, dx=0.3)
        with pytest.raises(InconsistentFlowError, match="flow ratios overflow"):
            simulate_sequence(cfg, 3, None, starts=None)

    def test_vanishing_denominator_is_inconsistent(self):
        with pytest.raises(InconsistentFlowError):
            estimate_relative_depth(FlowObservation(1.0, 0.7, 1.0))

    def test_zero_flow_components_rejected(self):
        with pytest.raises(InconsistentFlowError):
            estimate_relative_depth(FlowObservation(1.0, 0.0, 0.5))
        with pytest.raises(InconsistentFlowError):
            estimate_relative_depth(FlowObservation(1.0, 0.5, 0.0))

    def test_zero_middle_offset_gives_zero_ratio(self):
        obs = flow_real(RealSceneConfig(f=2, z=1, d1=0, d2=1, dx=0.5))
        est = estimate_relative_depth(obs)
        assert est == 0.0


class TestReplayScene:
    def test_static_carrier_matches_real_scene(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=1)
        obs = flow_replay(cfg, 0.0)
        assert (obs.du_l, obs.du_m, obs.du_r) == pytest.approx((1, 0.5, 1 / 3))

    def test_print_attack_flows_coincide(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=0)
        obs = flow_replay(cfg, 1.0)
        assert (obs.du_l, obs.du_m, obs.du_r) == pytest.approx((1, 1, 1))
        assert estimate_relative_depth(obs) is None

    def test_hand_evaluated_shaking_carrier(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=1)
        obs = flow_replay(cfg, 0.1)
        assert obs.du_l == pytest.approx(1.1)
        assert obs.du_m == pytest.approx(0.6)
        assert obs.du_r == pytest.approx(1.3 / 3)

    def test_rotated_config_rejected(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=1, theta=0.1)
        with pytest.raises(ValueError):
            flow_replay(cfg, 0.0)
        with pytest.raises(ValueError):
            replay_distortion_factor(cfg, 0.0)


class TestReplayDistortionFactor:
    def test_static_carrier_is_perfect_spoof(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=1)
        assert replay_distortion_factor(cfg, 0.0) == 1.0

    def test_hand_evaluated_factor_and_estimate(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=1, d2=2, dx=1)
        factor = replay_distortion_factor(cfg, 0.1)
        assert factor == pytest.approx(1.3 / 1.2, rel=1e-12)
        est = estimate_relative_depth(flow_replay(cfg, 0.1))
        assert est == pytest.approx(0.5 * factor, rel=1e-9)
        assert est == pytest.approx(0.5416666666666666, rel=1e-9)

    def test_equal_offsets_always_undistorted(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=3, d1=1.5, d2=1.5, dx=0.7)
        for dv in (0.0, 0.3, -2.0):
            assert replay_distortion_factor(cfg, dv) == 1.0

    def test_vanishing_denominator_raises(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=1, zb=1, d1=0, d2=1, dx=1)
        with pytest.raises(SingularConfigError):
            replay_distortion_factor(cfg, -1.0)


class TestRotatedCarrier:
    def test_zero_angle_is_identity(self):
        for u in (0.3, 1.7, -0.4):
            assert map_rotated_coordinate(u, 2.0, 0.0) == pytest.approx(u, rel=1e-15)

    def test_hand_evaluated_mapping(self):
        got = map_rotated_coordinate(1, 2, math.pi / 6)
        assert got == pytest.approx(2 * (math.sqrt(3) / 2) / 1.5, rel=1e-12)
        assert got == pytest.approx(ray_plane_remap(1, 2, math.pi / 6), rel=1e-12)

    def test_axis_point_is_fixed(self):
        assert map_rotated_coordinate(0.0, 5.0, 0.7) == 0.0

    def test_mapping_matches_ray_plane_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            zb = rng.uniform(2, 10)
            theta = rng.uniform(-math.pi / 4, math.pi / 4)
            u = rng.uniform(-1.5, 1.5)
            if zb - u * math.sin(theta) <= 0.1:
                continue
            assert map_rotated_coordinate(u, zb, theta) == pytest.approx(
                ray_plane_remap(u, zb, theta), rel=1e-12)

    def test_shaking_rotated_carrier_rejected(self):
        # Rotation formulas take no shake, so a nonzero schedule entry would
        # be ignored; it is refused, however small, while zeros are stepped.
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0,
                                dx=0.3, theta=-0.1)
        for schedule in ([0.05, 0.0, 0.0], [0.0, 0.0, -1e-300]):
            with pytest.raises(ValueError, match="nonzero shake is not modeled"):
                simulate_sequence(cfg, 4, dv_schedule=schedule, starts=STARTS)
        assert (repr(simulate_sequence(cfg, 4, dv_schedule=[0.0, -0.0, 0.0],
                                       starts=STARTS))
                == repr(simulate_sequence(cfg, 4, None, starts=STARTS)))

    def test_degenerate_intersection_rejected(self):
        with pytest.raises(DegenerateRotationError):
            map_rotated_coordinate(2.0, 1.0, 1.5)

    @pytest.mark.parametrize("formula", [flow_rotated, rotation_beta_factors])
    def test_each_end_is_mapped_before_its_start(self, formula):
        # Near, middle, far in turn, the end first: the first coordinate
        # outside the domain (u < 4.29) in that order is the one named.
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0,
                                dx=0.5, theta=1.2)
        for ends, named in ((((5.0, 5.25), (0.5, 0.7)), 5.25),
                            (((0.5, 0.7), (4.0, 4.5)), 4.5),
                            (((0.5, 0.7), (5.0, 4.0)), 5.0)):
            ends += ((0.1, 0.2),)
            with pytest.raises(DegenerateRotationError,
                               match=f"^rotated plane coordinate {named} "):
                formula(cfg, ends)

    def test_zero_angle_equals_static_replay(self):
        cfg = AttackSceneConfig(fa=1, fb=2, za=2, zb=3, d1=0.5, d2=1.5, dx=0.4)
        rot = flow_rotated(cfg, rotated_endpoints(cfg, STARTS))
        rep = flow_replay(cfg, 0.0)
        assert rot.du_l == pytest.approx(rep.du_l, rel=1e-12)
        assert rot.du_m == pytest.approx(rep.du_m, rel=1e-12)
        assert rot.du_r == pytest.approx(rep.du_r, rel=1e-12)

    def test_flow_is_exactly_endpoint_difference(self):
        cfg = AttackSceneConfig(fa=1, fb=1.5, za=2, zb=10, d1=0.5, d2=1.5,
                                dx=0.4, theta=math.pi / 12)
        starts = (1.0, 1.3, 0.7)
        obs = flow_rotated(cfg, rotated_endpoints(cfg, starts))
        dul, dum, dur = (cfg.fa * cfg.dx / cfg.za,
                         cfg.fa * cfg.dx / (cfg.za + cfg.d1),
                         cfg.fa * cfg.dx / (cfg.za + cfg.d2))
        scale = cfg.fb / cfg.zb
        for got, u1, du in zip((obs.du_l, obs.du_m, obs.du_r), starts,
                               (dul, dum, dur)):
            expected = scale * (map_rotated_coordinate(u1 + du, cfg.zb, cfg.theta)
                                - map_rotated_coordinate(u1, cfg.zb, cfg.theta))
            assert got == expected  # same construction, bit for bit

    def test_flow_matches_ray_plane_oracle(self):
        zb, theta, fb = 10.0, math.pi / 12, 1.0
        cfg = AttackSceneConfig(fa=1, fb=fb, za=4, zb=zb, d1=1, d2=3, dx=0.4,
                                theta=theta)
        ul1 = 1.0
        obs = flow_rotated(cfg, rotated_endpoints(cfg, (ul1, 1.4, 0.6)))
        dul = cfg.fa * cfg.dx / cfg.za  # 0.1
        expected = fb / zb * (ray_plane_remap(ul1 + dul, zb, theta)
                              - ray_plane_remap(ul1, zb, theta))
        assert obs.du_l == pytest.approx(expected, rel=1e-12)

    def test_beta_factors_collapse_without_rotation(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=3, d1=0.5, d2=1.5, dx=0.4)
        assert rotation_beta_factors(cfg, rotated_endpoints(cfg, STARTS)) == (1.0, 1.0)

    def test_beta_ordering_under_positive_rotation(self):
        # Middle point above the near point, far point below it, both before
        # and after the motion, with a positive angle and positive coordinates.
        cfg = AttackSceneConfig(fa=1, fb=1, za=5, zb=10, d1=0.05, d2=2.5,
                                dx=0.5, theta=0.6)
        ul1, um1, ur1 = 1.0, 1.6, 0.4
        dul, dum, dur = (cfg.fa * cfg.dx / cfg.za,
                         cfg.fa * cfg.dx / (cfg.za + cfg.d1),
                         cfg.fa * cfg.dx / (cfg.za + cfg.d2))
        assert um1 > ul1 and um1 + dum > ul1 + dul
        assert ur1 < ul1 and ur1 + dur < ul1 + dul
        beta1, beta2 = rotation_beta_factors(
            cfg, rotated_endpoints(cfg, (ul1, um1, ur1)))
        assert beta1 < 1
        assert beta2 > 1

    def test_closed_form_matches_simulated_estimate(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            d2 = rng.uniform(0.2, 3)
            cfg = AttackSceneConfig(
                fa=rng.uniform(0.5, 2), fb=rng.uniform(0.5, 2),
                za=rng.uniform(2, 8), zb=rng.uniform(5, 15),
                d1=rng.uniform(0.05, 0.95) * d2, d2=d2,
                dx=rng.uniform(0.05, 0.5) * rng.choice([-1, 1]),
                theta=rng.uniform(0.05, math.pi / 4) * rng.choice([-1, 1]))
            ends = rotated_endpoints(cfg, (rng.uniform(0.1, 2), rng.uniform(0.1, 2),
                                           rng.uniform(0.1, 2)))
            try:
                closed = closed_form_rotated_ratio(cfg, ends)
            except (DegenerateRotationError, SingularConfigError):
                continue
            est = estimate_relative_depth(flow_rotated(cfg, ends))
            if est is None:
                continue
            assert est == pytest.approx(closed, rel=1e-9)
            checked += 1


class TestSimulateSequence:
    def test_real_scene_series_is_constant(self):
        cfg = RealSceneConfig(f=1, z=2, d1=0.4, d2=1.0, dx=0.3)
        sweep = simulate_sequence(cfg, 10, None, starts=None)
        assert len(sweep) == 9
        assert sweep.index == (0,) * 9
        (_, est, closed), = sweep.steps
        assert est == pytest.approx(0.4, rel=1e-9)
        assert closed == pytest.approx(0.4)

    def test_print_scene_flat_every_frame(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0, dx=0)
        sweep = simulate_sequence(cfg, 6, dv_schedule=[0.05, 0.1, -0.05, 0.02, 0.3],
                                  starts=None)
        assert len(sweep) == 5
        assert all(est is None for _, est, _ in frame_steps(sweep))
        assert all(closed is None for _, _, closed in frame_steps(sweep))

    def test_replay_series_varies_with_shake(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0, dx=0.3)
        schedule = [0.05, 0.1, -0.05, 0.02]
        steps = frame_steps(simulate_sequence(cfg, 5, dv_schedule=schedule,
                                              starts=None))
        ratios = [est for _, est, _ in steps]
        assert np.var(ratios) > 0
        for (_, est, closed), dv in zip(steps, schedule, strict=True):
            assert est == pytest.approx(
                closed_form_replay_ratio(cfg, dv), rel=1e-9)
            assert closed == pytest.approx(
                closed_form_replay_ratio(cfg, dv), rel=1e-12)


    def test_rotated_series_drifts(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=4, zb=10, d1=1, d2=3, dx=0.4,
                                theta=math.pi / 12)
        sweep = simulate_sequence(cfg, 6, None, starts=(1.0, 1.4, 0.6))
        assert sweep.index == tuple(range(5))
        ratios = [est for _, est, _ in sweep.steps]
        assert np.var(ratios) > 0
        for _, est, closed in sweep.steps:
            assert est == pytest.approx(closed, rel=1e-9)

    def test_rotated_carrier_needs_finite_starts(self):
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0,
                                dx=0.3, theta=0.1)
        with pytest.raises(ValueError, match="needs three start coordinates"):
            simulate_sequence(cfg, 3, None, starts=(1.0, 1.2))
        with pytest.raises(ValueError, match="um1 must be finite, got nan"):
            simulate_sequence(cfg, 3, None, starts=(1.0, math.nan, 0.8))
        # A carrier that is not rotated never reads its starts.
        still = replace(cfg, theta=0.0)
        assert (repr(simulate_sequence(still, 3, None, starts=(math.nan,) * 3))
                == repr(simulate_sequence(still, 3, None, starts=None)))

    @pytest.mark.parametrize("dx, schedule, distinct", [
        # A zero shake keeps its sign, so -0.0 and 0.0 are distinct steps.
        (0.3, [0.1, -0.0, 0.1, 0.0, 0.2, -0.0, 0.1, 0.2, 0.0],
         "[0.1, -0.0, 0.0, 0.2]"),
        (0.0, [0.1, -0.2, 0.1, 0.3, -0.2, 0.1], "[0.1, -0.2, 0.3]"),  # print
    ])
    def test_one_formula_call_per_distinct_dv(self, monkeypatch, dx, schedule,
                                              distinct):
        calls = {"flow_replay": [], "closed_form_replay_ratio": []}
        for name, log in calls.items():
            def counted(cfg, dv, _formula=getattr(geometry, name), _log=log):
                _log.append(dv)
                return _formula(cfg, dv)
            monkeypatch.setattr(geometry, name, counted)
        cfg = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0, dx=dx)
        sweep = simulate_sequence(cfg, len(schedule) + 1, schedule,
                                  starts=None)
        assert repr(calls["flow_replay"]) == distinct
        assert repr(calls["closed_form_replay_ratio"]) == (distinct if dx
                                                          else "[]")
        assert repr(frame_steps(sweep)) == repr(reference_simulate_sequence(
            cfg, len(schedule) + 1, schedule))
        # One step per distinct dv, in order of first use.
        first = {}
        for i, dv in zip(sweep.index, schedule, strict=True):
            assert first.setdefault(repr(dv), len(first)) == i
        assert len(sweep.steps) == len(first)

        # A non-finite shake fails at its first step, after the distinct
        # steps before it and no step after it.
        for log in calls.values():
            log.clear()
        with pytest.raises(ValueError, match=r"^dv must be finite, got nan$"):
            simulate_sequence(cfg, 7, [0.1, 0.1, math.nan, 0.2, math.inf, 0.3],
                              starts=None)
        assert calls["flow_replay"] == [0.1]

    def test_bad_requests_rejected(self):
        real = RealSceneConfig(f=1, z=2, d1=0.4, d2=1.0, dx=0.3)
        with pytest.raises(ValueError):
            simulate_sequence(real, 1, None, starts=None)
        with pytest.raises(TypeError, match="dv_schedule"):
            simulate_sequence(real, 5, starts=None)  # None must be said
        with pytest.raises(ValueError):
            simulate_sequence(real, 5, dv_schedule=[0.1] * 4, starts=None)
        replay = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0, dx=0.3)
        with pytest.raises(ValueError):
            simulate_sequence(replay, 5, dv_schedule=[0.1] * 3,  # wrong length
                              starts=None)
        rotated = AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0,
                                    dx=0.3, theta=0.1)
        with pytest.raises(ValueError):
            simulate_sequence(rotated, 5, dv_schedule=[0.1] * 4, starts=STARTS)
        for length in (0, 2, 40):  # an all-zero schedule still needs 4 entries
            with pytest.raises(ValueError, match=f"has {length} entries for 4"):
                simulate_sequence(rotated, 5, dv_schedule=[0.0] * length,
                                  starts=STARTS)


def reference_write_sweep_csv(path, sweeps_by_scene):
    """The csv.writer loop that formatted every row, kept as the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for scene_type, sweep in sweeps_by_scene.items():
            for frame, (observation, ratio, closed_form_ratio) in enumerate(
                    frame_steps(sweep), start=1):
                writer.writerow([
                    scene_type,
                    frame,
                    repr(float(observation.du_l)),
                    repr(float(observation.du_m)),
                    repr(float(observation.du_r)),
                    "" if ratio is None else repr(float(ratio)),
                    "true" if ratio is None else "false",
                    "" if closed_form_ratio is None
                    else repr(float(closed_form_ratio)),
                ])


def flip_zero(value):
    """value, but a zero of the other sign: equal under ==, apart under repr."""
    return -value if value == 0.0 else value


value_st = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(allow_nan=False, allow_infinity=False))
optional_st = st.one_of(st.none(), value_st)
# Names csv.writer must quote (comma, quote, CR, LF) and names it must not.
scene_name_st = st.text(st.sampled_from('ab ,"\r\n\'\t'), max_size=6)


@st.composite
def sweeps(draw):
    """sweeps_by_scene whose frame steps share steps, and whose steps are
    equal in value, or equal but for the sign of a zero, to other steps."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        obs = FlowObservation(*(draw(value_st) for _ in range(3)))
        steps.append((obs, draw(optional_st), draw(optional_st)))
    for obs, ratio, closed in list(steps):
        steps.append((replace(obs), ratio, closed))
        steps.append((FlowObservation(flip_zero(obs.du_l), flip_zero(obs.du_m),
                                      flip_zero(obs.du_r)),
                      None if ratio is None else flip_zero(ratio),
                      None if closed is None else flip_zero(closed)))
    by_scene = {}
    for name in draw(st.lists(scene_name_st, max_size=4, unique=True)):
        index = draw(st.lists(st.integers(0, len(steps) - 1), max_size=6))
        by_scene[name] = Sweep(tuple(steps), tuple(index))
    return by_scene


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        real = simulate_sequence(RealSceneConfig(f=1, z=2, d1=0.4, d2=1.0, dx=0.3), 4,
                                 None, starts=None)
        print_sweep = simulate_sequence(
            AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1.0, dx=0),
            4, dv_schedule=[0.05, 0.1, -0.05], starts=None)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, {"real": real, "print": print_sweep})
        rows = read_sweep_csv(path)
        assert len(rows) == 6
        assert [row["frame"] for row in rows] == [1, 2, 3] * 2
        obs, est, _ = real.steps[0]
        assert rows[0]["scene_type"] == "real"
        assert rows[0]["du_l"] == obs.du_l
        assert rows[0]["ratio"] == est
        assert rows[0]["degenerate_flat"] is False
        assert rows[3]["scene_type"] == "print"
        assert rows[3]["ratio"] is None
        assert rows[3]["degenerate_flat"] is True
        assert rows[3]["closed_form_ratio"] is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_sweep_csv(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sweeps())
    def test_same_bytes_as_a_row_at_a_time_writer(self, tmp_path, by_scene):
        write_sweep_csv(tmp_path / "got.csv", by_scene)
        self.assert_reference_rows(tmp_path / "got.csv", by_scene)

    @staticmethod
    def assert_reference_rows(got_path, sweeps_by_scene):
        """got_path holds the reference writer's bytes, and each row is flat
        exactly when its ratio cell is empty."""
        want_path = got_path.with_name("want.csv")
        reference_write_sweep_csv(want_path, sweeps_by_scene)
        assert got_path.read_bytes() == want_path.read_bytes()
        ratio = SWEEP_CSV_COLUMNS.index("ratio")
        flat = SWEEP_CSV_COLUMNS.index("degenerate_flat")
        with open(got_path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                assert row[flat] == ("true" if row[ratio] == "" else "false"), row

    def test_simulate_flat_column_is_the_empty_ratio(self, tmp_path, monkeypatch):
        written = []

        def capture(path, sweeps_by_scene, _write=write_sweep_csv):
            written.append(sweeps_by_scene)
            _write(path, sweeps_by_scene)
        monkeypatch.setattr(geometry, "write_sweep_csv", capture)
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        (by_scene,) = written
        assert set(by_scene) == {"real", "print", "replay", "rotated"}
        self.assert_reference_rows(tmp_path / "simulation.csv", by_scene)



# -- differential test: stepping one checked scene against per-frame configs --

def finite_starts(coords):
    """The start coordinates, each checked finite as a per-frame config did."""
    for name, u in zip(("ul1", "um1", "ur1"), coords):
        if not math.isfinite(u):
            raise ValueError(f"{name} must be finite, got {u!r}")
    return coords


def reference_simulate_sequence(cfg, n_frames, dv_schedule=None, starts=None):
    """The loop that rebuilt a checked config per frame, kept as the reference.

    It returns each frame step's (observation, ratio, closed_form_ratio).
    A rotated carrier's start coordinates are checked and advanced inline,
    and each of its steps calls the public formulas on its own endpoints.
    """
    if n_frames < 2:
        raise ValueError(f"a sequence needs at least 2 frames, got {n_frames}")
    n_steps = n_frames - 1

    if isinstance(cfg, RealSceneConfig):
        if dv_schedule is not None:
            raise ValueError("dv schedules apply to attack scenes only")
        steps = []
        for t in range(n_steps):
            obs = flow_real(cfg)
            steps.append((obs, estimate_relative_depth(obs), cfg.relative_depth))
        return steps

    if cfg.theta != 0.0:
        if dv_schedule is not None and any(v != 0.0 for v in dv_schedule):
            raise ValueError("a rotated carrier with nonzero shake is not modeled")
        steps = []
        c = cfg
        ul1, um1, ur1 = finite_starts(starts)
        for t in range(n_steps):
            ul2, um2, ur2 = (u1 + c.fa * c.dx / z for u1, z in
                             zip((ul1, um1, ur1),
                                 (c.za, c.za + c.d1, c.za + c.d2)))
            ends = ((ul1, ul2), (um1, um2), (ur1, ur2))
            obs = flow_rotated(cfg, ends)
            steps.append((obs, estimate_relative_depth(obs),
                          closed_form_rotated_ratio(cfg, ends)))
            ul1, um1, ur1 = finite_starts((ul2, um2, ur2))
        return steps

    if dv_schedule is None:
        dv_schedule = [0.0] * n_steps
    if len(dv_schedule) != n_steps:
        raise ValueError(
            f"dv schedule has {len(dv_schedule)} entries for {n_steps} frame steps")
    steps = []
    for dv in dv_schedule:
        if not math.isfinite(dv):
            raise ValueError(f"dv must be finite, got {dv!r}")
        obs = flow_replay(cfg, dv)
        est = estimate_relative_depth(obs)
        closed = None if cfg.dx == 0.0 else closed_form_replay_ratio(cfg, dv)
        steps.append((obs, est, closed))
    return steps


def simulate_outcome(simulate, cfg, n_frames, schedule, starts):
    """Each frame step's step, or the error's type and message."""
    try:
        result = simulate(cfg, n_frames, schedule, starts=starts)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, Sweep):
        # Every step is some frame step's, numbered by first use.
        assert len(result) == n_frames - 1
        assert [i for k, i in enumerate(result.index)
                if i not in result.index[:k]] == list(range(len(result.steps)))
        result = frame_steps(result)
    return result


def nonzero(lo, hi):
    return st.floats(lo, hi).filter(lambda v: v != 0.0)


length_st = st.floats(1e-3, 20.0)
# Values large enough that fa*dx, or a start plus its advance, overflows.
huge_st = st.sampled_from([1e150, 1e300, 1.7e308, -1e300])
motion_st = st.one_of(nonzero(-2.0, 2.0), huge_st, st.just(0.0))
dv_st = st.one_of(nonzero(-1.0, 1.0), st.just(0.0), huge_st,
                  st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def scenes_and_schedules(draw):
    """(cfg, n_frames, dv_schedule, starts) for any of the four scene kinds;
    starts is None but for a rotated carrier."""
    n_frames = draw(st.integers(2, 10))
    n_steps = n_frames - 1
    d2 = draw(length_st)
    d1 = draw(st.floats(0.0, 1.0)) * d2
    kind = draw(st.sampled_from(["real", "print", "replay", "rotated"]))
    if kind == "real":
        cfg = RealSceneConfig(f=draw(length_st), z=draw(length_st), d1=d1,
                              d2=d2, dx=draw(motion_st))
        return cfg, n_frames, None, None
    common = dict(fa=draw(length_st), fb=draw(length_st), za=draw(length_st),
                  d1=d1, d2=d2)
    steps_st = st.lists(dv_st, min_size=n_steps, max_size=n_steps)
    if kind == "rotated":
        # A far carrier and a slow drift keep most sequences in the domain;
        # the huge values and the drift over the steps leave it.
        common.update(fa=draw(st.floats(0.1, 2.0)), za=draw(st.floats(1.0, 20.0)))
        starts = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
        if draw(st.integers(0, 3)) == 0:
            starts[draw(st.integers(0, 2))] = draw(huge_st)
        cfg = AttackSceneConfig(zb=draw(st.floats(5.0, 20.0)),
                                dx=draw(st.one_of(nonzero(-0.5, 0.5), motion_st)),
                                theta=draw(nonzero(-1.5, 1.5)), **common)
        schedule = draw(st.one_of(st.none(), st.just([0.0] * n_steps),
                                  steps_st))
        return cfg, n_frames, schedule, tuple(starts)
    cfg = AttackSceneConfig(zb=draw(length_st),
                            dx=0.0 if kind == "print" else draw(motion_st),
                            **common)
    # A constant shake as well as a drawn one per step; None is no shake.
    shake = draw(nonzero(-1.0, 1.0))
    schedule = draw(st.one_of(st.none(), st.just([shake] * n_steps), steps_st))
    if schedule and draw(st.booleans()):
        # The shake that cancels the recorded motion at the middle point.
        i = draw(st.integers(0, n_steps - 1))
        schedule[i] = -(cfg.fa * cfg.dx) / (cfg.za + cfg.d1)
    return cfg, n_frames, schedule, None


@st.composite
def rotated_leaving(draw):
    """(cfg, n_frames, None, starts) of a rotated carrier one of whose points
    has its end cross the edge u = zb/sin(theta) at a drawn step, now and
    then with a later point's start already at or beyond the edge."""
    n_frames = draw(st.integers(2, 10))
    theta = draw(sign_st) * draw(st.floats(0.1, 1.4))
    d2 = draw(length_st)
    cfg = AttackSceneConfig(fa=draw(st.floats(0.1, 2.0)), fb=draw(length_st),
                            za=draw(st.floats(1.0, 20.0)),
                            zb=draw(st.floats(5.0, 20.0)),
                            d1=draw(st.floats(0.0, 1.0)) * d2, d2=d2,
                            dx=math.copysign(draw(st.floats(0.05, 0.5)), theta),
                            theta=theta)
    edge = cfg.zb / math.sin(theta)
    depths = (cfg.za, cfg.za + cfg.d1, cfg.za + cfg.d2)
    point = draw(st.integers(0, 2))
    step = draw(st.integers(0, n_frames - 2))
    starts = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    flow = cfg.fa * cfg.dx / depths[point]
    starts[point] = edge - flow * (step + draw(st.floats(0.05, 0.95)))
    if point < 2 and draw(st.booleans()):
        later = draw(st.integers(point + 1, 2))
        starts[later] = edge + math.copysign(draw(st.floats(0.0, 1.0)), theta)
    return cfg, n_frames, None, tuple(starts)


NON_FINITE_DV = (AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1,
                                   dx=0.3), 4, [0.1, math.nan, 0.2], None)
OVERFLOWING_START = (AttackSceneConfig(fa=1e300, fb=1, za=2, zb=4, d1=0.4,
                                       d2=1, dx=1e300, theta=-0.2), 3, None,
                     STARTS)
LEAVING_ROTATION = (AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1,
                                      dx=1.5, theta=1.2), 12, None, STARTS)
# fa*dx overflows but fa*fb*dx does not: finite flows, an inf / inf closed form.
OVERFLOWING_CLOSED_FORM = (AttackSceneConfig(fa=2, fb=0.5, za=1, zb=1, d1=0,
                                             d2=1, dx=1.7e308), 3, None, None)
EXACT_CANCELLATION = (AttackSceneConfig(fa=0.5, fb=0.68, za=1, zb=4, d1=0.5,
                                        d2=1, dx=0.15), 3,
                      [0.1, -0.049999999999999996], None)
# The near point's end (4.45) leaves the domain (u < 4.29) at step 0, and so
# does the middle point's start (5.0): the near end is the one named.
END_BEFORE_LATER_START = (AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4,
                                            d2=1, dx=0.5, theta=1.2), 3, None,
                          (4.2, 5.0, 0.5))
# The middle point's end leaves the domain (u > -4.29) at step 3 of 7.
MIDDLE_LEAVES_LATER = (AttackSceneConfig(fa=1, fb=1, za=2, zb=4, d1=0.4, d2=1,
                                         dx=-0.5, theta=-1.2), 8, None,
                       (0.0, -3.5, 0.0))


class TestSteppedSequenceMatchesPerFrameConfigs:
    @pytest.mark.parametrize("case, error", [
        (NON_FINITE_DV, "dv must be finite, got nan"),
        (OVERFLOWING_START, "du_l must be finite, got nan"),
        (LEAVING_ROTATION, "has no valid intersection"),
        (EXACT_CANCELLATION, "exactly cancels carrier shake"),
        (OVERFLOWING_CLOSED_FORM, "closed-form replay ratio overflows to nan"),
        (END_BEFORE_LATER_START, "^rotated plane coordinate 4.45 at angle 1.2 "),
        (MIDDLE_LEAVES_LATER,
         "^rotated plane coordinate -4.333333333333333 at angle -1.2 "),
    ])
    def test_boundary_cases_raise(self, case, error):
        cfg, n_frames, schedule, starts = case
        with pytest.raises(ValueError, match=error):
            reference_simulate_sequence(cfg, n_frames, schedule, starts)
        with pytest.raises(ValueError, match=error):
            simulate_sequence(cfg, n_frames, schedule, starts=starts)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(scenes_and_schedules(), rotated_leaving()))
    @example(NON_FINITE_DV)
    @example(OVERFLOWING_START)
    @example(LEAVING_ROTATION)
    @example(EXACT_CANCELLATION)
    @example(OVERFLOWING_CLOSED_FORM)
    @example(END_BEFORE_LATER_START)
    @example(MIDDLE_LEAVES_LATER)
    def test_same_records_or_same_error(self, case):
        want = simulate_outcome(reference_simulate_sequence, *case)
        got = simulate_outcome(simulate_sequence, *case)
        # Float reprs round-trip, so this is == on every field, except that
        # it tells -0.0 from 0.0 and matches a NaN with a NaN.
        assert repr(got) == repr(want)


# -- property tests at the singular and degenerate-rotation boundaries -------

sign_st = st.sampled_from([-1.0, 1.0])


@st.composite
def replay_scenes(draw):
    """Static replay carriers; callers set the shake near a cancellation.

    d1 stays a tenth of d2 or more: with d1 -> 0 the flow estimate, not the
    closed form, loses its digits near the cancellation.
    """
    d2 = draw(st.floats(0.5, 5.0))
    return AttackSceneConfig(fa=draw(st.floats(0.5, 2.0)),
                             fb=draw(st.floats(0.5, 2.0)),
                             za=draw(st.floats(0.5, 5.0)),
                             zb=draw(st.floats(0.5, 5.0)),
                             d1=draw(st.floats(0.1, 0.9)) * d2, d2=d2,
                             dx=draw(sign_st) * draw(st.floats(0.05, 2.0)))


def cancelling_shake(cfg):
    """The shake at which fa*dx + (za + d1)*dv vanishes, up to rounding."""
    return -(cfg.fa * cfg.dx) / (cfg.za + cfg.d1)


@st.composite
def rotated_near_the_edge(draw):
    """(cfg, starts) of a rotated carrier with one endpoint within a few ulps,
    or a relative 1e-3, of the intersection limit u = zb / sin(theta)."""
    d2 = draw(st.floats(0.2, 3.0))
    theta = draw(sign_st) * draw(st.floats(0.05, 1.4))
    zb = draw(st.floats(5.0, 15.0))
    cfg = AttackSceneConfig(fa=draw(st.floats(0.5, 2.0)), fb=draw(st.floats(0.5, 2.0)),
                            za=draw(st.floats(2.0, 8.0)), zb=zb,
                            d1=draw(st.floats(0.05, 0.95)) * d2, d2=d2,
                            dx=draw(sign_st) * draw(st.floats(0.05, 0.5)),
                            theta=theta)
    edge = zb / math.sin(theta)
    if draw(st.booleans()):
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(0, 4))):
            edge = math.nextafter(edge, toward)
    else:
        edge *= 1.0 + draw(st.floats(-1e-3, 1e-3))
    point = draw(st.integers(0, 2))
    depth = (cfg.za, cfg.za + cfg.d1, cfg.za + cfg.d2)[point]
    # Put the point's start on the edge, or its start so that its end is.
    start = edge if draw(st.booleans()) else edge - cfg.fa * cfg.dx / depth
    starts = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    starts[point] = start
    return cfg, tuple(starts)


def endpoint_gaps(cfg, starts):
    """zb - u*sin(theta) at the start and end of each point, as the module
    evaluates it."""
    s = math.sin(cfg.theta)
    gaps = []
    for u1, z in zip(starts, (cfg.za, cfg.za + cfg.d1, cfg.za + cfg.d2)):
        gaps += [cfg.zb - u1 * s, cfg.zb - (u1 + cfg.fa * cfg.dx / z) * s]
    return gaps


class TestBoundaryProperties:
    @settings(max_examples=150, deadline=None)
    @given(replay_scenes())
    def test_exact_replay_cancellation_is_singular(self, cfg):
        dv = cancelling_shake(cfg)
        assume(cfg.fa * cfg.dx + (cfg.za + cfg.d1) * dv == 0.0)
        with pytest.raises(SingularConfigError):
            replay_distortion_factor(cfg, dv)
        with pytest.raises(SingularConfigError):
            closed_form_replay_ratio(cfg, dv)
        # The middle flow's numerator may cancel to exactly 0 first.
        with pytest.raises((SingularConfigError, InconsistentFlowError)):
            simulate_sequence(cfg, 2, dv_schedule=[dv], starts=None)

    @settings(max_examples=150, deadline=None)
    @given(replay_scenes(), sign_st, st.floats(-6.0, -3.0))
    def test_closed_form_agrees_near_replay_cancellation(self, cfg, sign,
                                                         exponent):
        dv = cancelling_shake(cfg) * (1.0 + sign * 10.0 ** exponent)
        closed = closed_form_replay_ratio(cfg, dv)
        est = estimate_relative_depth(flow_replay(cfg, dv))
        assert est is not None
        assert est == pytest.approx(closed, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(rotated_near_the_edge())
    def test_rotation_edge(self, case):
        cfg, starts = case
        ends = rotated_endpoints(cfg, starts)
        if min(endpoint_gaps(cfg, starts)) <= 0.0:
            with pytest.raises(DegenerateRotationError):
                rotation_beta_factors(cfg, ends)
            with pytest.raises(DegenerateRotationError):
                closed_form_rotated_ratio(cfg, ends)
            with pytest.raises(DegenerateRotationError):
                flow_rotated(cfg, ends)
            return
        closed = closed_form_rotated_ratio(cfg, ends)
        est = estimate_relative_depth(flow_rotated(cfg, ends))
        assert est is not None
        assert est == pytest.approx(closed, rel=1e-9)
