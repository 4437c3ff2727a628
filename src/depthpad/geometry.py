"""Closed-form camera geometry of living and spoofed face motion.

A pinhole camera watches either a real face or an attack carrier (a print or
a screen replaying a recorded face). Three facial points at different depths
move vertically; their image-plane optical flows let an observer estimate the
relative depth d1/d2 between the points. For a live face that estimate is the
true ratio, and a print, whose three flows coincide, gives none (None: the
print signature). For attacks the recording camera and the realistic camera
compose, and carrier shake dv or carrier rotation distorts the estimate in
ways computed here in closed form, per frame step: each replay formula takes
its step's dv and each rotation formula its step's (start, end) endpoints
(see rotated_endpoints). simulate_sequence steps a scene through these
formulas and returns a Sweep: its distinct (observation, ratio,
closed_form_ratio) steps and the step of each frame step.

Every quantity shares one arbitrary length unit (only ratios matter) and all
motion is restricted to the vertical axis. All functions are pure.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

# Relative slack when deciding that all three flows coincide (print signature).
# Inputs are exact closed-form simulations, so this only absorbs float noise.
EPS_FLAT = 1e-9


class InconsistentFlowError(ValueError):
    """The observed flows admit no relative-depth estimate."""


class SingularConfigError(ValueError):
    """Scene parameters cancel exactly; the requested quantity is undefined."""


class DegenerateRotationError(ValueError):
    """The viewing ray misses the rotated carrier plane."""


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_depth_offsets(d1: float, d2: float) -> None:
    if d2 <= 0:
        raise ValueError(f"largest depth offset must be positive, got {d2}")
    if not 0 <= d1 <= d2:
        raise ValueError(f"need 0 <= d1 <= d2, got d1={d1}, d2={d2}")


@dataclass(frozen=True)
class RealSceneConfig:
    """A live face in front of the camera.

    f: focal distance; z: distance from the focal point to the nearest facial
    point; d1, d2: depth offsets of the middle and far points behind the near
    point (d2 is the largest offset, so d1/d2 is in [0, 1]); dx: vertical
    displacement of the face between the two frames.
    """

    f: float
    z: float
    d1: float
    d2: float
    dx: float

    def __post_init__(self) -> None:
        for name in ("f", "z", "d1", "d2", "dx"):
            _check_finite(name, getattr(self, name))
        if self.f <= 0:
            raise ValueError(f"focal distance must be positive, got {self.f}")
        if self.z <= 0:
            raise ValueError(f"near-point distance must be positive, got {self.z}")
        _check_depth_offsets(self.d1, self.d2)

    @property
    def relative_depth(self) -> float:
        """True relative depth d1/d2 of the middle point."""
        return self.d1 / self.d2


@dataclass(frozen=True)
class AttackSceneConfig:
    """A recorded face shown to the realistic camera on a carrier.

    fa, za describe the recording camera (za measured to the nearest facial
    point in the recorded scene); fb, zb describe the realistic camera watching
    the carrier. dx is the facial displacement inside the recorded content
    (0 for a print) and theta the carrier rotation angle in radians. Carrier
    shake and a rotated carrier's recording-plane coordinates vary per frame
    step, so they are arguments of the formulas and simulate_sequence, not
    fields.
    """

    fa: float
    fb: float
    za: float
    zb: float
    d1: float
    d2: float
    dx: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fa", "fb", "za", "zb", "d1", "d2", "dx", "theta"):
            _check_finite(name, getattr(self, name))
        for name in ("fa", "fb", "za", "zb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        _check_depth_offsets(self.d1, self.d2)
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie in (-pi/2, pi/2), got {self.theta}")

    @property
    def relative_depth(self) -> float:
        return self.d1 / self.d2


@dataclass(frozen=True)
class FlowObservation:
    """Signed vertical flows of the near/middle/far point projections."""

    du_l: float
    du_m: float
    du_r: float

    def __post_init__(self) -> None:
        # x * 0.0 is 0 for finite x and NaN otherwise, so one test covers all
        # three; the walk that names the first bad flow runs only on failure.
        if not math.isfinite(self.du_l * 0.0 + self.du_m * 0.0 + self.du_r * 0.0):
            for name in ("du_l", "du_m", "du_r"):
                _check_finite(name, getattr(self, name))


def flow_real(cfg: RealSceneConfig) -> FlowObservation:
    """Image-plane flows of the three points for a live face moving by dx."""
    return FlowObservation(
        du_l=cfg.f * cfg.dx / cfg.z,
        du_m=cfg.f * cfg.dx / (cfg.z + cfg.d1),
        du_r=cfg.f * cfg.dx / (cfg.z + cfg.d2),
    )


def estimate_relative_depth(obs: FlowObservation) -> Optional[float]:
    """Recover d1/d2 from the three observed flows.

    Returns None when both flow ratios are within EPS_FLAT of 1: all three
    flows coincide, so both estimated depths are zero and the scene is a
    plane (the print signature). Raises InconsistentFlowError when only the
    denominator ratio collapses, when du_m or du_r is exactly zero, or when
    a ratio overflows.
    """
    if obs.du_m == 0.0 or obs.du_r == 0.0:
        raise InconsistentFlowError(
            "du_m and du_r must be nonzero to estimate relative depth")
    num = obs.du_l / obs.du_m - 1.0
    den = obs.du_l / obs.du_r - 1.0
    if abs(den) <= EPS_FLAT:
        if abs(num) <= EPS_FLAT:
            return None
        raise InconsistentFlowError(
            "far-point flow matches near-point flow while middle does not; "
            "the estimate denominator vanishes")
    ratio = num / den
    # x * 0.0 is NaN unless x is finite; a finite num / inf den reads 0.0.
    if not math.isfinite(num * 0.0 + den * 0.0 + ratio):
        raise InconsistentFlowError(
            f"the flow ratios overflow: estimate {num!r} / {den!r}")
    return ratio


def _check_translating(cfg: AttackSceneConfig) -> None:
    if cfg.theta != 0.0:
        raise ValueError("replay formulas model a translating carrier; theta must be 0")


def flow_replay(cfg: AttackSceneConfig, dv: float) -> FlowObservation:
    """Realistic-camera flows for a translating carrier (theta must be 0).

    The recorded motion and the carrier shake dv compose; a print attack is
    the sub-case dx = 0.
    """
    _check_translating(cfg)
    fa, fb, za, zb = cfg.fa, cfg.fb, cfg.za, cfg.zb
    return FlowObservation(
        du_l=(fa * fb * cfg.dx + za * fb * dv) / (za * zb),
        du_m=(fa * fb * cfg.dx + (za + cfg.d1) * fb * dv) / ((za + cfg.d1) * zb),
        du_r=(fa * fb * cfg.dx + (za + cfg.d2) * fb * dv) / ((za + cfg.d2) * zb),
    )


def replay_distortion_factor(cfg: AttackSceneConfig, dv: float) -> float:
    """Multiplier turning the true d1/d2 into the replay-scene estimate.

    Equals 1 exactly when dv = 0 (the perfect spoofing scene) or d1 = d2.
    """
    _check_translating(cfg)
    den = cfg.fa * cfg.dx + (cfg.za + cfg.d1) * dv
    if den == 0.0:
        raise SingularConfigError(
            "recorded motion exactly cancels carrier shake for the middle point")
    return (cfg.fa * cfg.dx + (cfg.za + cfg.d2) * dv) / den


def closed_form_replay_ratio(cfg: AttackSceneConfig, dv: float) -> float:
    """Replay-scene relative-depth estimate without simulating flows."""
    ratio = cfg.relative_depth * replay_distortion_factor(cfg, dv)
    if not math.isfinite(ratio):
        raise ValueError(f"the closed-form replay ratio overflows to {ratio!r}")
    return ratio


def _projector(zb: float, theta: float):
    """project(u) -> (gap, image) of rotated-plane coordinate u, with sin and
    cos of theta computed once: the viewing ray meets the plane where
    gap = zb - u*sin(theta) > 0, at image zb*u*cos(theta) / gap."""
    sin, cos = math.sin(theta), math.cos(theta)

    def project(u: float) -> tuple[float, float]:
        gap = zb - u * sin
        if gap <= 0:
            raise DegenerateRotationError(
                f"rotated plane coordinate {u} at angle {theta} has no valid "
                f"intersection (zb - u*sin(theta) = {gap})")
        return gap, zb * u * cos / gap
    return project


def map_rotated_coordinate(u: float, zb: float, theta: float) -> float:
    """Re-project a rotated-plane coordinate onto the vertical carrier plane.

    The carrier plane pivots by theta about its intersection with the optical
    axis; a material point at plane coordinate u lands on the vertical plane
    at zb*u*cos(theta) / (zb - u*sin(theta)).
    """
    if zb <= 0:
        raise ValueError(f"camera-to-carrier distance must be positive, got {zb}")
    return _projector(zb, theta)(u)[1]


Endpoints = tuple[tuple[float, float], ...]


def check_starts(starts: Sequence[float]) -> None:
    """Reject anything but three finite start coordinates (ul1, um1, ur1)."""
    if len(starts) != 3:
        raise ValueError(f"a rotated carrier needs three start coordinates "
                         f"(ul1, um1, ur1), got {starts!r}")
    for name, u in zip(("ul1", "um1", "ur1"), starts):
        _check_finite(name, u)


def _recording_flows(cfg: AttackSceneConfig) -> list[float]:
    return [cfg.fa * cfg.dx / z for z in (cfg.za, cfg.za + cfg.d1, cfg.za + cfg.d2)]


def rotated_endpoints(cfg: AttackSceneConfig,
                      starts: Sequence[float]) -> Endpoints:
    """(start, end) recording-plane coordinates of the near, middle, far points.

    starts holds the near, middle and far start coordinates of the frame
    step; each end is its start displaced by that point's recording flow
    fa*dx / (za + depth offset) inside the recorded content.
    """
    return tuple((u1, u1 + du) for u1, du in zip(starts, _recording_flows(cfg)))


def _project_ends(cfg: AttackSceneConfig, ends: Endpoints) -> tuple:
    """(start gaps, start images, end gaps, end images) of the three points,
    near to far, each point's end projected before its start."""
    project = _projector(cfg.zb, cfg.theta)
    last, first = zip(*((project(u2), project(u1)) for u1, u2 in ends))
    return (*zip(*first), *zip(*last))


def _rotated_flow(scale: float, first, last) -> FlowObservation:
    return FlowObservation(scale * (last[0] - first[0]),
                           scale * (last[1] - first[1]),
                           scale * (last[2] - first[2]))


def flow_rotated(cfg: AttackSceneConfig, ends: Endpoints) -> FlowObservation:
    """Realistic-camera flows for a carrier rotated by cfg.theta.

    Each recording-plane flow is mapped through the rotated plane as the
    difference of map_rotated_coordinate at its end and start coordinates,
    then scaled onto the realistic image plane by fb/zb. ends holds the three
    points' (start, end) pairs.
    """
    _, first, _, last = _project_ends(cfg, ends)
    return _rotated_flow(cfg.fb / cfg.zb, first, last)


def _beta_factors(first, last) -> tuple[float, float]:
    den_l = first[0] * last[0]
    return first[1] * last[1] / den_l, first[2] * last[2] / den_l


def rotation_beta_factors(cfg: AttackSceneConfig,
                          ends: Endpoints) -> tuple[float, float]:
    """Distortion factors (beta1, beta2) introduced by carrier rotation.

    beta1 scales the near/middle flow ratio, beta2 the near/far one; both are
    products of the per-endpoint intersection denominators. With theta = 0
    both collapse to exactly 1. An endpoint outside the rotated plane's
    domain fails as in flow_rotated.
    """
    first, _, last, _ = _project_ends(cfg, ends)
    return _beta_factors(first, last)


def _rotated_ratio(cfg: AttackSceneConfig, beta1: float, beta2: float) -> float:
    num = (cfg.d1 / cfg.za + 1.0) * beta1 - 1.0
    den = (cfg.d2 / cfg.za + 1.0) * beta2 - 1.0
    if den == 0.0:
        raise SingularConfigError("rotation factors cancel the estimate denominator")
    return num / den


def closed_form_rotated_ratio(cfg: AttackSceneConfig, ends: Endpoints) -> float:
    """Rotated-carrier relative-depth estimate without simulating flows."""
    return _rotated_ratio(cfg, *rotation_beta_factors(cfg, ends))


@dataclass(frozen=True)
class Sweep:
    """A simulated sequence: distinct (observation, ratio, closed_form_ratio)
    steps, and index[t], the position in steps of frame step t (frame t + 1).
    ratio is the estimate, None for the print signature. len() is the number
    of frame steps."""

    steps: tuple[tuple[FlowObservation, Optional[float], Optional[float]], ...]
    index: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.index)


def simulate_sequence(cfg: RealSceneConfig | AttackSceneConfig, n_frames: int,
                      dv_schedule: Optional[Sequence[float]], *,
                      starts: Optional[Sequence[float]]) -> Sweep:
    """The relative-depth estimates of an n_frames video, as a Sweep.

    n_frames frames yield n_frames - 1 frame steps. A dv schedule holds one
    shake value per frame step, or is None for no shake; real scenes accept
    only None and rotated carriers only None or zeros. A rotated carrier
    (theta != 0) advances its start coordinates starts = (ul1, um1, ur1) by
    each step's recording flows, so its estimates drift while a real scene's
    series stays constant; other scenes ignore starts.

    A real scene has one step, a translating carrier one per distinct dv (a
    zero keeps its sign) and a rotated carrier one per frame step. Every value
    and every error is what the public formulas give for each step on its
    own; an invalid dv fails at its first step.
    """
    if n_frames < 2:
        raise ValueError(f"a sequence needs at least 2 frames, got {n_frames}")
    n_steps = n_frames - 1

    # cfg was checked when it was built; each step checks only what it changes.
    if isinstance(cfg, RealSceneConfig):
        if dv_schedule is not None:
            raise ValueError("dv schedules apply to attack scenes only")
        obs = flow_real(cfg)
        return Sweep(((obs, estimate_relative_depth(obs), cfg.relative_depth),),
                     (0,) * n_steps)

    if dv_schedule is not None and len(dv_schedule) != n_steps:
        raise ValueError(
            f"dv schedule has {len(dv_schedule)} entries for {n_steps} frame steps")
    steps = []
    if cfg.theta != 0.0:
        if dv_schedule is not None and any(v != 0.0 for v in dv_schedule):
            raise ValueError("a rotated carrier with nonzero shake is not modeled")
        check_starts(starts)
        # A step's start is the last step's end, so after step 0 each step
        # projects only its ends. A non-finite end fails in its own step (it
        # leaves the domain or makes a non-finite flow), so it needs no check.
        ends = rotated_endpoints(cfg, starts)
        gaps0, images0, gaps, images = _project_ends(cfg, ends)
        project, scale = _projector(cfg.zb, cfg.theta), cfg.fb / cfg.zb
        coords, flows = [u2 for _, u2 in ends], _recording_flows(cfg)
        for t in range(n_steps):
            if t:
                coords = list(map(operator.add, coords, flows))
                gaps0, images0 = gaps, images
                gaps, images = zip(*map(project, coords))
            obs = _rotated_flow(scale, images0, images)
            steps.append((obs, estimate_relative_depth(obs),
                          _rotated_ratio(cfg, *_beta_factors(gaps0, gaps))))
        return Sweep(tuple(steps), tuple(range(n_steps)))

    # A step depends only on its dv, so a repeated value shares its step and
    # is checked once. The key keeps the sign of a zero shake, as repr does.
    index, seen = [], {}
    for dv in [0.0] * n_steps if dv_schedule is None else dv_schedule:
        key = (dv, math.copysign(1.0, dv))
        i = seen.get(key)
        if i is None:
            _check_finite("dv", dv)
            obs = flow_replay(cfg, dv)
            ratio = estimate_relative_depth(obs)
            closed = None if cfg.dx == 0.0 else closed_form_replay_ratio(cfg, dv)
            i = seen[key] = len(steps)
            steps.append((obs, ratio, closed))
        index.append(i)
    return Sweep(tuple(steps), tuple(index))


SWEEP_CSV_COLUMNS = ("scene_type", "frame", "du_l", "du_m", "du_r",
                     "ratio", "degenerate_flat", "closed_form_ratio")


def write_sweep_csv(path, sweeps_by_scene: dict[str, Sweep]) -> None:
    """Serialize sweep results; floats use repr so parsing round-trips exactly.

    Each distinct step is formatted once and the file is written with a
    single call. The bytes are those of csv.writer writing every frame
    step's row on its own: minimal quoting and CRLF line ends.
    """
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for scene_type, sweep in sweeps_by_scene.items():
        name = _csv_cell(scene_type)
        tails = [",".join((
            repr(float(obs.du_l)),
            repr(float(obs.du_m)),
            repr(float(obs.du_r)),
            "" if ratio is None else repr(float(ratio)),
            "true" if ratio is None else "false",
            "" if closed is None else repr(float(closed)),
        )) for obs, ratio, closed in sweep.steps]
        lines += [f"{name},{frame},{tails[i]}"
                  for frame, i in enumerate(sweep.index, start=1)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _csv_cell(text: str) -> str:
    """text as csv.writer's default dialect writes it in a row of cells."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_sweep_csv(path) -> list[dict]:
    """Parse a sweep CSV back into typed row dicts."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SWEEP_CSV_COLUMNS:
            raise ValueError(f"unexpected sweep CSV header: {reader.fieldnames}")
        for raw in reader:
            rows.append({
                "scene_type": raw["scene_type"],
                "frame": int(raw["frame"]),
                "du_l": float(raw["du_l"]),
                "du_m": float(raw["du_m"]),
                "du_r": float(raw["du_r"]),
                "ratio": None if raw["ratio"] == "" else float(raw["ratio"]),
                "degenerate_flat": raw["degenerate_flat"] == "true",
                "closed_form_ratio": (None if raw["closed_form_ratio"] == ""
                                      else float(raw["closed_form_ratio"])),
            })
    return rows
