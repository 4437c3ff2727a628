"""The benchmark's four workloads and the checks on their outputs.

An op is one in-process call of depthpad.cli.main(argv). A workload draws
each op's argv (and any input file it names) from the run's seeded random
generator before the op is timed, and checks the files the op wrote after
its timing ends. check() returns a list of error strings; an empty list
means the op's outputs are right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from depthpad import geometry

# Identities that run_demo and multi_frame_report compute with exactly this
# arithmetic hold bit for bit today; the tolerance leaves room for a later
# change that reorders the floating-point operations.
IDENTITY_REL = 1e-12
# The oracle gap (1 - beta) * depth_term is a difference of two scores that
# share the beta * b_hat term, so it carries the rounding of that term.
ORACLE_GAP_REL = 1e-9
REFERENCE_REL = 1e-9
RATE_ABS = 1e-12


@dataclass
class Op:
    argv: list
    outputs: tuple          # files the op must write; removed before it runs
    expect: dict = field(default_factory=dict)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# -- demo ---------------------------------------------------------------------

DEMO_DEFAULTS = {"alpha": 0.8, "beta": 0.9, "frames": 5}
REFERENCE_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(oracle: bool) -> Path:
    mode = "oracle" if oracle else "full"
    return REFERENCE_DIR / f"demo-{mode}-seed{REFERENCE_SEED}.json"


def demo_argv(seed: int, oracle: bool, out: Path) -> list:
    return (["demo"] + (["--oracle"] if oracle else [])
            + ["--seed", str(seed), "--out", str(out)])


def check_demo_report(report: dict, seed: int, oracle: bool) -> list:
    """The identities every demo.json must satisfy."""
    errors = []
    if report.get("seed") != seed or report.get("oracle") is not oracle:
        errors.append(f"report echoes seed {report.get('seed')!r}, oracle "
                      f"{report.get('oracle')!r}; ran seed {seed}, "
                      f"oracle {oracle}")
    params = report["params"]
    for key, value in DEMO_DEFAULTS.items():
        if params.get(key) != value:
            errors.append(f"params.{key} is {params.get(key)!r}, "
                          f"expected the default {value!r}")
    beta = params["beta"]
    for kind in ("living", "spoof"):
        part = report[kind]
        losses = part["losses"]
        identities = (
            ("depth_total = absolute + contrastive", losses["depth_total"],
             losses["absolute"] + losses["contrastive"]),
            ("multi_total = beta*binary + (1-beta)*depth_total",
             losses["multi_total"],
             beta * losses["binary"] + (1.0 - beta) * losses["depth_total"]),
            ("score = beta*b_hat + (1-beta)*depth_term", part["score"],
             beta * part["b_hat"] + (1.0 - beta) * part["depth_term"]),
        )
        for label, got, want in identities:
            if not _close(got, want, IDENTITY_REL):
                errors.append(f"{kind}: {label} fails: {got!r} vs {want!r}")
    gap = report["score_gap"]
    want_gap = report["living"]["score"] - report["spoof"]["score"]
    if not _close(gap, want_gap, IDENTITY_REL):
        errors.append(f"score_gap {gap!r} != living - spoof {want_gap!r}")
    if oracle:
        depth_gap = (1.0 - beta) * report["living"]["depth_term"]
        if not _close(gap, depth_gap, ORACLE_GAP_REL):
            errors.append(f"oracle gap {gap!r} != (1-beta)*living depth_term "
                          f"{depth_gap!r}")
        if report["spoof"]["depth_term"] != 0.0:
            errors.append("oracle spoof depth_term is not 0")
        if report.get("oracle_gap_ok") is not True or gap < 0.5 * (1 - beta):
            errors.append(f"oracle gap {gap!r} below 0.5*(1-beta)")
    return errors


def compare_to_reference(got, ref, where: str = "demo.json") -> list:
    """Same structure, equal strings and flags, numbers to REFERENCE_REL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != reference keys {sorted(ref)}"]
        return [e for key in ref
                for e in compare_to_reference(got[key], ref[key], f"{where}.{key}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} != reference {ref!r}"]
        return [e for i, (g, r) in enumerate(zip(got, ref))
                for e in compare_to_reference(g, r, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(ref, numeric) and not isinstance(ref, bool)
            and isinstance(got, numeric) and not isinstance(got, bool)):
        if _close(got, ref, REFERENCE_REL):
            return []
    elif type(got) is type(ref) and got == ref:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


class Demo:
    """demo --seed s (or demo --oracle --seed s) with the default settings."""

    def __init__(self, oracle: bool):
        self.oracle = oracle

    def prepare(self, work: Path, seed: int) -> None:
        """Nothing to build: every demo input is drawn per op."""

    def make_op(self, rng, work: Path) -> Op:
        seed = int(rng.integers(0, 1_000_000))
        return Op(demo_argv(seed, self.oracle, work), (work / "demo.json",),
                  {"seed": seed})

    def check(self, op: Op) -> list:
        report = json.loads(op.outputs[0].read_text())
        return check_demo_report(report, op.expect["seed"], self.oracle)

    def reference_ops(self, work: Path) -> list:
        """The pinned seed in both modes, each checked against its stored report."""
        return [Op(demo_argv(REFERENCE_SEED, oracle, work),
                   (work / "demo.json",),
                   {"seed": REFERENCE_SEED, "oracle": oracle})
                for oracle in (False, True)]

    def check_reference(self, op: Op) -> list:
        report = json.loads(op.outputs[0].read_text())
        oracle = op.expect["oracle"]
        ref = json.loads(reference_path(oracle).read_text())
        return (check_demo_report(report, REFERENCE_SEED, oracle)
                + compare_to_reference(report, ref))


# -- sweep --------------------------------------------------------------------

SWEEP_FRAMES = 32
SWEEP_SCENES = ("real", "print", "replay", "rotated")
SWEEP_REL = 1e-9
# Next to a root of the estimator's numerator (ratio near 0) or denominator
# (ratio blowing up) the simulated ratio loses digits to cancellation, and
# 1e-9 relative is out of reach. The check allows SWEEP_REL plus this many
# units of the estimate's condition number 1/|num| + 1/|den|, computed from
# the written flows. Over 5e4 draws the largest such rounding seen was 6e-12.
SWEEP_CONDITIONED = 1e-10
# Rotated carriers drift by fa*dx/za <= 2*dx per frame step. With |dx| <=
# 0.15, start coordinates <= 2 and 31 steps, |u| <= 6.65 and
# |u*sin(theta)| <= 4.7 < zb (>= 5), so no frame leaves the modelled region.
SWEEP_MAX_DX = 0.15


def draw_sweep_config(rng) -> dict:
    """Acceptance-suite ranges (rotated carrier; real scene for f and z)."""
    def signed(lo, hi):
        return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))

    d2 = float(rng.uniform(0.2, 3))
    return {
        "f": float(rng.uniform(0.5, 5)), "z": float(rng.uniform(0.5, 10)),
        "fa": float(rng.uniform(0.5, 2)), "fb": float(rng.uniform(0.5, 2)),
        "za": float(rng.uniform(2, 8)), "zb": float(rng.uniform(5, 15)),
        "d1": float(rng.uniform(0.05, 0.95)) * d2, "d2": d2,
        "dx": signed(0.05, SWEEP_MAX_DX),
        "theta": signed(0.05, math.pi / 4),
        "ul1": float(rng.uniform(0.1, 2)), "um1": float(rng.uniform(0.1, 2)),
        "ur1": float(rng.uniform(0.1, 2)),
        "dv_schedule": [signed(0.05, 0.5) for _ in range(8)],
    }


def write_config(path: Path, config: dict) -> None:
    lines = ["# benchmark sweep draw", f"scenes = {','.join(SWEEP_SCENES)}"]
    for key, value in config.items():
        text = (",".join(repr(v) for v in value) if isinstance(value, list)
                else repr(value))
        lines.append(f"{key} = {text}")
    path.write_text("\n".join(lines) + "\n")


def check_sweep_rows(rows: list) -> list:
    errors = []
    steps = SWEEP_FRAMES - 1
    if len(rows) != len(SWEEP_SCENES) * steps:
        return [f"{len(rows)} rows, expected {len(SWEEP_SCENES)} x {steps}"]
    for i, row in enumerate(rows):
        scene = SWEEP_SCENES[i // steps]
        where = f"row {i + 2} ({scene} frame {row['frame']})"
        if row["scene_type"] != scene or row["frame"] != i % steps + 1:
            errors.append(f"{where}: out of order, read {row['scene_type']}")
            continue
        if scene == "print":
            if not row["degenerate_flat"] or row["ratio"] is not None:
                errors.append(f"{where}: print row is not degenerate_flat")
            continue
        ratio, closed = row["ratio"], row["closed_form_ratio"]
        if row["degenerate_flat"] or ratio is None or closed is None:
            errors.append(f"{where}: missing ratio or closed form")
            continue
        num = row["du_l"] / row["du_m"] - 1.0
        den = row["du_l"] / row["du_r"] - 1.0
        if num == 0.0 or den == 0.0:
            errors.append(f"{where}: flows give a zero numerator or denominator")
            continue
        allowed = SWEEP_REL + SWEEP_CONDITIONED * (1 / abs(num) + 1 / abs(den))
        if not _close(ratio, closed, allowed):
            errors.append(f"{where}: ratio {ratio!r} != closed form {closed!r}")
    return errors


class Sweep:
    """simulate --config <drawn> --frames 32 over all four scenes."""

    def prepare(self, work: Path, seed: int) -> None:
        """Nothing to build: every sweep config is drawn per op."""

    def make_op(self, rng, work: Path) -> Op:
        config_path = work / "sweep.cfg"
        write_config(config_path, draw_sweep_config(rng))
        argv = ["simulate", "--config", str(config_path),
                "--frames", str(SWEEP_FRAMES), "--out", str(work)]
        return Op(argv, (work / "simulation.csv", work / "simulation.svg"))

    def check(self, op: Op) -> list:
        csv_path, svg_path = op.outputs
        errors = check_sweep_rows(geometry.read_sweep_csv(csv_path))
        if not svg_path.read_text().startswith("<svg"):
            errors.append("simulation.svg does not start with <svg")
        return errors


# -- metrics ------------------------------------------------------------------

N_RECORDS = 100_000
LIVING_SHARE = 0.3
ATTACK_TAGS = ("print", "replay", "mask", "")   # "" leaves the attack untagged
SUMMARY_KEYS = {"threshold", "apcer", "bpcer", "acer", "hter",
                "per_pai_apcer", "n_living", "n_attack"}


def recount(scores, living, tags, threshold: float) -> dict:
    """metrics.json recomputed with numpy from the generator's arrays.

    Untagged attacks group as "attack", the summary's documented grouping.
    """
    accepted = scores >= threshold
    attack = ~living
    n_living, n_attack = int(living.sum()), int(attack.sum())
    bpcer = int((living & ~accepted).sum()) / n_living
    far = int((attack & accepted).sum()) / n_attack
    per_pai = {}
    for code, tag in enumerate(ATTACK_TAGS):
        group = attack & (tags == code)
        if group.any():
            per_pai[tag or "attack"] = (int((group & accepted).sum())
                                        / int(group.sum()))
    apcer = max(per_pai.values())
    return {"threshold": threshold, "apcer": apcer, "bpcer": bpcer,
            "acer": (apcer + bpcer) / 2.0, "hter": (bpcer + far) / 2.0,
            "per_pai_apcer": dict(sorted(per_pai.items())),
            "n_living": n_living, "n_attack": n_attack}


def check_summary(summary: dict, want: dict) -> list:
    if set(summary) != SUMMARY_KEYS:
        return [f"metrics.json keys {sorted(summary)} != {sorted(SUMMARY_KEYS)}"]
    errors = []
    for key in ("threshold", "n_living", "n_attack"):
        if summary[key] != want[key]:
            errors.append(f"{key} is {summary[key]!r}, recount {want[key]!r}")
    rates = [(k, summary[k], want[k]) for k in ("apcer", "bpcer", "acer", "hter")]
    if set(summary["per_pai_apcer"]) != set(want["per_pai_apcer"]):
        errors.append(f"per_pai_apcer groups {sorted(summary['per_pai_apcer'])} "
                      f"!= recount {sorted(want['per_pai_apcer'])}")
    else:
        rates += [(f"per_pai_apcer.{k}", v, want["per_pai_apcer"][k])
                  for k, v in summary["per_pai_apcer"].items()]
    for key, got, expected in rates:
        if abs(got - expected) > RATE_ABS:
            errors.append(f"{key} is {got!r}, recount {expected!r}")
    return errors


class Metrics:
    """metrics records.csv --threshold t over 1e5 generated records."""

    def prepare(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        living = rng.random(N_RECORDS) < LIVING_SHARE
        scores = np.where(living, rng.beta(5.0, 2.0, N_RECORDS),
                          rng.beta(2.0, 5.0, N_RECORDS))
        tags = rng.integers(0, len(ATTACK_TAGS), N_RECORDS)
        lines = ["score,label,attack_kind"]
        for score, is_living, tag in zip(scores.tolist(), living.tolist(),
                                         tags.tolist()):
            if is_living:
                lines.append(f"{score!r},living,")
            else:
                lines.append(f"{score!r},attack,{ATTACK_TAGS[tag]}")
        self.records = work / "records.csv"
        self.records.write_text("\n".join(lines) + "\n")
        self.scores, self.living = scores, living
        self.tags = np.where(living, -1, tags)

    def make_op(self, rng, work: Path) -> Op:
        threshold = float(rng.uniform(0.3, 0.7))
        argv = ["metrics", str(self.records), "--threshold", repr(threshold),
                "--out", str(work)]
        return Op(argv, (work / "metrics.json",), {"threshold": threshold})

    def check(self, op: Op) -> list:
        summary = json.loads(op.outputs[0].read_text())
        want = recount(self.scores, self.living, self.tags,
                       op.expect["threshold"])
        return check_summary(summary, want)


WORKLOADS = {
    "demo-full": lambda: Demo(oracle=False),
    "demo-oracle": lambda: Demo(oracle=True),
    "sweep": Sweep,
    "metrics-1e5": Metrics,
}
