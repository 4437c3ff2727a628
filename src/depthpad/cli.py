"""Command line front end.

Subcommands:
  simulate  - run the camera-geometry scene sweep, write CSV and an SVG plot
  demo      - synthetic end-to-end pipeline (labels, motion features,
              recurrence, fusion, losses, scores) reported as JSON
  metrics   - compute PAD metrics from a records CSV, reported as JSON

Settings resolve as command line > config file > defaults. The config file is
flat "key = value" text with '#' comments. Exit codes: 0 success, 2 usage
error, 3 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import geometry


class UsageError(Exception):
    """Bad flags or config file; maps to exit code 2."""


class DataError(Exception):
    """Bad input data or an unusable scene; maps to exit code 3."""


# All recognized config-file fields with their parsers and defaults.
def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _split_list(text: str, what: str) -> list[str]:
    """Comma-separated entries, stripped. An empty entry, as from a doubled,
    leading or trailing comma, is an error, never silently dropped."""
    parts = [part.strip() for part in text.split(",")]
    if parts == [""]:
        raise ValueError(f"expected at least one comma-separated {what}")
    for index, part in enumerate(parts, start=1):
        if not part:
            raise ValueError(f"entry {index} of {len(parts)} is empty")
    return parts


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in _split_list(text, "number")]


SCENE_NAMES = ("real", "print", "replay", "rotated")


def _parse_scenes(text: str) -> list[str]:
    names = _split_list(text, "name")
    for index, name in enumerate(names):
        if name not in SCENE_NAMES:
            raise ValueError(f"unknown scene type {name!r}; choose from {SCENE_NAMES}")
        if name in names[:index]:
            raise ValueError(f"scene {name!r} is listed twice")
    return names


CONFIG_FIELDS = {
    "f": (float, 1.0), "z": (float, 2.0),
    "fa": (float, 1.0), "fb": (float, 1.0),
    "za": (float, 2.0), "zb": (float, 4.0),
    "d1": (float, 0.4), "d2": (float, 1.0),
    "dx": (float, 0.3), "theta": (float, math.pi / 12),
    "ul1": (float, 1.0), "um1": (float, 1.3), "ur1": (float, 0.7),
    "dv_schedule": (_parse_floats, [0.05, 0.1, -0.05, 0.02]),
    "scenes": (_parse_scenes, list(SCENE_NAMES)),
    "frames": (int, 5),
    "seed": (int, 0),
    "out": (str, "."),
    "alpha": (float, 0.8),
    "beta": (float, 0.9),
    "threshold": (float, 0.5),
    "oracle": (_parse_bool, False),
}

# The config fields each subcommand reads; any other field is a usage error.
COMMAND_FIELDS = {
    "simulate": ("f", "z", "fa", "fb", "za", "zb", "d1", "d2", "dx", "theta",
                 "ul1", "um1", "ur1", "dv_schedule", "scenes", "frames", "out"),
    "demo": ("frames", "seed", "alpha", "beta", "oracle", "out"),
    "metrics": ("threshold", "out"),
}


def parse_config_file(path, command: str) -> dict:
    values, seen = {}, {}
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot read config file {path}: {exc}")
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{path}:{line_no}: {exc}")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', "
                             f"got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise UsageError(f"{path}:{line_no}: unknown field {key!r}")
        if key not in COMMAND_FIELDS[command]:
            raise UsageError(f"{path}:{line_no}: {command} does not read "
                             f"field {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{line_no}: field {key!r} is already "
                             f"set on line {seen[key]}")
        seen[key] = line_no
        parser, _ = CONFIG_FIELDS[key]
        try:
            values[key] = parser(text.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: bad value for {key!r}: {exc}")
    return values


class Settings:
    """Resolved settings: command line beats config file beats defaults."""

    def __init__(self, args: argparse.Namespace):
        self._file = (parse_config_file(args.config, args.command)
                      if args.config else {})
        self._args = args

    def get(self, key: str):
        cli_value = getattr(self._args, key, None)
        if cli_value is not None:
            return cli_value
        if key in self._file:
            return self._file[key]
        return CONFIG_FIELDS[key][1]


@contextlib.contextmanager
def _output_dir(s: Settings):
    """Create the --out directory and yield it for the command's writes.

    Commands enter this only once their work has succeeded, so a failed
    command leaves no directory behind. An --out that is empty (Path("")
    would be "."), is a file, holds a NUL, whose parent cannot be created,
    or whose output files cannot be written is a usage error naming it.
    """
    out = s.get("out")
    if not out or "\0" in out:
        raise UsageError(f"--out (config field 'out') must be a non-empty "
                         f"path without NUL bytes, got {out!r}")
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield out_dir
    except OSError as exc:
        raise UsageError(f"cannot write output directory {out_dir}: {exc}")


# -- SVG emission -----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_plot(path, series: dict, title: str, x_label: str,
                  y_label: str) -> None:
    """Minimal native SVG: axes, one polyline per series, inline legend.

    series maps a name to a list of (x, y) points; y may be None for gaps.
    """
    width, height, margin = 640, 420, 56
    xs = [x for points in series.values() for x, y in points if y is not None]
    ys = [y for points in series.values() for x, y in points if y is not None]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.2f})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{x_lo:.2f}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="10">'
        f'{x_hi:.2f}</text>',
        f'<text x="{margin - 6}" y="{sy(y_lo):.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_lo:.3f}</text>',
        f'<text x="{margin - 6}" y="{sy(y_hi):.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_hi:.3f}</text>',
    ]
    for idx, (name, points) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        runs, current = [], []
        for x, y in points:
            if y is None:
                if current:
                    runs.append(current)
                current = []
            else:
                # Each point's text serves both its polyline vertex and its circle.
                current.append((f"{sx(x):.2f}", f"{sy(y):.2f}"))
        if current:
            runs.append(current)
        for run in runs:
            coords = " ".join(f"{px},{py}" for px, py in run)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            for px, py in run:
                parts.append(f'<circle cx="{px}" cy="{py}" r="2.5" '
                             f'fill="{color}"/>')
        label = name if runs else f"{name} (flat, no ratio)"
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * idx}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}" text-anchor="end">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# -- simulate ---------------------------------------------------------------

# One cap for simulate and demo. A sweep's time and CSV size grow linearly
# with the frames; the full-mode demo's binary head holds
# (frames - 1) * grid**2 * 128 float64 weights, 1 MB per frame at grid 32,
# which the cap bounds at 63 MB.
MAX_FRAMES = 64


def _build_scene(name: str, s: Settings):
    if name == "real":
        return geometry.RealSceneConfig(f=s.get("f"), z=s.get("z"),
                                        d1=s.get("d1"), d2=s.get("d2"),
                                        dx=s.get("dx"))
    common = dict(fa=s.get("fa"), fb=s.get("fb"), za=s.get("za"),
                  zb=s.get("zb"), d1=s.get("d1"), d2=s.get("d2"))
    if name == "print":
        return geometry.AttackSceneConfig(dx=0.0, **common)
    if name == "replay":
        return geometry.AttackSceneConfig(dx=s.get("dx"), **common)
    return geometry.AttackSceneConfig(dx=s.get("dx"), theta=s.get("theta"),
                                      ul1=s.get("ul1"), um1=s.get("um1"),
                                      ur1=s.get("ur1"), **common)


def cmd_simulate(args: argparse.Namespace) -> int:
    s = Settings(args)
    frames = s.get("frames")
    if not 2 <= frames <= MAX_FRAMES:
        raise UsageError(f"--frames must lie in [2, {MAX_FRAMES}], got {frames}")
    schedule = list(itertools.islice(itertools.cycle(s.get("dv_schedule")),
                                     frames - 1))
    scenes = {}
    for name in s.get("scenes"):
        try:
            scenes[name] = _build_scene(name, s)
        except ValueError as exc:
            raise UsageError(f"bad setting for scene {name!r}: {exc}")

    results = {}
    for name, cfg in scenes.items():
        per_scene_schedule = schedule if name in ("print", "replay") else None
        try:
            results[name] = geometry.simulate_sequence(cfg, frames,
                                                       per_scene_schedule)
        except ValueError as exc:
            raise DataError(f"scene {name!r} cannot be simulated: {exc}")

    series = {
        name: [(rec.frame, rec.estimate.ratio) for rec in records]
        for name, records in results.items()
    }
    with _output_dir(s) as out_dir:
        csv_path = out_dir / "simulation.csv"
        geometry.write_sweep_csv(csv_path, results)
        svg_path = out_dir / "simulation.svg"
        svg_line_plot(svg_path, series, "Estimated relative depth per frame",
                      "frame", "estimated d1/d2")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


# -- demo ---------------------------------------------------------------------

def run_demo(alpha: float, beta: float, frames: int, seed: int,
             oracle: bool) -> dict:
    if not 2 <= frames <= MAX_FRAMES:
        raise UsageError(f"--frames must lie in [2, {MAX_FRAMES}], got {frames}")
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise UsageError("alpha and beta must lie in [0, 1]")
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    # Imported here, not at the top: simulate, --help and usage errors then
    # never load numpy.
    from . import depthlabel, model
    samples = model.run_model(alpha, beta, frames, seed, oracle)

    result = {
        "command": "demo",
        "seed": seed,
        "oracle": oracle,
        "params": {"alpha": alpha, "beta": beta, "frames": frames,
                   "grid": depthlabel.GRID_SIZE,
                   "reduce_channels": model.DEMO_REDUCE_CHANNELS,
                   "fuse_channels": model.DEMO_FUSE_CHANNELS,
                   "surface": {**model.DEMO_SURFACE,
                               "center": list(model.DEMO_SURFACE["center"])}},
    }
    for kind, (report, b_hat, depth_term, score) in samples.items():
        result[kind] = {"losses": dataclasses.asdict(report), "b_hat": b_hat,
                        "depth_term": depth_term, "score": score}
    result["score_gap"] = result["living"]["score"] - result["spoof"]["score"]
    if oracle:
        result["oracle_gap_ok"] = bool(result["score_gap"]
                                       >= 0.5 * (1.0 - beta))
    return result


def cmd_demo(args: argparse.Namespace) -> int:
    s = Settings(args)
    oracle = s.get("oracle")
    report = run_demo(alpha=s.get("alpha"), beta=s.get("beta"),
                      frames=s.get("frames"), seed=s.get("seed"),
                      oracle=oracle)
    with _output_dir(s) as out_dir:
        path = out_dir / "demo.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    print(f"living score {report['living']['score']:.6f}, "
          f"spoof score {report['spoof']['score']:.6f}, "
          f"gap {report['score_gap']:.6f}")
    if oracle and not report["oracle_gap_ok"]:
        raise DataError("oracle-injected score gap fell below 0.5 * (1 - beta)")
    return 0


# -- metrics -----------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    s = Settings(args)
    threshold = s.get("threshold")
    if not math.isfinite(threshold):
        raise UsageError(f"--threshold must be finite, got {threshold}")
    # Imported here, not at the top: simulate, --help and usage errors then
    # never load numpy.
    from . import metrics
    try:
        records = metrics.read_records_csv(args.records)
    except OSError as exc:
        raise DataError(f"cannot read records file: {exc}")
    except ValueError as exc:
        raise DataError(f"bad records file {args.records}: {exc}")
    try:
        summary = metrics.metrics_summary(records, threshold)
    except ValueError as exc:
        raise DataError(str(exc))
    text = json.dumps(summary, indent=2) + "\n"
    with _output_dir(s) as out_dir:
        path = out_dir / "metrics.json"
        path.write_text(text)
    print(text, end="")
    print(f"wrote {path}", file=sys.stderr)
    return 0


# -- entry point ---------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of all three subcommands, built on the first call.

    Every later call in the process returns that same parser, so in-process
    callers of main (tests, the benchmark, library users) build it once per
    process. A shell run calls main once, so it builds the parser once either
    way. Nothing is built at import time. Parsing keeps no state in the
    parser, and help and usage text is formatted when it is printed, at the
    COLUMNS width of that moment. Callers must not modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="depthpad",
        description="Temporal-depth anti-spoofing numerics: scene sweeps, "
                    "a synthetic pipeline demo, and PAD metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--out", help="output directory (default .)")

    p_sim = sub.add_parser("simulate", help="camera-geometry scene sweep")
    common(p_sim)
    p_sim.add_argument("--frames", type=int,
                       help=f"frames per scene (2 to {MAX_FRAMES})")
    p_sim.set_defaults(func=cmd_simulate)

    p_demo = sub.add_parser("demo", help="synthetic end-to-end pipeline demo")
    common(p_demo)
    p_demo.add_argument("--seed", type=int, help="deterministic seed (>= 0)")
    p_demo.add_argument("--frames", type=int,
                        help=f"frames N_f (2 to {MAX_FRAMES})")
    p_demo.add_argument("--alpha", type=float,
                        help="single-frame weight in depth fusion")
    p_demo.add_argument("--beta", type=float,
                        help="binary weight in losses and score")
    p_demo.add_argument("--oracle", action="store_true", default=None,
                        help="inject ground-truth depth maps; no head is drawn, "
                             "b_hat is 0.5")
    p_demo.set_defaults(func=cmd_demo)

    p_met = sub.add_parser("metrics", help="PAD metrics from a records CSV")
    common(p_met)
    p_met.add_argument("records", help="CSV with columns score,label,attack_kind")
    p_met.add_argument("--threshold", type=float,
                       help="acceptance threshold on the score")
    p_met.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] when None); return its exit code.

    argparse's own errors and --help raise SystemExit. Calls in one process
    share the parser from build_parser.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
