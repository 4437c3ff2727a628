"""depthpad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process with a single closed-loop client:
each op is one in-process call of depthpad.cli.main(argv), and the next op
starts when the previous one returns. Inputs are drawn from --seed. After
set-up and a short warm-up, ops run for --seconds; every op's outputs are
checked outside its timed window, and a calibration pass (calibration.py)
runs between consecutive ops. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, op times in units of the calibration
pass; with --trace 1 the per-layer metrics, measured on every other op
while the ops in between run untraced, so the tracing overhead is measured
in the same run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric with
its unit, the environment block and the run details. The full record goes
to .bench_out/results/, and a traced run's spans to .bench_out/spans/. The
exit code is 0 only when every op succeeded and passed its checks.
"""

import os
import sys

from environment import THREAD_VARS

# BLAS reads its thread count once, when numpy first loads it.
if "numpy" in sys.modules:
    sys.exit("refusing to run: numpy was imported before the thread pin")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WARMUP_OPS = 2
WARMUP_SECONDS = 0.5
TAIL_BEYOND = 10   # the tail percentile keeps this many samples beyond it
TAIL_WINDOW = 100


def refuse(message: str) -> None:
    print(f"refusing to run: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_op(cli, op):
    """Time one cli.main call; return (seconds, error or None)."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit {code}: {sink.getvalue()[-500:]}"
    return seconds, None


def checked(check, op):
    try:
        errors = check(op)
    except Exception as exc:  # unreadable output is a failed check
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    return "; ".join(errors) or None


class Client:
    """The closed-loop client: runs, checks and counts every op."""

    def __init__(self, cli, workload, tracer=None):
        self.cli, self.workload, self.tracer = cli, workload, tracer
        self.attempted = 0
        self.failures = []

    def op(self, op, check=None, traced=False, op_id=None):
        if traced:
            self.tracer.op = op_id
            self.tracer.install()
        try:
            seconds, error = run_op(self.cli, op)
        finally:
            if traced:
                self.tracer.uninstall()
        if error is None:
            error = checked(check or self.workload.check, op)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{' '.join(op.argv)}: {error}")
        return seconds


def cold_start_seconds(env) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import depthpad.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    The ops are split into consecutive windows of at least TAIL_WINDOW ops
    (one window when the run has fewer); the tail is taken within each
    window (about the 90th percentile) and the median over the windows is
    reported, so that a machine stall of a few ops, which lands in one
    window, does not set the figure. Returns the value, the percentile in
    the first window and the number of windows.
    """
    count = max(1, len(values) // TAIL_WINDOW)
    tails, percentiles = [], []
    for i in range(count):
        ordered = sorted(values[i * len(values) // count:
                                (i + 1) * len(values) // count])
        index = len(ordered) - 1 - min(TAIL_BEYOND, len(ordered) - 1)
        tails.append(ordered[index])
        percentiles.append(100.0 * (index + 1) / len(ordered))
    return statistics.median(tails), percentiles[0], count


def main() -> int:
    if not (ROOT / "src" / "depthpad" / "cli.py").is_file():
        refuse(f"no depthpad sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from depthpad import cli
    import environment
    from calibration import calibration_seconds
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(sorted(WORKLOADS))
    env = environment.describe(ROOT)
    unpinned = [b for b in env["blas_runtime"] if b["threads"] not in (None, 1)]
    if unpinned:
        refuse(f"BLAS runs {unpinned[0]['threads']} threads, not 1: {unpinned}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up: a cold interpreter importing the CLI (what every command
        # line user pays) plus building the workload's inputs.
        child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cold_start_seconds(child_env)
            workload.prepare(work, args.seed)
            setups.append(time.perf_counter() - start)

        tracer = Tracer() if args.trace else None
        client = Client(cli, workload, tracer)
        if hasattr(workload, "reference_ops"):
            for op in workload.reference_ops(work):
                client.op(op, workload.check_reference)
        rng = np.random.default_rng([args.seed, 1])
        start = time.perf_counter()
        warmup = 0
        while warmup < WARMUP_OPS or time.perf_counter() - start < WARMUP_SECONDS:
            client.op(workload.make_op(rng, work))
            calibration_seconds()
            warmup += 1

        latencies = {False: [], True: []}
        # Untraced op latency over the mean of the calibration passes timed
        # just before and just after the op.
        ratios = []
        calibration = [calibration_seconds()]
        start = time.perf_counter()
        index = 0
        # At least two ops, so a traced run has an untraced and a traced one.
        while time.perf_counter() - start < args.seconds or index < 2:
            traced = bool(args.trace) and index % 2 == 1
            op = workload.make_op(rng, work)
            seconds = client.op(op, traced=traced, op_id=index)
            calibration.append(calibration_seconds())
            latencies[traced].append(seconds)
            if not traced:
                ratios.append(2 * seconds / (calibration[-2] + calibration[-1]))
            index += 1
        measured = latencies[False]
        tail_cal, tail_pct, tail_windows = tail(ratios)
        wall = {
            "latency_p50_ms": 1e3 * statistics.median(measured),
            "latency_tail_ms": 1e3 * tail(measured)[0],
            "ops_per_s": len(measured) / sum(measured),
            "calibration_ms": 1e3 * statistics.median(calibration),
        }
        details = {
            "closed_loop_clients": 1,
            "warmup_ops": warmup,
            "measured_ops": index,
            "latency_samples": len(measured),
            "latency_tail_cal": tail_cal,
            "latency_tail_percentile": tail_pct,
            "latency_tail_windows": tail_windows,
            "wall_clock": wall,
            "failures": client.failures[:5],
        }
        if args.trace:
            traced_ops = latencies[True]
            traced_rate = len(traced_ops) / sum(traced_ops)
            values = tracer.layer_metrics(
                [m["name"] for m in wanted
                 if not m["name"].startswith("trace.")], len(traced_ops))
            values.update({
                "trace.untraced_ops_per_s": wall["ops_per_s"],
                "trace.traced_ops_per_s": traced_rate,
                "trace.overhead_pct": 100.0 * (wall["ops_per_s"] / traced_rate - 1),
            })
            details.update(traced_ops=len(traced_ops),
                           missing_layers=tracer.missing,
                           patched_bindings=tracer.bindings())
            (OUT / "spans").mkdir(exist_ok=True)
            tracer.write_spans(
                OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            values = {
                "setup_s": statistics.median(setups),
                "latency_p50_cal": statistics.median(ratios),
                "ops_per_cal": len(ratios) / sum(ratios),
                "success_rate": 1.0 - len(client.failures) / client.attempted,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not client.failures, "attempted": client.attempted,
              "failed": len(client.failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": details, "result": result,
              "latencies_s": measured, "latencies_cal": ratios}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")

    print(f"depthpad benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  latency tail, reported but not gated: {tail_cal:.6g} cal "
          f"(p{tail_pct:.1f}, median of {tail_windows} windows, "
          f"{len(ratios)} samples)")
    print("  wall clock, as measured: " + ", ".join(
        f"{name} {value:.6g}" for name, value in wall.items()))
    for failure in client.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print("details " + json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
