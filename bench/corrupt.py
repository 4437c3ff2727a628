"""Show that the benchmark's output checks catch corrupted outputs.

    python3 bench/corrupt.py

Runs one op of each workload, confirms its real outputs pass the checks,
then rewrites them with one defect at a time (a number nudged, a row
dropped, a count off by one) and confirms the checks flag every one. Exits
1 if a corrupted output passes or a real one fails.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from depthpad import cli, geometry  # noqa: E402
import workloads  # noqa: E402


def nudge(value: float, rel: float) -> float:
    return value * (1.0 + rel) if value else rel


def edit(path: list, fn):
    """A mutation that replaces the JSON value at path with fn(value)."""
    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = fn(doc[last])
    return apply


def sweep_cases():
    def drop_row(rows):
        del rows[40]

    def unflag_print(rows):
        rows[31]["degenerate_flat"] = False

    def nudge_ratio(rows):
        rows[100]["ratio"] = nudge(rows[100]["ratio"], 1e-7)

    def swap_scene(rows):
        rows[0]["scene_type"] = "replay"

    return [("row dropped", drop_row), ("print row not flat", unflag_print),
            ("rotated ratio off by 1e-7", nudge_ratio),
            ("scene out of order", swap_scene)]


def main() -> int:
    work = ROOT / ".bench_out" / f"corrupt-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2024)
    outcomes = []

    def expect(label: str, errors: list, should_fail: bool) -> None:
        ok = bool(errors) == should_fail
        outcomes.append(ok)
        verdict = "caught" if errors else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
              + (f" ({errors[0][:100]})" if errors else ""))

    try:
        for oracle in (False, True):
            demo = workloads.Demo(oracle)
            mode = "oracle" if oracle else "full"
            for op, check, what in [
                    (demo.make_op(rng, work), demo.check, "op"),
                    (demo.reference_ops(work)[oracle], demo.check_reference,
                     "reference op")]:
                _, error = run.run_op(cli, op)
                assert error is None, error
                good = json.loads(op.outputs[0].read_text())
                expect(f"demo-{mode} {what} real output", check(op), False)
                cases = [
                    ("living score off by 1e-9",
                     edit(["living", "score"], lambda v: nudge(v, 1e-9))),
                    ("spoof depth_total off by 1e-9",
                     edit(["spoof", "losses", "depth_total"],
                          lambda v: nudge(v, 1e-9))),
                    ("score_gap off by 1e-9",
                     edit(["score_gap"], lambda v: nudge(v, 1e-9))),
                    ("seed echo wrong", edit(["seed"], lambda v: v + 1)),
                ]
                if what == "reference op":
                    # Consistent with every identity, yet off the reference.
                    cases.append(("consistent report off the reference by 1e-8",
                                  lambda doc: _scale_report(doc, 1 + 1e-8)))
                for label, mutate in cases:
                    doc = json.loads(json.dumps(good))
                    mutate(doc)
                    op.outputs[0].write_text(json.dumps(doc))
                    expect(f"demo-{mode} {what} {label}", check(op), True)

        sweep = workloads.Sweep()
        op = sweep.make_op(rng, work)
        _, error = run.run_op(cli, op)
        assert error is None, error
        rows = geometry.read_sweep_csv(op.outputs[0])
        expect("sweep real output", sweep.check(op), False)
        for label, mutate in sweep_cases():
            bad = [dict(r) for r in rows]
            mutate(bad)
            expect(f"sweep {label}", workloads.check_sweep_rows(bad), True)

        metrics = workloads.Metrics()
        metrics.prepare(work, 5)
        op = metrics.make_op(rng, work)
        _, error = run.run_op(cli, op)
        assert error is None, error
        good = json.loads(op.outputs[0].read_text())
        expect("metrics-1e5 real output", metrics.check(op), False)
        first_pai = sorted(good["per_pai_apcer"])[0]
        for label, mutate in [
            ("n_living off by one", edit(["n_living"], lambda v: v + 1)),
            ("bpcer off by 1e-10", edit(["bpcer"], lambda v: v + 1e-10)),
            ("apcer off by 1e-10", edit(["apcer"], lambda v: v + 1e-10)),
            ("per-PAI rate off by 1e-10",
             edit(["per_pai_apcer", first_pai], lambda v: v + 1e-10)),
            ("threshold echo wrong", edit(["threshold"], lambda v: v + 1e-9)),
        ]:
            doc = json.loads(json.dumps(good))
            mutate(doc)
            op.outputs[0].write_text(json.dumps(doc))
            expect(f"metrics-1e5 {label}", metrics.check(op), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(outcomes)} of {len(outcomes)} cases behaved as expected")
    return 0 if all(outcomes) else 1


def _scale_report(doc: dict, factor: float) -> None:
    """Scale every loss, b_hat, depth term and score, keeping identities."""
    for kind in ("living", "spoof"):
        part = doc[kind]
        for key in part["losses"]:
            part["losses"][key] *= factor
        for key in ("b_hat", "depth_term", "score"):
            part[key] *= factor
    doc["score_gap"] = doc["living"]["score"] - doc["spoof"]["score"]


if __name__ == "__main__":
    sys.exit(main())
