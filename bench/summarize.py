"""Summarize saved benchmark results across seeds.

    python3 bench/summarize.py RESULT.json... [--baseline OUT.json]

Reads the records bench/run.py writes to .bench_out/results/, groups them
by workload and trace mode, and prints for each metric the median, the
quartiles (statistics.quantiles, n=4) and the spread, the interquartile
distance as a share of the median. For each end-to-end metric except
setup_s it marks a spread above a third of the metric's bound in
BENCHMARK.json with '~' and one above the bound with '!'. With --baseline
it also writes the summary and every run, without its per-op latencies,
to one JSON file.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list) -> dict:
    groups = {}
    for record in records:
        key = f"{record['workload']} trace{record['trace']}"
        groups.setdefault(key, []).append(record)
    summary = {}
    for key, runs in sorted(groups.items()):
        names = runs[0]["result"]["metrics"]
        rows = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0,
                          "unit": runs[0]["result"]["metrics"][name]["unit"]}
        summary[key] = {"runs": len(runs),
                        "seeds": sorted(r["seed"] for r in runs),
                        "all_correct": all(r["result"]["correct"] for r in runs),
                        "failed": sum(r["result"]["failed"] for r in runs),
                        "metrics": rows}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path,
                        help="write the runs and the summary to this file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(path.read_text()) for path in args.results]
    summary = summarize(records)
    worst_ok = True
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, "
              f"failed ops {group['failed']}")
        for name, row in group["metrics"].items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if row["spread"] > bound:
                    mark, worst_ok = "!", False
                elif row["spread"] > bound / 3:
                    mark = "~"
            print(f"  {name:<44} median {row['median']:>12.6g} "
                  f"q1 {row['q1']:>12.6g} q3 {row['q3']:>12.6g} "
                  f"spread {row['spread']:8.4f}{mark} {row['unit']}")
    if args.baseline:
        runs = [{k: v for k, v in r.items() if not k.startswith("latencies")}
                for r in records]
        args.baseline.write_text(json.dumps(
            {"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if worst_ok and all(g["all_correct"] for g in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
