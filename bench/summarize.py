"""Medians, quartiles and spreads of a set of benchmark results.

    python3 bench/summarize.py bench/out/*_trace0.json [--write FILE]

Groups the result files ``run.py`` writes by workload (traced runs apart)
and prints, for each metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound.  ``--write`` stores the same as JSON, with the
environment and counts of the runs, as a trajectory point.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

import run


def summarize(paths):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    by_workload = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        key = rec["workload"] + (" (traced)" if rec["trace"] else "")
        by_workload[key].append(rec)
    out = {}
    for workload, recs in sorted(by_workload.items()):
        metrics = {}
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else values * 3)
            med = statistics.median(values)
            metrics[name] = {
                "unit": recs[0]["result"]["metrics"][name]["unit"],
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": bounds.get(name),
                "min": min(values), "max": max(values),
            }
        out[workload] = {
            "seeds": sorted(r["seed"] for r in recs),
            "failed": sum(r["result"]["failed"] for r in recs),
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "metrics": metrics,
            "counts_seed0": next((r["counts"] for r in recs if r["seed"] == 0),
                                 None),
            "env": recs[0]["env"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--write")
    args = ap.parse_args(argv)
    out = summarize(args.paths)
    for workload, s in out.items():
        print(f"{workload}: {len(s['seeds'])} runs, failed "
              f"{s['failed']}/{s['attempted']}")
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            bound = "" if m["bound"] is None else f" (bound {m['bound']})"
            print(f"  {name:36s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:10.5g} q3 {m['q3']:10.5g} spread {spread}"
                  f"{bound}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
