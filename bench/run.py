"""Benchmark of the coupled FSI solve, its derivative and the Taylor check.

    python3 bench/run.py --workload operating-l0 --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all     # every workload, one process each

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation is one workload in a fresh process, a closed loop
with one caller.  With ``--trace 0`` it repeats rounds of the workload (set
up, solve, differentiate) while the next one fits in ``--seconds`` (always
at least one) and reports each end-to-end metric of BENCHMARK.json as the
median of all its samples in the run.  With ``--trace 1`` it runs an
untraced round and then a traced one, and reports the per-layer metrics and
the tracing overhead.
The last line of standard output is the JSON result; a copy with the
environment, the counts and (traced) the spans goes to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # same on both sides of any comparison; never above nproc
SETUP_REPEATS = 2  # per round of an untraced pass
# counts that repeat exactly at seed 0; a later claim may rest on them
REPEATING_COUNTS = ("fsi.outer_iterations", "fluid.picard_steps",
                    "sensitivity.iterations", "linsolve.factor_nnz",
                    "assembly.convection.per_picard_step")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k)
                 for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def use_sources():
    """Pin the BLAS thread variables and put the checkout's ``src/`` first
    on ``sys.path``; False if the checkout holds no package sources."""
    if not (SRC / "fsichannel" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    return True


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(wl, inp, seconds, expect):
    """An untraced pass of rounds for ``seconds``; medians of the samples."""
    p = wl.run_pass(inp, SETUP_REPEATS, expect, seconds=seconds)
    values = {k: statistics.median(v) for k, v in p.times.items()}
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return [p], values


def trace(wl, spans, inp, expect):
    """An untraced and a traced pass of one round, one set-up each (and the
    Taylor test where the workload has one); per-layer values.

    The overhead is the traced pass's wall seconds minus the untraced one's.
    """
    t0 = time.perf_counter()
    untraced = wl.run_pass(inp, 1, expect=expect)
    t1 = time.perf_counter()
    tracer = spans.Tracer()
    tracer.install(spans.layer_targets())
    try:
        traced = wl.run_pass(inp, 1, expect=expect, phase=tracer.phase)
    finally:
        tracer.restore()
    values = spans.layer_metrics(tracer)
    values["trace.wall_s"] = time.perf_counter() - t1
    values["trace.overhead_s"] = values["trace.wall_s"] - (t1 - t0)
    return [untraced, traced], values, tracer


def run_all(args):
    """Every workload of BENCHMARK.json in a fresh process, one at a time."""
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)])
        status = max(status, child.returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not use_sources():
        return 2

    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    reference = wl.load_reference()
    offset = wl.jitter(args.seed)
    ref = reference["workloads"][args.workload]

    def expect(key):
        return wl.interpolate(reference["jitter_nodes"],
                              ref["fingerprints"][key], offset)

    inp = wl.inputs(args.workload, offset)
    if args.trace:
        passes, values, tracer = trace(wl, spans, inp, expect)
        declared = per_layer
    else:
        passes, values = measure(wl, inp, args.seconds, expect)
        declared = end_to_end

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not args.trace:  # a phase that could not run (its solve failed): 0
        for name in declared:
            values.setdefault(name, 0.0)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    counts = passes[0].counts
    if args.trace:
        counts = {k: values[k] for k in REPEATING_COUNTS}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "g_offset": offset, "seconds": args.seconds,
        "rounds": [len(p.times["wall_s"]) for p in passes],
        "env": environment(args.seed),
        "counts": counts,
        "counts_match_seed0_reference": (
            bool(counts) and all(ref["counts"][k] == v
                                 for k, v in counts.items())
            if args.seed == 0 else None),
        "times": [p.times for p in passes],
        "fingerprints": passes[0].fingerprints,
        "checks": [p.checks for p in passes],
        "problems": [why for p in passes for why in p.problems],
        "all_values": values,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}_spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "phase",
                                   "count"],
                       "spans": [s.as_row() for s in tracer.spans]}, fh)

    print(f"# {args.workload} seed={args.seed} g_offset={offset:+.5f} "
          f"rounds={sum(len(p.times['wall_s']) for p in passes)} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if not args.trace and "taylor_s" in values:
        print(f"{'taylor_s':40s} {values['taylor_s']:14.6g} s")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} ratio")
    print(f"# counts {json.dumps(counts)}")
    for why in record["problems"]:
        print(f"# FAILED {why}")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
