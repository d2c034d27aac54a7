"""Record the reference values the benchmark checks its results against.

    python3 bench/record_reference.py [workload ...]

For each workload, solves and differentiates at the relative g_magnitude
offsets in ``jitter_nodes`` and stores the fingerprints (H1 norms of u, w
and du, L2 norms of p and dp); ``run.py`` interpolates them to the offset
of any seed.  A traced pass at offset 0 (seed 0) gives the counts that must
repeat exactly.  Two offsets between the nodes are solved as well, and the
recording is refused unless interpolation reproduces them to a tenth of
the benchmark's fingerprint tolerance.  Run it only on a commit whose
results are trusted; it rewrites ``bench/reference.json``.
"""

import json
import sys

import run

NODES = [-0.01, -0.005, 0.0, 0.005, 0.01]
PROBES = [-0.0073, 0.0061]


def main(names):
    if not run.use_sources():
        return 2
    import spans
    import workloads as wl

    try:
        reference = wl.load_reference()
    except FileNotFoundError:
        reference = {"jitter_nodes": NODES, "workloads": {}}
    reference["jitter_nodes"] = NODES
    for name in names or list(wl.WORKLOADS):
        fps = []
        for x in NODES:
            inp = wl.inputs(name, x)
            if x == 0.0:
                tracer = spans.Tracer()
                tracer.install(spans.layer_targets())
                try:
                    p = wl.run_pass(inp, 1, phase=tracer.phase)
                finally:
                    tracer.restore()
                layer = spans.layer_metrics(tracer)
                counts = {k: layer[k] for k in run.REPEATING_COUNTS}
            else:
                inp["taylor"] = False
                p = wl.run_pass(inp, 1)
            if p.failed:
                print(f"{name} at {x:+}: {p.problems}", file=sys.stderr)
                return 1
            fps.append(p.fingerprints)
        entry = {"fingerprints": {k: [fp[k] for fp in fps] for k in fps[0]},
                 "counts": counts}
        worst = 0.0
        for x in PROBES:
            inp = wl.inputs(name, x)
            inp["taylor"] = False
            p = wl.run_pass(inp, 1)
            for key, values in entry["fingerprints"].items():
                pred = wl.interpolate(NODES, values, x)
                worst = max(worst, abs(pred - p.fingerprints[key]) / abs(pred))
        print(f"{name}: counts {counts}; interpolation error {worst:.2e}")
        if not worst <= 0.1 * wl.FINGERPRINT_RTOL:
            print(f"{name}: interpolation error too large", file=sys.stderr)
            return 1
        reference["workloads"][name] = entry
        with open(wl.REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
