"""Self-check of the benchmark's tracing.

    python3 bench/selfcheck.py

Runs an untraced and a traced ``operating-l0`` pass at seed 0 and checks
that both pass the benchmark's correctness gate and that
  * every per-layer call metric records at least one call and every
    wrapped target produced at least one span;
  * every child span lies inside its parent and every self time is >= 0;
  * every wrapped binding holds its original function afterwards, and an
    untraced pass leaves every binding untouched.
Exits 1 and lists the failures if any check fails.
"""

import sys

import run

# names callers import from the defining module; each must be wrapped too
BY_NAME = [("fsichannel.fsi", "transform_fields"),
           ("fsichannel.sensitivity", "transform_derivatives"),
           ("fsichannel.geomap", "assemble_scalar_stiffness"),
           ("fsichannel.elasticity", "assemble_elasticity"),
           ("fsichannel.cli", "build_channel_mesh"),
           ("fsichannel.cli", "refine_uniform"),
           ("fsichannel.fluid", "make_space")]


def main():
    if not run.use_sources():
        return 2
    import spans
    import workloads as wl

    problems = []
    inp = wl.inputs("operating-l0", 0.0)
    targets = spans.layer_targets()
    ref = wl.load_reference()
    node = ref["jitter_nodes"].index(0.0)
    fps = ref["workloads"]["operating-l0"]["fingerprints"]

    def expect(key):  # wrapping must leave every result unchanged
        return fps[key][node]

    def bindings():
        owners = [m for n, m in sys.modules.items()
                  if n.startswith("fsichannel")]
        owners += [o for o, _, _, _ in targets if isinstance(o, type)]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()
                if callable(v)}

    before = bindings()
    plain = wl.run_pass(inp, 1, expect=expect)
    if plain.failed:
        problems.append(f"the untraced pass failed: {plain.problems}")
    if bindings() != before:
        problems.append("the untraced pass changed a wrapped binding")

    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        passed = wl.run_pass(inp, 1, expect=expect, phase=tracer.phase)
    finally:
        tracer.restore()
    if passed.failed:
        problems.append(f"the traced pass failed: {passed.problems}")

    for where, key, original in tracer.patches:
        if getattr(where, key) is not original:
            problems.append(f"{where.__name__}.{key} was not restored")
    if bindings() != before:
        problems.append("a wrapped binding differs after restore")
    wrapped = {(w.__name__, k) for w, k, _ in tracer.patches}
    for module, key in BY_NAME:
        if (module, key) not in wrapped:
            problems.append(f"{module}.{key} was not wrapped")

    seen = {s.name for s in tracer.spans}
    for name in sorted({t[2] for t in targets}):
        if name not in seen:
            problems.append(f"no span recorded for {name}")
    for name, value in spans.layer_metrics(tracer).items():
        if name.endswith(".calls") and value < 1:
            problems.append(f"{name} recorded no call")

    for i, (s, own) in enumerate(zip(tracer.spans, tracer.self_times())):
        if s.end < s.start or own < 0.0:
            problems.append(f"span {i} {s.name}: negative duration or self")
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            if s.start < parent.start or s.end > parent.end:
                problems.append(f"span {i} {s.name} leaves its parent "
                                f"{parent.name}")
        elif not s.name.startswith("phase."):
            problems.append(f"span {i} {s.name} has no phase parent")

    for line in problems:
        print("FAIL", line)
    print(f"selfcheck: {len(tracer.spans)} spans, {len(tracer.patches)} "
          f"patched bindings, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
