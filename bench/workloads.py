"""Workload inputs, one timed pass of a workload, and its correctness gate.

A pass drives the public API the way the ``solve-fsi``, ``sensitivity`` and
``taylor-test`` scenarios do: build the mesh and the coupled solver, solve,
check the coupled residual, differentiate in the inflow direction and, on
``operating-l0``, run the Taylor-remainder test on the warm solver.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from fsichannel import cli, sensitivity
from fsichannel.fluid import ConvergenceError, InflowProfile
from fsichannel.fsi import (
    CouplingOptions,
    FSISolver,
    MeshTangledError,
    OuterDivergenceError,
)
from fsichannel.geomap import EllipticityError, TangledMeshError

SOLVER_ERRORS = (ConvergenceError, OuterDivergenceError, MeshTangledError,
                 TangledMeshError, EllipticityError)

# Why each workload is here; the metric map (METRICS.md) says which layer
# metric should move on which of them.  BENCHMARK.json lists the workloads
# the benchmark gates on; ``refined-l1`` is not among them (one round takes
# ~35 s there, too long to sample it more than once in a run), but it runs
# by name.
WORKLOADS = {
    # the paper's full deliverable; the Taylor phase reuses one solver for
    # five solves, so per-step kernel work dominates
    "operating-l0": {"mesh_level": 0, "g_magnitude": 0.05, "taylor": True},
    # outer ratio ~0.53: same per-step work as operating-l0 but ~2.2x the
    # fixed-point iterations, so a cut in iteration count shows here
    "near-limit-l0": {"mesh_level": 0, "g_magnitude": 0.12, "taylor": False},
    # 4x the dofs: factorization and LU solves grow faster than assembly,
    # and set-up time and memory are the largest
    "refined-l1": {"mesh_level": 1, "g_magnitude": 0.05, "taylor": False},
}

JITTER = 0.01  # seeds other than 0 move g_magnitude by at most this share
RESIDUAL_TOL = 1e-7  # as in the solve-fsi scenario
SLOPE_MIN = 1.8  # as in the taylor-test scenario
FINGERPRINT_RTOL = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


def jitter(seed):
    """Relative g_magnitude offset of a seed; seed 0 is the documented point."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(-JITTER, JITTER)


def inputs(workload, offset):
    """Resolved config and inflow data for a workload at a relative offset."""
    spec = WORKLOADS[workload]
    cfg = cli.resolve_config({
        "mesh_level": spec["mesh_level"],
        "g_magnitude": spec["g_magnitude"] * (1.0 + offset),
    })
    H = float(cfg["channel_height"])
    m0, dm = float(cfg["g_magnitude"]), float(cfg["dg_magnitude"])
    return {
        "cfg": cfg,
        "g": InflowProfile(m0, H),
        "dg": InflowProfile(dm, H),
        "g_of": lambda h: InflowProfile(m0 + h * dm, H),
        "opts": CouplingOptions(
            relaxation=float(cfg["relaxation"]),
            tol=float(cfg["tol"]),
            max_outer_iter=int(cfg["max_iter"]),
            traction_interpretation=cfg["traction_interpretation"],
            warm_start=bool(cfg["warm_start"]),
        ),
        "taylor": spec["taylor"],
    }


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def interpolate(nodes, values, x):
    """Lagrange interpolation of recorded fingerprints at offset x."""
    total = 0.0
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        w = 1.0
        for j, xj in enumerate(nodes):
            if j != i:
                w *= (x - xj) / (xi - xj)
        total += w * yi
    return total


class Pass:
    """Timings, fingerprints and operation outcomes of one workload pass."""

    def __init__(self):
        self.times = {}  # metric name -> list of seconds
        self.fingerprints = {}
        self.counts = {}  # iteration counts that repeat exactly at seed 0
        self.checks = {}  # coupled residual and Taylor slopes
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, ops, why):
        self.failed += ops
        self.problems.append(why)


@contextmanager
def _timed(times, key):
    """Append the wall seconds of the block to ``times[key]``, and its CPU
    seconds to ``times[key + "_cpu"]`` (recorded, not a metric)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        times.setdefault(key, []).append(time.perf_counter() - t0)
        times.setdefault(key + "_cpu", []).append(time.process_time() - c0)


@contextmanager
def _no_phase(_):
    yield


def run_pass(inp, setups=1, expect=None, phase=_no_phase, seconds=0.0):
    """One pass of rounds.  A round is ``setups`` set-ups, then solve,
    check, differentiate and check on the last solver set up; its wall
    seconds go to ``times["wall_s"]``.  A workload with a Taylor test runs
    it on the warm solver after the first round, outside the round's time.
    Further rounds follow while one more, as long as the last, ends within
    ``seconds`` of the start.  Each round sets up afresh, so the samples of
    every phase spread over the pass: the speed of a shared machine drifts
    over seconds, and a median of samples taken at many moments drifts less.

    ``expect(name)`` returns the reference value of a fingerprint, or None
    to skip the comparison; ``phase(name)`` wraps each phase (tracing).
    """
    p = Pass()
    cfg = inp["cfg"]
    t_start = time.perf_counter()
    while True:
        with _timed(p.times, "wall_s"):
            for _ in range(setups):
                solver = base = mesh = None  # one solver alive at a time
                p.attempted += 1
                with phase("setup"), _timed(p.times, "setup_s"):
                    mesh = cli.mesh_from_config(cfg)
                    solver = FSISolver(mesh, (float(cfg["lam"]),
                                              float(cfg["mu"])),
                                       float(cfg["nu"]))
            base = _solve_and_differentiate(p, solver, inp, expect, phase)
        if inp["taylor"] and len(p.times["wall_s"]) == 1:
            _taylor(p, solver, inp, base, phase)
        elapsed = time.perf_counter() - t_start
        if elapsed + p.times["wall_s"][-1] > seconds:
            return p


def _solve_and_differentiate(p, solver, inp, expect, phase):
    """Solve and derivative with their checks; the base state or None."""
    p.attempted += 2
    try:
        with phase("solve"), _timed(p.times, "solve_s"):
            base = solver.solve(inp["g"], inp["opts"])
    except SOLVER_ERRORS as exc:
        # the derivative cannot run without a base state
        p.fail(2, f"solve: {type(exc).__name__}: {exc}")
        return None
    p.counts["fsi.outer_iterations"] = base.report.iterations
    with phase("check"):
        residual = float(solver.residual(base, inp["g"]))
        fp = {
            "u_h1": solver.norms_u.h1_norm(base.u.coefficients),
            "w_h1": solver.fluid.norms_v.h1_norm(base.fluid.w.coefficients),
            "p_l2": solver.fluid.norms_p.l2(base.fluid.p.coefficients),
        }
    p.checks["coupled_residual"] = residual
    if _mismatch(p, fp, expect):
        p.fail(1, "solve fingerprint differs from the reference")
    elif not residual <= RESIDUAL_TOL:
        p.fail(1, f"coupled residual {residual:.3e} > {RESIDUAL_TOL:.0e}")

    try:
        with phase("derivative"), _timed(p.times, "derivative_s"):
            sens = sensitivity.solve_fsi_sensitivity(solver, base, inp["dg"])
    except SOLVER_ERRORS as exc:
        p.fail(1, f"derivative: {type(exc).__name__}: {exc}")
        return base
    p.counts["sensitivity.iterations"] = sens.report.iterations
    with phase("check"):
        fp = {
            "du_h1": solver.norms_u.h1_norm(sens.du.coefficients),
            "dp_l2": solver.fluid.norms_p.l2(sens.dp.coefficients),
        }
    if _mismatch(p, fp, expect):
        p.fail(1, "derivative fingerprint differs from the reference")
    elif not sens.report.converged:
        p.fail(1, "derivative fixed point did not converge")
    return base


def _taylor(p, solver, inp, base, phase):
    """Taylor test on the warm solver; each h is one operation."""
    h_list = [float(h) for h in inp["cfg"]["h_list"]]
    p.attempted += len(h_list)
    if base is None:
        p.fail(len(h_list), "taylor: no base state")
        return
    try:
        with phase("taylor"), _timed(p.times, "taylor_s"):
            report = sensitivity.taylor_test(
                solver, inp["g_of"], inp["dg"], h_list, inp["opts"], base=base)
    except SOLVER_ERRORS as exc:
        p.fail(len(h_list), f"taylor: {type(exc).__name__}: {exc}")
        return
    dropped = len(h_list) - len(report.hs)
    if dropped:
        p.fail(dropped, f"taylor: {dropped} of {len(h_list)} solves dropped")
    slopes = (report.slope_u, report.slope_w, report.slope_p)
    p.checks["taylor_slopes"] = [float(s) for s in slopes]
    if not all(s >= SLOPE_MIN for s in slopes):
        p.fail(len(report.hs), f"taylor slopes {slopes} < {SLOPE_MIN}")


def _mismatch(p, fp, expect):
    """Record fingerprints; True if any differs from its reference."""
    bad = False
    for key, value in fp.items():
        p.fingerprints[key] = float(value)
        ref = expect(key) if expect else None
        if ref is not None and not abs(value - ref) <= FINGERPRINT_RTOL * abs(ref):
            bad = True
    return bad
