"""Acceptance gate: the ten solver-suite contracts, each printed as a
single PASS/FAIL line at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; without ``-s`` they appear in the captured output of failures.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    TaylorHoodDofs,
    apply_coupling_map,
    check_admissibility,
    coupling_matrix_by_columns,
    fit_loglog,
    linearized_wrt_u,
    newton_navier_stokes,
    piola_divergence,
)

from fsichannel.fluid import (
    InflowProfile,
    LinearizedSolver,
    PicardSolver,
    fluid_spaces,
    solve_navier_stokes,
)
from fsichannel.fsi import CouplingOptions, FSISolver
from fsichannel.geomap import HarmonicExtender, transform_fields
from fsichannel.mesh import FLUID, build_channel_mesh, straight_channel
from fsichannel.sensitivity import (
    SensitivitySolver,
    solve_fsi_sensitivity,
    taylor_test,
)
from fsichannel.spaces import FEFunction
from fsichannel.verification import mms_convergence_study
from fsichannel import assembly as asm
from conftest import LAME, NU, child_env, default_geometry, mirror_dof_error


TIGHT = CouplingOptions(tol=1e-11, fluid_tol=1e-12)
H_LIST = [1e-2, 3e-3, 1e-3]


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big_mesh():
    # ~9k fluid dofs
    return build_channel_mesh(default_geometry(0.068))


@pytest.fixture(scope="module")
def op_base(fsi_solver, operating_inflow):
    return fsi_solver.solve(operating_inflow, TIGHT)


def test_01_identity_reduction_and_newton_oracle(big_mesh):
    t0 = time.time()
    V, Q = fluid_spaces(big_mesh)
    ident = transform_fields(V, FEFunction.zeros(V))
    a = asm.transformed_oseen_system(
        V, Q, asm.action_coefficients(V, ident.A, ident.K))
    b = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V))
    diff = (a - b).tocoo()
    entry_gap = 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())

    g = InflowProfile(0.05, big_mesh.geometry.channel_height)
    state, _ = solve_navier_stokes(big_mesh, g=g, nu=1.0, tol=1e-12)
    tris = big_mesh.triangles[big_mesh.tri_subdomain == FLUID]
    dofs = TaylorHoodDofs(big_mesh.nodes, tris)
    key = {tuple(np.round(c, 12)): i for i, c in enumerate(dofs.coords)}
    dirichlet = {}
    for tag in ("wall", "interface"):
        for d in V.boundary_scalar_dofs(tag, exclusive=True):
            o = key[tuple(np.round(V.dof_coords[d], 12))]
            dirichlet[2 * o] = 0.0
            dirichlet[2 * o + 1] = 0.0
    for d in V.boundary_scalar_dofs("inflow", exclusive=True):
        x, y = V.dof_coords[d]
        o = key[tuple(np.round((x, y), 12))]
        gx, gy = g(x, y)
        dirichlet[2 * o] = gx
        dirichlet[2 * o + 1] = gy
    x, od = newton_navier_stokes(big_mesh.nodes, tris, 1.0, dirichlet)
    nv = 2 * od.n_p2
    cm = state.w.component_matrix()
    gap = 0.0
    for s, c in enumerate(V.dof_coords):
        o = key[tuple(np.round(c, 12))]
        gap = max(gap, float(np.abs(cm[s] - x[2 * o:2 * o + 2]).max()))
    for s, c in enumerate(Q.dof_coords):
        o = key[tuple(np.round(c, 12))]
        gap = max(gap, abs(float(state.p.coefficients[s]) - x[nv + o]))
    dt = time.time() - t0
    ok = entry_gap <= 1e-14 and gap <= 1e-8 and dt <= 30
    _verdict(1, "identity reduction + Newton oracle", ok,
             f"entrywise {entry_gap:.2e} (<=1e-14), "
             f"oracle gap {gap:.2e} (<=1e-8), "
             f"dofs {V.ndof + Q.ndof}, {dt:.1f}s (<=30s)")


def test_02_piola_identity_and_cofactor_affinity(default_mesh):
    t0 = time.time()
    V, _ = fluid_spaces(default_mesh)
    iface = V.interface_dofs
    xy = V.dof_coords[iface]
    rng = np.random.default_rng(11)
    extender = HarmonicExtender(V)
    worst_div = 0.0
    for k in range(20):
        amp = rng.uniform(0.005, 0.03)
        f1, f2 = rng.integers(1, 5, size=2)
        trace = amp * np.column_stack(
            [np.sin(f1 * xy[:, 0]), np.cos(f2 * xy[:, 1])])
        ext = extender.extend(trace)
        check_admissibility(transform_fields(V, ext), beta=0.25)
        worst_div = max(worst_div, float(np.abs(piola_divergence(V, ext)).max()))
    # cofactor affinity: K[alpha u] - I = alpha (K[u] - I) in 2D
    ext = extender.extend(
        0.02 * np.column_stack([np.sin(2 * xy[:, 0]), np.cos(3 * xy[:, 1])]))
    K1 = transform_fields(V, ext).K
    I = np.eye(2)
    worst_aff = 0.0
    for alpha in (0.25, 0.5, 2.0):
        scaled = FEFunction(V, alpha * ext.coefficients)
        Ka = transform_fields(V, scaled).K
        worst_aff = max(worst_aff,
                        float(np.abs((Ka - I) - alpha * (K1 - I)).max()))
    dt = time.time() - t0
    ok = worst_div <= 1e-10 and worst_aff <= 1e-13 and dt <= 5
    _verdict(2, "Piola identity + cofactor affinity", ok,
             f"div K {worst_div:.2e} (<=1e-10), "
             f"affinity {worst_aff:.2e} (<=1e-13), {dt:.1f}s (<=5s)")


def test_03_poiseuille_exactness(straight_mesh):
    t0 = time.time()
    geo = straight_mesh.geometry
    g = InflowProfile(0.3, geo.channel_height)
    V, Q = fluid_spaces(straight_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    state, rep = solver.solve(None, g)
    wex = np.array([g(x, y) for x, y in V.dof_coords]).ravel()
    h1 = asm.NormSet(V).h1_norm(state.w.coefficients - wex)
    M = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V),
                                     advector=state.w)
    r = M @ state.stacked()
    out_res = float(np.abs(r[V.boundary_dofs("outflow", exclusive=True)]).max())
    dt = time.time() - t0
    ok = rep.iterations <= 3 and h1 <= 1e-9 and out_res <= 1e-9 and dt <= 10
    _verdict(3, "Poiseuille exactness", ok,
             f"{rep.iterations} iters (<=3), H1 err {h1:.2e} (<=1e-9), "
             f"outflow residual {out_res:.2e} (<=1e-9), {dt:.1f}s (<=10s)")


def test_04_mms_convergence():
    t0 = time.time()
    table = mms_convergence_study(kind="trig", levels=4, h0=0.2, nu=1.0)
    dt = time.time() - t0
    rv, rp = table.rate_velocity, table.rate_pressure
    ok = abs(rv - 2.0) <= 0.2 and abs(rp - 2.0) <= 0.3 and dt <= 180
    _verdict(4, "manufactured-solution rates", ok,
             f"velocity H1 rate {rv:.3f} (2.0+-0.2), "
             f"pressure L2 rate {rp:.3f} (2.0+-0.3), {dt:.1f}s (<=180s)")


def test_05_contraction_regime(fsi_solver, fsi_plain_base):
    t0 = time.time()
    H = fsi_solver.mesh.geometry.channel_height
    _, prep = fsi_solver.fluid.solve(None, InflowProfile(0.05, H))
    picard_ratio = max(prep.increment_ratios)
    # the ratios of the plain relaxed map measure its contraction
    fsi_ratio = max(fsi_plain_base.report.increment_ratios[1:])
    sweep = []
    for mag in (0.02, 0.05, 0.08, 0.12):
        st = fsi_solver.solve(InflowProfile(mag, H),
                              CouplingOptions(tol=1e-10, warm_start=False,
                                              quasi_newton=False))
        sweep.append(max(st.report.increment_ratios[1:]))
    monotone = all(b > a for a, b in zip(sweep, sweep[1:]))
    dt = time.time() - t0
    ok = picard_ratio <= 0.9 and fsi_ratio <= 0.5 and monotone and dt <= 120
    _verdict(5, "contraction regime", ok,
             f"Picard ratio {picard_ratio:.3f} (<=0.9), "
             f"FSI ratio {fsi_ratio:.3f} (<=0.5), sweep "
             + "/".join(f"{r:.3f}" for r in sweep)
             + f" monotone={monotone}, {dt:.1f}s (<=120s)")


def test_06_linearized_fd_consistency(fsi_solver, op_base):
    t0 = time.time()
    H = fsi_solver.mesh.geometry.channel_height
    g0 = InflowProfile(0.05, H)
    sens = SensitivitySolver(fsi_solver, op_base)
    base, _ = fsi_solver.fluid.solve(op_base.fields, g0, tol=1e-13)

    def remainder_order(perturbed_of, dw, dp):
        rem = []
        for h in H_LIST:
            pert = perturbed_of(h)
            rem.append(np.linalg.norm(np.concatenate([
                pert.w.coefficients - base.w.coefficients
                - h * dw.coefficients,
                pert.p.coefficients - base.p.coefficients
                - h * dp.coefficients,
            ])))
        return fit_loglog(H_LIST, rem)

    dw_g, dp_g = sens.linearized.solve(InflowProfile(1.0, H))
    order_g = remainder_order(
        lambda h: fsi_solver.fluid.solve(
            op_base.fields, InflowProfile(0.05 + h, H), tol=1e-13)[0],
        dw_g, dp_g)

    from test_sensitivity import smooth_direction

    du = smooth_direction(fsi_solver, seed=3)
    dw_u, dp_u = linearized_wrt_u(sens, du)

    def perturbed_u(h):
        u_h = FEFunction(fsi_solver.sspace,
                         op_base.u.coefficients + h * du.coefficients)
        fields_h = transform_fields(fsi_solver.vspace,
                                    fsi_solver.extension_of(u_h))
        return fsi_solver.fluid.solve(fields_h, g0, tol=1e-13)[0]

    order_u = remainder_order(perturbed_u, dw_u, dp_u)
    dt = time.time() - t0
    ok = order_g >= 1.8 and order_u >= 1.8 and dt <= 120
    _verdict(6, "linearized-solver consistency", ok,
             f"inflow-direction order {order_g:.2f} (>=1.8), "
             f"displacement-direction order {order_u:.2f} (>=1.8), "
             f"{dt:.1f}s (<=120s)")


def test_07_coupled_taylor_and_linearity(fsi_solver, op_base):
    t0 = time.time()
    H = fsi_solver.mesh.geometry.channel_height
    report = taylor_test(
        fsi_solver,
        g_of=lambda m: InflowProfile(0.05 + m, H),
        dg_of=InflowProfile(1.0, H),
        h_list=H_LIST,
        opts=TIGHT,
        base=op_base,
    )
    one = solve_fsi_sensitivity(fsi_solver, op_base, InflowProfile(1.0, H),
                                tol=1e-12)
    two = solve_fsi_sensitivity(fsi_solver, op_base, InflowProfile(2.0, H),
                                tol=1e-12)
    lin_gap = 0.0
    for a, b, norm in (
        (one.du, two.du, fsi_solver.norms_u.h1_norm),
        (one.dw, two.dw, fsi_solver.fluid.norms_v.h1_norm),
        (one.dp, two.dp, fsi_solver.fluid.norms_p.l2),
    ):
        scale = max(norm(b.coefficients), 1e-30)
        lin_gap = max(lin_gap,
                      norm(2 * a.coefficients - b.coefficients) / scale)
    dt = time.time() - t0
    slopes = (report.slope_u, report.slope_w, report.slope_p)
    ok = all(s >= 1.8 for s in slopes) and lin_gap <= 1e-10 and dt <= 300
    _verdict(7, "coupled Taylor-remainder test", ok,
             "slopes u/w/p "
             + "/".join(f"{s:.2f}" for s in slopes)
             + f" (>=1.8), linearity {lin_gap:.2e} (<=1e-10), "
             f"{dt:.1f}s (<=300s)")


def test_08_sensitivity_vs_monolithic_oracle(coarse_mesh):
    t0 = time.time()
    solver = FSISolver(coarse_mesh, LAME, NU)
    g = InflowProfile(0.05, coarse_mesh.geometry.channel_height)
    base = solver.solve(g, TIGHT)
    sens = SensitivitySolver(solver, base)
    dg = InflowProfile(1.0, coarse_mesh.geometry.channel_height)
    S = solver.sspace
    scalar_if = S.interface_dofs
    vec_if = np.column_stack([2 * scalar_if, 2 * scalar_if + 1]).ravel()
    du0 = sens._coupled_step(np.zeros(len(vec_if)), dg)[0]
    T = coupling_matrix_by_columns(sens)
    tau = np.linalg.solve(np.eye(len(vec_if)) - T, du0.coefficients[vec_if])
    lift = FEFunction.zeros(S)
    lift.coefficients[vec_if] = tau
    du_star = du0.coefficients + apply_coupling_map(sens, lift).coefficients
    fixed = solve_fsi_sensitivity(solver, base, dg, tol=1e-12)
    scale = max(solver.norms_u.h1_norm(du_star), 1e-30)
    gap = solver.norms_u.h1_norm(fixed.du.coefficients - du_star) / scale
    V, Q = solver.vspace, solver.pspace
    dt = time.time() - t0
    ok = gap <= 1e-8 and dt <= 60
    _verdict(8, "fixed-point vs monolithic derivative", ok,
             f"relative gap {gap:.2e} (<=1e-8), "
             f"dofs {V.ndof + Q.ndof}, {dt:.1f}s (<=60s)")


def test_09_t_iteration_vs_direct(fsi_solver, op_base):
    t0 = time.time()
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    dg = InflowProfile(1.0, fsi_solver.mesh.geometry.channel_height)
    linearized = LinearizedSolver(V, Q, op_base.fields, op_base.fluid.w, NU)
    dw, dp = linearized.solve(dg)
    tw, tp, rep = linearized.t_iteration(dg)
    gap = max(float(np.abs(tw.coefficients - dw.coefficients).max()),
              float(np.abs(tp.coefficients - dp.coefficients).max()))
    eta = max(rep.increment_ratios)
    dt = time.time() - t0
    ok = gap <= 1e-8 and eta < 1.0 and dt <= 60
    _verdict(9, "constant-coefficient iteration vs direct", ok,
             f"gap {gap:.2e} (<=1e-8), eta {eta:.3f} (<1), "
             f"{dt:.1f}s (<=60s)")


def test_10_symmetry_and_determinism(fsi_solver, op_base, tmp_path):
    t0 = time.time()
    H = fsi_solver.mesh.geometry.channel_height
    sym_u = mirror_dof_error(fsi_solver.sspace, op_base.u.coefficients, H, 2)
    sym_w = mirror_dof_error(fsi_solver.vspace,
                             op_base.fluid.w.coefficients, H, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_edge_length": 0.18}))
    hashes = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"t{threads}")
        env = child_env({"OMP_NUM_THREADS": threads,
                         "OPENBLAS_NUM_THREADS": threads})
        res = subprocess.run(
            [sys.executable, "-m", "fsichannel.cli", "solve-fsi",
             "--config", str(cfg), "--out", out, "--seed", "0"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        with open(os.path.join(out, "summary.json")) as fh:
            hashes.append(json.load(fh)["artifacts"])
    identical = hashes[0] == hashes[1]
    dt = time.time() - t0
    ok = sym_u <= 1e-8 and sym_w <= 1e-8 and identical and dt <= 60
    _verdict(10, "mirror symmetry + determinism", ok,
             f"symmetry u {sym_u:.2e}, w {sym_w:.2e} (<=1e-8), "
             f"bit-identical artifacts={identical}, {dt:.1f}s (<=60s)")
