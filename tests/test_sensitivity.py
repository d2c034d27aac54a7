from collections import Counter

import numpy as np
import pytest

from oracles import (
    apply_coupling_map,
    coupling_matrix_by_columns,
    fit_loglog,
    linearized_wrt_u,
)

from fsichannel import assembly as asm
from fsichannel import cli
from fsichannel.fluid import ConvergenceError, InflowProfile, SolverReport
from fsichannel.fsi import CouplingOptions, FSISolver
from fsichannel.geomap import (
    EllipticityError,
    TangledMeshError,
    transform_derivatives,
    transform_fields,
)
from fsichannel.linsolve import FrozenFactorization, SingularSystemError, SolverError
from fsichannel.sensitivity import (
    SensitivitySolver,
    coefficient_rhs,
    solve_fsi_sensitivity,
    taylor_test,
)
from fsichannel.spaces import FEFunction
from conftest import LAME, NU, OPERATING_MAGNITUDE


TIGHT = CouplingOptions(tol=1e-11, fluid_tol=1e-12)


def smooth_direction(solver, seed=0):
    """Smooth, H1-normalized solid displacement direction: an elasticity
    solve under a smooth interface traction (random directions tangle the
    extension at finite step sizes)."""
    rng = np.random.default_rng(seed)
    xy = solver.sspace.dof_coords[solver.sspace.interface_dofs]
    a, b = rng.uniform(0.5, 1.5, size=2)
    rows = np.column_stack([
        a * np.sin(2 * np.pi * xy[:, 0]),
        b * np.cos(2 * np.pi * xy[:, 1]),
    ])
    du = solver.solid.solve(traction=rows)
    du.coefficients /= solver.norms_u.h1_norm(du.coefficients)
    return du


@pytest.fixture(scope="module")
def sens(fsi_solver, fsi_base):
    return SensitivitySolver(fsi_solver, fsi_base)


@pytest.fixture(scope="module")
def coarse_base(coarse_mesh):
    solver = FSISolver(coarse_mesh, LAME, NU)
    g = InflowProfile(0.05, coarse_mesh.geometry.channel_height)
    return solver, g, solver.solve(g, TIGHT)


def test_coefficient_rhs_zero_direction(fsi_solver, fsi_base, sens):
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    derivs = transform_derivatives(fsi_base.fields,
                                   FEFunction.zeros(V).gradients_at())
    rhs = coefficient_rhs(V, Q, derivs, sens._x_hat, fsi_solver.nu)
    assert np.abs(rhs).max() == 0.0


def test_inflow_part_lifts_nothing(fsi_solver, fsi_base, monkeypatch):
    # the inflow part's trace is zero, so a solve lifts once per GMRES
    # product and once for the check: report.iterations lifts in all
    calls = []
    extend = fsi_solver.extender.extend
    monkeypatch.setattr(fsi_solver.extender, "extend",
                        lambda trace: calls.append(1) or extend(trace))
    H = fsi_solver.mesh.geometry.channel_height
    state = solve_fsi_sensitivity(fsi_solver, fsi_base, InflowProfile(1.0, H))
    assert len(calls) == state.report.iterations


def test_linearized_wrt_g_zero(sens):
    dw, dp = sens.linearized.solve(None)
    assert np.abs(dw.coefficients).max() == 0.0
    assert np.abs(dp.coefficients).max() == 0.0


def test_linearized_wrt_g_fd(fsi_solver, fsi_base, sens):
    H = fsi_solver.mesh.geometry.channel_height
    dg = InflowProfile(1.0, H)
    dw, dp = sens.linearized.solve(dg)
    base, _ = fsi_solver.fluid.solve(
        fsi_base.fields, InflowProfile(0.05, H), tol=1e-13)
    hs, rem = [], []
    for h in (1e-2, 3e-3, 1e-3):
        pert, _ = fsi_solver.fluid.solve(
            fsi_base.fields, InflowProfile(0.05 + h, H), tol=1e-13)
        r = np.linalg.norm(np.concatenate([
            pert.w.coefficients - base.w.coefficients - h * dw.coefficients,
            pert.p.coefficients - base.p.coefficients - h * dp.coefficients,
        ]))
        hs.append(h)
        rem.append(r)
    assert fit_loglog(hs, rem) >= 1.8


def test_linearized_wrt_u_zero(fsi_solver, sens):
    du = FEFunction.zeros(fsi_solver.sspace)
    dw, dp = linearized_wrt_u(sens, du)
    assert np.abs(dw.coefficients).max() == 0.0
    assert np.abs(dp.coefficients).max() == 0.0


def test_linearized_wrt_u_fd(default_mesh, fsi_solver, fsi_base, sens):
    # also at nu = 0.3, where a viscosity missing from (or applied twice
    # to) the dA part of the flow-map right-hand side would show; at
    # nu = 1 it cannot
    H = fsi_solver.mesh.geometry.channel_height
    g = InflowProfile(0.05, H)
    viscous = FSISolver(default_mesh, LAME, 0.3)
    viscous_base = viscous.solve(g, TIGHT)
    for solver, state, derivative in (
            (fsi_solver, fsi_base, sens),
            (viscous, viscous_base, SensitivitySolver(viscous, viscous_base))):
        du = smooth_direction(solver, seed=1)
        dw, dp = linearized_wrt_u(derivative, du)
        base, _ = solver.fluid.solve(state.fields, g, tol=1e-13)
        hs, rem = [], []
        for h in (1e-2, 3e-3, 1e-3):
            u_h = FEFunction(
                solver.sspace, state.u.coefficients + h * du.coefficients)
            fields_h = transform_fields(solver.vspace, solver.extension_of(u_h))
            pert, _ = solver.fluid.solve(fields_h, g, tol=1e-13)
            r = np.linalg.norm(np.concatenate([
                pert.w.coefficients - base.w.coefficients - h * dw.coefficients,
                pert.p.coefficients - base.p.coefficients - h * dp.coefficients,
            ]))
            hs.append(h)
            rem.append(r)
        assert fit_loglog(hs, rem) >= 1.8, solver.nu


def test_sensitivity_zero_direction(fsi_solver, fsi_base):
    state = solve_fsi_sensitivity(fsi_solver, fsi_base, None)
    assert np.abs(state.du.coefficients).max() == 0.0
    assert np.abs(state.dw.coefficients).max() == 0.0
    assert state.report.converged


def test_sensitivity_linearity(fsi_solver, fsi_base):
    H = fsi_solver.mesh.geometry.channel_height
    one = solve_fsi_sensitivity(fsi_solver, fsi_base, InflowProfile(1.0, H),
                                tol=1e-12)
    two = solve_fsi_sensitivity(fsi_solver, fsi_base, InflowProfile(2.0, H),
                                tol=1e-12)
    for a, b, norm in (
        (one.du, two.du, fsi_solver.norms_u.h1_norm),
        (one.dw, two.dw, fsi_solver.fluid.norms_v.h1_norm),
        (one.dp, two.dp, fsi_solver.fluid.norms_p.l2),
    ):
        scale = max(norm(b.coefficients), 1e-30)
        assert norm(2 * a.coefficients - b.coefficients) / scale <= 1e-9


def test_sensitivity_matches_monolithic_oracle(coarse_base):
    # eliminate the fixed point exactly: the coupling map depends on the
    # displacement only through its interface dofs, so assemble the dense
    # interface-trace matrix T column by column and solve (I - T) tau = tau0
    solver, g, base = coarse_base
    sens = SensitivitySolver(solver, base)
    dg = InflowProfile(1.0, solver.mesh.geometry.channel_height)
    S = solver.sspace
    scalar_if = S.interface_dofs
    vec_if = np.column_stack([2 * scalar_if, 2 * scalar_if + 1]).ravel()

    du0 = sens._coupled_step(np.zeros(len(vec_if)), dg)[0]

    T = coupling_matrix_by_columns(sens)
    tau = np.linalg.solve(np.eye(len(T)) - T, du0.coefficients[vec_if])
    lift = FEFunction.zeros(S)
    lift.coefficients[vec_if] = tau
    du_star = FEFunction(
        S, du0.coefficients + apply_coupling_map(sens, lift).coefficients)

    krylov = solve_fsi_sensitivity(solver, base, dg, tol=1e-12)
    scale = max(solver.norms_u.h1_norm(du_star.coefficients), 1e-30)
    err = solver.norms_u.h1_norm(
        krylov.du.coefficients - du_star.coefficients) / scale
    assert err <= 1e-12


def test_ritz_radius_matches_dense_spectrum(coarse_base):
    # the largest |Ritz value| of the GMRES solve is the spectral radius of
    # T on the Krylov space of c(dg); the mirror-symmetric dg never reaches
    # T's dominant mode, so it reads T's second eigenvalue: on the 0.18 mesh
    # 0.2326 against rho(T) = 0.2336, a relative gap of 4.2e-3, bounded
    # here by 1e-2
    solver, g, base = coarse_base
    sens = SensitivitySolver(solver, base)
    state = sens.solve(InflowProfile(1.0, solver.mesh.geometry.channel_height))
    rho = np.abs(np.linalg.eigvals(coupling_matrix_by_columns(sens))).max()
    assert abs(state.ritz_radius - rho) <= 1e-2 * rho


def test_krylov_report_holds_check_residual(fsi_solver, fsi_base):
    H = fsi_solver.mesh.geometry.channel_height
    state = solve_fsi_sensitivity(fsi_solver, fsi_base, InflowProfile(1.0, H))
    rep = state.report
    assert (rep.mode, rep.converged) == ("krylov", True)
    assert 2 <= rep.iterations <= 20
    assert len(rep.residual_history) == rep.iterations
    assert len(rep.increment_ratios) == rep.iterations - 1
    assert rep.residual_history[-1] <= 1e-12


def test_krylov_at_rest_stops_after_one_product(fsi_solver):
    # T = 0 at the rest state: the first product spans the solution, so
    # GMRES stops after it and du is the inflow response u_g itself
    H = fsi_solver.mesh.geometry.channel_height
    rest = fsi_solver.solve(None, CouplingOptions(tol=1e-12))
    sens = SensitivitySolver(fsi_solver, rest)
    dg = InflowProfile(1.0, H)
    state = sens.solve(dg, tol=1e-12)
    u_g = sens._coupled_step(np.zeros(len(fsi_solver.solid.iface_vdofs)), dg)[0]
    assert np.abs(u_g.coefficients).max() > 0.0
    assert (state.report.iterations, state.report.converged) == (2, True)
    assert np.array_equal(state.du.coefficients, u_g.coefficients)


def test_krylov_check_failure_raises_with_report(fsi_solver, fsi_base):
    H = fsi_solver.mesh.geometry.channel_height
    with pytest.raises(ConvergenceError) as err:
        solve_fsi_sensitivity(fsi_solver, fsi_base, InflowProfile(1.0, H),
                              tol=1e-20)
    assert err.value.report.mode == "krylov"
    assert not err.value.report.converged
    assert err.value.report.residual_history[-1] > 1e-20


def test_taylor_remainder_slopes(fsi_solver, fsi_base):
    H = fsi_solver.mesh.geometry.channel_height
    report = taylor_test(
        fsi_solver,
        g_of=lambda m: InflowProfile(0.05 + m, H),
        dg_of=InflowProfile(1.0, H),
        h_list=[1e-2, 3e-3, 1e-3],
        opts=TIGHT,
        base=fsi_base,
    )
    assert report.slope_u >= 1.8
    assert report.slope_w >= 1.8
    assert report.slope_p >= 1.8


def test_taylor_drops_only_typed_solver_errors(fsi_solver, fsi_base, monkeypatch):
    """Typed solve failures skip their h and are listed in ``dropped``; any
    other error propagates.  ``g_of`` returns h itself so the stubbed solve
    can tell the steps apart; successful steps return the base state."""
    H = fsi_solver.mesh.geometry.channel_height
    typed = {
        2e-3: ConvergenceError("stub", None),
        3e-3: ConvergenceError("stub", SolverReport(mode="fsi-outer")),
        4e-3: SolverError("stub"),
        5e-3: TangledMeshError(0, -1.0),
        6e-3: SingularSystemError("stub"),
        7e-3: EllipticityError("stub"),
    }

    class Untyped(Exception):
        pass

    def run(failures):
        def solve(h, opts=None):
            if h in failures:
                raise failures[h]
            return fsi_base

        monkeypatch.setattr(fsi_solver, "solve", solve)
        return taylor_test(fsi_solver, g_of=lambda h: h,
                           dg_of=InflowProfile(1.0, H),
                           h_list=[1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3,
                                   8e-3, 9e-3],
                           base=fsi_base)

    with pytest.raises(Untyped):
        run({6e-3: Untyped("not a solver failure")})
    report = run(typed)
    assert report.dropped == [2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3]
    assert report.hs == [1e-3, 8e-3, 9e-3]


def test_probe_zero_at_rest(fsi_solver):
    # T = 0 at rest: the first product is exactly zero, an Arnoldi breakdown
    rest = fsi_solver.solve(None, CouplingOptions(tol=1e-12))
    sens = SensitivitySolver(fsi_solver, rest)
    rho, products = sens.coupling_spectral_radius()
    assert rho <= 1e-12
    assert products == 1


def test_probe_matches_outer_ratio(fsi_solver, fsi_plain_base):
    rho, _ = SensitivitySolver(
        fsi_solver, fsi_plain_base).coupling_spectral_radius()
    observed = fsi_plain_base.report.increment_ratios[-1]
    assert abs(rho - observed) <= 0.1 * observed


def test_probe_matches_dense_spectrum(coarse_base):
    # the estimate must find the dominant eigenvalue of the dense interface
    # coupling matrix
    solver, g, base = coarse_base
    sens = SensitivitySolver(solver, base)
    est, _ = sens.coupling_spectral_radius()

    # the coupling map reads only the interface trace, so its spectrum is
    # that of the dense interface restriction
    T = coupling_matrix_by_columns(sens)
    lam = np.abs(np.linalg.eigvals(T)).max()
    assert abs(est - lam) <= 0.1 * max(lam, 1e-30)


@pytest.mark.parametrize("mag", [OPERATING_MAGNITUDE, 0.12])
def test_probe_reaches_dominant_mode(fsi_solver, mag):
    # rho(T) and T's second eigenvalue lie 2e-3 apart at g = 0.05; the
    # random start reaches the first, while GMRES from the mirror-symmetric
    # c(dg) reads the second
    H = fsi_solver.mesh.geometry.channel_height
    base = fsi_solver.solve(InflowProfile(mag, H), CouplingOptions(
        tol=1e-11, fluid_tol=1e-12, quasi_newton=False))
    sens = SensitivitySolver(fsi_solver, base)
    rho, products = sens.coupling_spectral_radius()
    moduli = np.unique(np.round(np.abs(np.linalg.eigvals(
        coupling_matrix_by_columns(sens))), 12))[::-1]
    assert abs(rho - moduli[0]) <= 1e-4 * moduli[0]
    assert products <= 16
    ritz = sens.solve(InflowProfile(1.0, H)).ritz_radius
    assert abs(ritz - moduli[1]) <= 1e-4 * moduli[1]


def test_probes_point_factorizes_two_linearized_operators(
        fsi_solver, monkeypatch, tmp_path):
    # one sweep point on a solver set up beforehand: the derivative's
    # operator M_lin(A, K) serves the spectral estimate and the T-iteration,
    # which adds only M_lin(I); each is assembled and factorized once
    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    monkeypatch.setattr(cli, "_fsi_solver", lambda cfg: fsi_solver)
    count(FrozenFactorization, "__init__")
    count(asm, "transformed_oseen_system")
    cli.run("probes", {"g_sweep": [0.05]}, str(tmp_path))
    assert counts == {"__init__": 2, "transformed_oseen_system": 2}


def test_stiff_solid_approaches_frozen_interface(coarse_mesh):
    # as the solid stiffens the coupled velocity derivative approaches the
    # pure fluid linearization around the (nearly rigid) base state
    H = coarse_mesh.geometry.channel_height
    g = InflowProfile(0.05, H)
    dg = InflowProfile(1.0, H)
    gaps = []
    for mu in (50.0, 5000.0):
        solver = FSISolver(coarse_mesh, (1.0, mu), NU)
        base = solver.solve(g, TIGHT)
        sens = SensitivitySolver(solver, base)
        coupled = sens.solve(dg, tol=1e-12)
        frozen_w, _ = sens.linearized.solve(dg)
        num = solver.fluid.norms_v.h1_norm(
            coupled.dw.coefficients - frozen_w.coefficients)
        den = solver.fluid.norms_v.h1_norm(frozen_w.coefficients)
        gaps.append(num / den)
    # both the coupling strength and the base deformation shrink with mu,
    # so a 100x stiffer solid should cut the gap by well over an order
    assert gaps[1] < 0.03 * gaps[0]


def test_taylor_slopes_normal_projected(fsi_solver):
    # the derivative projects its traction like the state it differentiates
    H = fsi_solver.mesh.geometry.channel_height
    opts = CouplingOptions(tol=1e-11, fluid_tol=1e-12,
                           traction_interpretation="normal-projected")
    report = taylor_test(
        fsi_solver,
        g_of=lambda m: InflowProfile(0.05 + m, H),
        dg_of=InflowProfile(1.0, H),
        h_list=[1e-2, 3e-3, 1e-3],
        opts=opts,
    )
    assert report.slope_u >= 1.8
    assert report.slope_w >= 1.8
    assert report.slope_p >= 1.8


def test_derivative_where_fixed_point_does_not_contract(fsi_solver):
    # at g = 0.22 the relaxed outer loop converges, but the unrelaxed
    # derivative map has spectral radius near 0.92, where a fixed point
    # needs hundreds of iterations; GMRES is unaffected
    H = fsi_solver.mesh.geometry.channel_height
    opts = CouplingOptions(relaxation=0.6, tol=1e-11, fluid_tol=1e-12)
    base = fsi_solver.solve(InflowProfile(0.22, H), opts)
    sens = SensitivitySolver(fsi_solver, base)
    state = sens.solve(InflowProfile(1.0, H))
    assert state.report.converged
    T = coupling_matrix_by_columns(sens)
    assert np.abs(np.linalg.eigvals(T)).max() >= 0.85
    assert state.ritz_radius >= 0.85
    report = taylor_test(
        fsi_solver,
        g_of=lambda m: InflowProfile(0.22 + m, H),
        dg_of=InflowProfile(1.0, H),
        h_list=[1e-2, 3e-3, 1e-3],
        opts=opts,
        base=base,
    )
    assert report.slope_u >= 1.8


# The seed-0 deliverable at the default config, as the solve-fsi and
# sensitivity scenarios compute it.  A change that moves these numbers
# updates them and says why (the benchmark's reference fingerprints move
# with them).
SEED0_NORMS = {"u_h1": 0.01802427351519, "w_h1": 0.4671222750603,
               "p_l2": 6.375178758390, "du_h1": 0.3404937949725,
               "dp_l2": 123.0290265763}


def test_seed0_deliverable_is_pinned():
    cfg = cli.resolve_config({})
    solver = cli._fsi_solver(cfg)
    base = solver.solve(cli._inflow(cfg), cli._coupling_options(cfg))
    sens = SensitivitySolver(solver, base).solve(cli._inflow(cfg, "dg_magnitude"))
    norms = {"u_h1": solver.norms_u.h1_norm(base.u.coefficients),
             "w_h1": solver.fluid.norms_v.h1_norm(base.fluid.w.coefficients),
             "p_l2": solver.fluid.norms_p.l2(base.fluid.p.coefficients),
             "du_h1": solver.norms_u.h1_norm(sens.du.coefficients),
             "dp_l2": solver.fluid.norms_p.l2(sens.dp.coefficients)}
    for key, value in SEED0_NORMS.items():
        assert abs(norms[key] - value) <= 1e-9 * value, (key, norms[key])
    assert base.report.iterations == 8
    assert sens.report.iterations == 11
