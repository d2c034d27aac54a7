import numpy as np
import pytest

from oracles import fit_loglog, newton_navier_stokes

from fsichannel import assembly as asm
from fsichannel.fluid import (
    DIVERGENCE_STREAK,
    ConvergenceError,
    InflowProfile,
    LinearizedSolver,
    PicardSolver,
    SolverReport,
    dirichlet_dofs,
    dirichlet_vector,
    fixed_point,
    fluid_spaces,
    solve_navier_stokes,
)
from fsichannel.geomap import HarmonicExtender, transform_fields
from fsichannel.linsolve import FrozenFactorization, SingularSystemError
from fsichannel.mesh import FLUID, build_channel_mesh, straight_channel
from fsichannel.spaces import FEFunction
from conftest import mirror_dof_error


@pytest.fixture(scope="module")
def deformed_fields(default_mesh):
    V, _ = fluid_spaces(default_mesh)
    iface = V.interface_dofs
    xy = V.dof_coords[iface]
    trace = 0.01 * np.column_stack(
        [np.sin(np.pi * xy[:, 0]), np.cos(np.pi * xy[:, 1])])
    ext = HarmonicExtender(V).extend(trace)
    return ext, transform_fields(V, ext)


def test_zero_inflow_zero_state(straight_mesh):
    state, rep = solve_navier_stokes(straight_mesh, g=None)
    assert rep.iterations == 1
    assert np.abs(state.w.coefficients).max() == 0.0
    assert np.abs(state.p.coefficients).max() == 0.0


def test_inflow_profile_follows_the_data_rule():
    g = InflowProfile(0.3, 1.0)
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    y = x[::-1, ::-1]
    vals = g(x, y)
    assert vals.shape == (3, 4, 2)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(vals[i, j], g(x[i, j], y[i, j]))
    assert np.array_equal(g(0.0, 0.5), [0.3, 0.0])


def test_poiseuille_exact(straight_mesh):
    geo = straight_mesh.geometry
    nu, mag = 1.0, 0.3
    g = InflowProfile(mag, geo.channel_height)
    state, rep = solve_navier_stokes(straight_mesh, g=g, nu=nu)
    assert rep.iterations <= 3
    V, Q = state.w.space, state.p.space
    wex = np.array([g(x, y) for x, y in V.dof_coords]).ravel()
    c = mag * 4 / geo.channel_height**2
    pex = 2 * nu * c * (geo.channel_length - Q.dof_coords[:, 0])
    norms = asm.NormSet(V)
    assert norms.h1_norm(state.w.coefficients - wex) <= 1e-9
    assert np.abs(state.p.coefficients - pex).max() <= 1e-9
    # the Dirichlet values are the data bit for bit: from a cold start, from
    # a warm start at another inflow, and after one step from any iterate
    cdofs = dirichlet_dofs(V)
    g2 = InflowProfile(0.7, geo.channel_height)
    solver = PicardSolver(V, Q, nu)
    warm, _ = solver.solve(g=g2, initial=state.stacked())
    noise = np.random.default_rng(0).standard_normal(V.ndof + Q.ndof)
    once, report = solver.solve(g=g2, initial=noise, tol=np.inf)
    assert report.iterations == 1
    for x, data in ((state, g), (warm, g2), (once, g2)):
        assert np.array_equal(x.stacked()[cdofs], dirichlet_vector(V, Q, data)[cdofs])


def test_do_nothing_residual_at_outflow(straight_mesh):
    # at the converged Poiseuille state the weak residual rows of the
    # outflow dofs carry exactly the do-nothing boundary functional
    geo = straight_mesh.geometry
    g = InflowProfile(0.3, geo.channel_height)
    V, Q = fluid_spaces(straight_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    state, _ = solver.solve(None, g)
    x = state.stacked()
    M = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V),
                                     advector=state.w)
    r = M @ x
    out_dofs = V.boundary_dofs("outflow", exclusive=True)
    assert np.abs(r[out_dofs]).max() <= 1e-9


def test_matches_monolithic_newton_oracle(coarse_mesh, operating_inflow):
    state, _ = solve_navier_stokes(coarse_mesh, g=operating_inflow,
                                   nu=1.0, tol=1e-12)
    V, Q = state.w.space, state.p.space
    tris = coarse_mesh.triangles[coarse_mesh.tri_subdomain == FLUID]

    from oracles import TaylorHoodDofs

    dofs = TaylorHoodDofs(coarse_mesh.nodes, tris)
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
        gx, gy = operating_inflow(x, y)
        dirichlet[2 * o] = gx
        dirichlet[2 * o + 1] = gy
    x, odofs = newton_navier_stokes(coarse_mesh.nodes, tris, 1.0, dirichlet)
    nv = 2 * odofs.n_p2
    cm = state.w.component_matrix()
    werr = 0.0
    for s, c in enumerate(V.dof_coords):
        o = key[tuple(np.round(c, 12))]
        werr = max(werr, np.abs(cm[s] - x[2 * o:2 * o + 2]).max())
    perr = 0.0
    for s, c in enumerate(Q.dof_coords):
        o = key[tuple(np.round(c, 12))]
        perr = max(perr, abs(state.p.coefficients[s] - x[nv + o]))
    assert werr <= 1e-8
    assert perr <= 1e-8


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_viscosity_must_be_positive(coarse_mesh, nu):
    V, Q = fluid_spaces(coarse_mesh)
    with pytest.raises(ValueError, match="viscosity must be positive"):
        PicardSolver(V, Q, nu=nu)
    with pytest.raises(ValueError, match="viscosity must be positive"):
        asm.action_coefficients(V, nu=nu)


def test_identity_reduction_bitwise(default_mesh):
    V, Q = fluid_spaces(default_mesh)
    ident = transform_fields(V, FEFunction.zeros(V))
    a = asm.transformed_oseen_system(
        V, Q, asm.action_coefficients(V, ident.A, ident.K))
    b = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V))
    d = (a - b).tocoo()
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0


def test_picard_evaluates_operator_once_per_step(coarse_mesh, monkeypatch):
    # each step evaluates the operator at its new iterate; a warm start
    # evaluates it once more at the initial iterate, a cold start (x = 0,
    # where the action is zero) does not
    calls = []
    action = asm.oseen_action

    def counted(*args, **kwargs):
        calls.append(1)
        return action(*args, **kwargs)

    monkeypatch.setattr(asm, "oseen_action", counted)
    H = coarse_mesh.geometry.channel_height
    solver = PicardSolver(*fluid_spaces(coarse_mesh))
    state, report = solver.solve(g=InflowProfile(1.0, H))
    assert report.converged and report.iterations > 1
    assert len(calls) == report.iterations
    calls.clear()
    _, report = solver.solve(g=InflowProfile(1.5, H), initial=state.stacked())
    assert report.converged and report.iterations > 1
    assert len(calls) == report.iterations + 1


def test_picard_builds_action_coefficients_once_per_solve(coarse_mesh,
                                                        monkeypatch):
    # the fields are fixed within a solve, so their reference coefficients
    # are built once whatever the number of steps, cold or warm (counted
    # after the set-up, which builds the identity's for the Stokes matrix)
    calls = []
    build = asm.action_coefficients

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    H = coarse_mesh.geometry.channel_height
    V, Q = fluid_spaces(coarse_mesh)
    ext = HarmonicExtender(V).extend(
        0.01 * np.sin(np.pi * V.dof_coords[V.interface_dofs]))
    solver = PicardSolver(V, Q)
    monkeypatch.setattr(asm, "action_coefficients", counted)
    state, report = solver.solve(transform_fields(V, ext), InflowProfile(1.0, H))
    assert report.converged and report.iterations > 1
    assert len(calls) == 1
    calls.clear()
    _, report = solver.solve(g=InflowProfile(1.5, H), initial=state.stacked())
    assert report.converged and report.iterations > 1
    assert len(calls) == 1


def test_load_without_data_is_zero_and_not_assembled(coarse_mesh, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a load without data was assembled")

    monkeypatch.setattr(asm, "assemble_velocity_load", refuse)
    monkeypatch.setattr(asm, "assemble_pressure_load", refuse)
    V, Q = fluid_spaces(coarse_mesh)
    H = coarse_mesh.geometry.channel_height
    state, report = PicardSolver(V, Q).solve(g=InflowProfile(0.05, H))
    assert report.converged and state.w.coefficients.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_picard_nonconvergence_reported(coarse_mesh):
    # strong inflow past the obstacle leaves the contraction regime
    g = InflowProfile(50.0, coarse_mesh.geometry.channel_height)
    with pytest.raises(ConvergenceError) as err:
        solve_navier_stokes(coarse_mesh, g=g, nu=0.01, max_iter=10)
    report = err.value.report
    assert report.increment_ratios
    # the divergence stop ends the run before max_iter and before overflow
    assert report.iterations < 10
    assert np.all(np.isfinite(report.residual_history))


def _affine_step(a, b):
    def step(x, _):
        x_new = a * x + b
        return x_new, x_new - x, None
    return step


def test_fixed_point_contraction_ratios():
    b = np.array([1.0, -2.0, 0.5])
    x, rep = fixed_point(_affine_step(0.5, b), np.zeros(3), np.linalg.norm,
                         1e-12, 100, "affine")
    assert rep.converged
    assert np.allclose(x, 2.0 * b, rtol=0, atol=1e-11)
    assert rep.iterations == len(rep.increments) == len(rep.residual_history)
    assert len(rep.increment_ratios) == rep.iterations - 1
    assert np.allclose(rep.increment_ratios, 0.5, rtol=0, atol=1e-12)


def test_fixed_point_divergence_raises_given_error():
    class Diverged(RuntimeError):
        def __init__(self, message, report):
            super().__init__(message)
            self.report = report

    with pytest.raises(Diverged) as err:
        fixed_point(_affine_step(2.0, np.ones(3)), np.zeros(3), np.linalg.norm,
                    1e-12, 100, "affine", Diverged)
    ratios = err.value.report.increment_ratios
    assert len(ratios) == DIVERGENCE_STREAK == 5
    assert all(r >= 1.0 for r in ratios[-5:])
    assert not err.value.report.converged


def test_fixed_point_attaches_its_report_to_a_step_failure():
    inner = SolverReport(mode="inner")

    def step(failure):
        def run(x, _):
            if x[0] >= 1.5:
                raise failure
            x_new = 0.5 * x + 1.0
            return x_new, x_new - x, None
        return run

    with pytest.raises(SingularSystemError) as err:
        fixed_point(step(SingularSystemError("stub")), np.zeros(2),
                    np.linalg.norm, 1e-12, 100, "outer")
    assert (err.value.report.mode, err.value.report.iterations) == ("outer", 2)
    # a failure that carries its own loop's report keeps it
    with pytest.raises(ConvergenceError) as err:
        fixed_point(step(ConvergenceError("stub", inner)), np.zeros(2),
                    np.linalg.norm, 1e-12, 100, "outer")
    assert err.value.report is inner


def test_fixed_point_non_finite_step_raises_at_that_iteration():
    def step(x, _):
        x_new = 0.5 * x + 1.0 if x[0] < 1.5 else np.full_like(x, np.nan)
        return x_new, x_new - x, None

    with pytest.raises(ConvergenceError) as err:
        fixed_point(step, np.zeros(2), np.linalg.norm, 1e-12, 100, "nan")
    rep = err.value.report
    # x = 0, 1, 1.5, then nan at the third step
    assert rep.iterations == 3
    assert not np.isfinite(rep.increments[-1])


def test_picard_ratio_sweep_monotone(default_mesh):
    V, Q = fluid_spaces(default_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    H = default_mesh.geometry.channel_height
    ratios = []
    for mag in (0.05, 0.2, 0.5, 1.0):
        _, rep = solver.solve(None, InflowProfile(mag, H))
        ratios.append(max(rep.increment_ratios))
    assert all(r <= 0.9 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_mirror_symmetric_solution(default_mesh, operating_inflow):
    state, _ = solve_navier_stokes(default_mesh, g=operating_inflow, nu=1.0)
    H = default_mesh.geometry.channel_height
    assert mirror_dof_error(state.w.space, state.w.coefficients, H, 2) <= 1e-9
    assert mirror_dof_error(state.p.space, state.p.coefficients, H, 1) <= 1e-9


def test_residual_history_decreasing(default_mesh, operating_inflow,
                                     deformed_fields):
    _, fields = deformed_fields
    V, Q = fluid_spaces(default_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    _, rep = solver.solve(fields, operating_inflow)
    hist = rep.residual_history
    assert all(b <= a * 1.01 + 1e-14 for a, b in zip(hist, hist[1:]))


def test_linearized_zero_data(default_mesh, deformed_fields):
    _, fields = deformed_fields
    V, Q = fluid_spaces(default_mesh)
    base = FEFunction.zeros(V)
    zw, zp = LinearizedSolver(V, Q, fields, base, 1.0).solve()
    assert np.abs(zw.coefficients).max() == 0.0
    assert np.abs(zp.coefficients).max() == 0.0


def test_linearized_at_rest_is_stokes(default_mesh):
    V, Q = fluid_spaces(default_mesh)
    H = default_mesh.geometry.channel_height
    dg = InflowProfile(1.0, H)
    zw, zp = LinearizedSolver(V, Q, None, FEFunction.zeros(V), 1.0).solve(dg)
    # plain Stokes: no advector and no reaction terms
    stokes = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V))
    x = FrozenFactorization(stokes, dirichlet_dofs(V)).solve(
        np.zeros(V.ndof + Q.ndof), dirichlet_vector(V, Q, dg))
    scale = max(np.abs(x).max(), 1.0)
    assert np.abs(zw.coefficients - x[:V.ndof]).max() <= 1e-12 * scale
    assert np.abs(zp.coefficients - x[V.ndof:]).max() <= 1e-12 * scale


def test_linearized_fd_consistency(default_mesh, operating_inflow,
                                   deformed_fields):
    _, fields = deformed_fields
    V, Q = fluid_spaces(default_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    H = default_mesh.geometry.channel_height
    base, _ = solver.solve(fields, operating_inflow, tol=1e-13)
    dg = InflowProfile(1.0, H)
    zw, zp = LinearizedSolver(V, Q, fields, base.w, 1.0).solve(dg)
    hs, rem = [], []
    for h in (1e-2, 3e-3, 1e-3):
        pert, _ = solver.solve(
            fields, InflowProfile(0.05 + h, H), tol=1e-13)
        r = np.linalg.norm(np.concatenate([
            pert.w.coefficients - base.w.coefficients - h * zw.coefficients,
            pert.p.coefficients - base.p.coefficients - h * zp.coefficients,
        ]))
        hs.append(h)
        rem.append(r)
    assert fit_loglog(hs, rem) >= 1.8


def test_t_iteration_matches_direct(default_mesh, operating_inflow,
                                    deformed_fields):
    _, fields = deformed_fields
    V, Q = fluid_spaces(default_mesh)
    solver = PicardSolver(V, Q, nu=1.0)
    base, _ = solver.solve(fields, operating_inflow, tol=1e-13)
    dg = InflowProfile(1.0, default_mesh.geometry.channel_height)
    linearized = LinearizedSolver(V, Q, fields, base.w, 1.0)
    zw, zp = linearized.solve(dg)
    tw, tp, rep = linearized.t_iteration(dg)
    assert np.abs(tw.coefficients - zw.coefficients).max() <= 1e-8
    assert np.abs(tp.coefficients - zp.coefficients).max() <= 1e-8
    assert max(rep.increment_ratios) < 1.0
