import numpy as np
import pytest
import scipy.sparse as sp

from fsichannel import cli, fluid, fsi, geomap
from fsichannel.elasticity import interface_trace
from fsichannel.fluid import ConvergenceError, FluidState, InflowProfile, fluid_spaces
from fsichannel.fsi import (
    CouplingOptions,
    FSISolver,
    TractionEvaluator,
    filter_secants,
)
from fsichannel.geomap import TangledMeshError
from fsichannel.linsolve import SolverError
from fsichannel.sensitivity import SensitivitySolver
from fsichannel.spaces import FEFunction
from conftest import LAME, NU, mirror_dof_error
from oracles import traction_by_loop


def _zero_extension(vspace):
    return FEFunction.zeros(vspace)


def test_traction_zero_pressure(default_mesh):
    V, Q = fluid_spaces(default_mesh)
    t = TractionEvaluator(V, Q).evaluate(_zero_extension(V), FEFunction.zeros(Q))
    assert t.shape == (len(V.interface_dofs), 2)
    assert np.abs(t).max() == 0.0


def test_traction_constant_pressure_undeformed(default_mesh):
    # with K = I and p = c the traction is c times the unit fluid-outward
    # normal at every interface dof
    V, Q = fluid_spaces(default_mesh)
    c = 2.5
    p = FEFunction(Q, np.full(Q.ndof, c))
    t = TractionEvaluator(V, Q).evaluate(_zero_extension(V), p)
    mags = np.linalg.norm(t, axis=1)
    assert np.abs(mags - abs(c)).max() <= 1e-12
    # normals point out of the fluid (into the obstacle): at each dof the
    # traction points from the dof toward the obstacle centroid side
    geo = default_mesh.geometry
    centroid = np.asarray(geo.obstacle_outer).reshape(2, 2).mean(axis=0)
    xy = V.dof_coords[V.interface_dofs]
    inward = centroid[None, :] - xy
    dots = np.einsum("ij,ij->i", t, inward)
    assert (dots > 0).all()


def test_traction_per_node_oracle(default_mesh, fsi_base):
    # recompute the traction at every interface dof from scratch: average
    # p cof(DPhi) n over the interface-edge fluid elements touching the dof
    solver = FSISolver(default_mesh, LAME, NU)
    state = fsi_base
    evaluated = solver.tractor.evaluate(state.extension, state.fluid.p)
    looped = traction_by_loop(solver.tractor, solver.vspace, solver.pspace,
                              state.extension.coefficients,
                              state.fluid.p.coefficients)
    assert np.abs(evaluated - looped).max() <= 1e-14


@pytest.mark.parametrize("projected", [False, True])
def test_traction_derivative_matches_loop_oracle(fsi_solver, fsi_base,
                                                 projected):
    # smooth lift and pressure directions
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    tractor = fsi_solver.tractor
    xv, xq = V.dof_coords, Q.dof_coords
    dext = np.stack([
        np.column_stack([np.sin(3 * xv[:, 0]) * np.cos(2 * xv[:, 1]),
                         np.cos(xv[:, 0] + xv[:, 1])]).ravel(),
        np.column_stack([xv[:, 1] ** 2, np.sin(xv[:, 0])]).ravel(),
    ], axis=1)
    dp = np.stack([np.cos(xq[:, 0] - 2 * xq[:, 1]), xq[:, 0] * xq[:, 1]],
                  axis=1)
    ext, p = fsi_base.extension.coefficients, fsi_base.fluid.p.coefficients
    sample = tractor.sample(fsi_base.extension, fsi_base.fluid.p)
    for k in range(2):
        looped = traction_by_loop(tractor, V, Q, ext, p, dext[:, k], dp[:, k])
        if projected:
            n = tractor.normals
            looped = np.sum(looped * n, axis=1, keepdims=True) * n
        one = tractor.derivative(sample, dext[:, k], dp[:, k], projected)
        scale = np.abs(looped).max()
        assert np.abs(one - looped).max() <= 1e-13 * scale


def test_traction_projected_flag(default_mesh, fsi_base):
    solver = FSISolver(default_mesh, LAME, NU)
    full = solver.tractor.evaluate(fsi_base.extension, fsi_base.fluid.p)
    proj = solver.tractor.evaluate(fsi_base.extension, fsi_base.fluid.p,
                                   projected=True)
    for k, normal in enumerate(solver.tractor.normals):
        assert np.abs(proj[k] - (full[k] @ normal) * normal).max() <= 1e-14
        # projected traction has no tangential part
        tang = np.array([-normal[1], normal[0]])
        assert abs(proj[k] @ tang) <= 1e-14


def test_normal_projected_state_has_small_residual(fsi_solver,
                                                  operating_inflow):
    # the residual evaluates the traction the state was solved with
    state = fsi_solver.solve(operating_inflow, CouplingOptions(
        tol=1e-11, fluid_tol=1e-12,
        traction_interpretation="normal-projected"))
    assert state.traction_interpretation == "normal-projected"
    assert fsi_solver.residual(state, operating_inflow) <= 1e-7


def test_zero_inflow_zero_state(fsi_solver):
    state = fsi_solver.solve(None, CouplingOptions(tol=1e-12))
    assert np.abs(state.u.coefficients).max() == 0.0
    assert np.abs(state.fluid.w.coefficients).max() == 0.0
    assert state.report.iterations <= 2


def test_operating_point_contraction_and_symmetry(fsi_solver, fsi_base,
                                                  fsi_plain_base):
    ratios = fsi_plain_base.report.increment_ratios
    assert ratios and max(ratios[1:]) <= 0.5
    H = fsi_solver.mesh.geometry.channel_height
    assert mirror_dof_error(fsi_solver.sspace, fsi_base.u.coefficients,
                            H, 2) <= 1e-8
    # obstacle is pushed downstream by the flow
    cm = fsi_base.u.component_matrix()
    assert cm[:, 0].mean() > 0.0


def test_fixed_point_property(fsi_solver, fsi_base):
    # one more coupling sweep through the converged state moves the
    # displacement by no more than a few times the outer tolerance
    state = fsi_base
    t = fsi_solver.tractor.evaluate(state.extension, state.fluid.p)
    u_next = fsi_solver.solid.solve(traction=t)
    du = fsi_solver.norms_u.h1_norm(
        u_next.coefficients - state.u.coefficients)
    scale = max(fsi_solver.norms_u.h1_norm(state.u.coefficients), 1e-30)
    assert du / scale <= 10 * 1e-11


def test_residual_small_and_sensitive(fsi_solver, fsi_base, operating_inflow):
    r0 = fsi_solver.residual(fsi_base, operating_inflow)
    assert r0 <= 1e-7
    bumped = FEFunction(fsi_base.u.space,
                        fsi_base.u.coefficients.copy())
    iface = fsi_base.u.space.interface_dofs
    bumped.coefficients[iface] += 1e-3
    from fsichannel.fsi import FSIState

    fake = FSIState(bumped, fsi_base.fluid, fsi_base.extension,
                    fsi_base.fields, fsi_base.report)
    assert fsi_solver.residual(fake, operating_inflow) >= 1e-5


def test_relaxation_invariance(fsi_solver, operating_inflow):
    a = fsi_solver.solve(operating_inflow,
                         CouplingOptions(relaxation=1.0, tol=1e-11,
                                         fluid_tol=1e-12))
    b = fsi_solver.solve(operating_inflow,
                         CouplingOptions(relaxation=0.5, tol=1e-11,
                                         fluid_tol=1e-12, warm_start=False))
    err = fsi_solver.norms_u.h1_norm(a.u.coefficients - b.u.coefficients)
    assert err <= 1e-8


def test_contraction_monotone_in_inflow(fsi_solver):
    H = fsi_solver.mesh.geometry.channel_height
    rates = []
    for mag in (0.02, 0.05, 0.08, 0.12):
        st = fsi_solver.solve(InflowProfile(mag, H),
                              CouplingOptions(tol=1e-10, warm_start=False,
                                              quasi_newton=False))
        rates.append(max(st.report.increment_ratios[1:]))
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1.0


def test_contraction_improves_with_stiffness(default_mesh, operating_inflow):
    soft = FSISolver(default_mesh, (1.0, 25.0), NU)
    stiff = FSISolver(default_mesh, (1.0, 200.0), NU)
    opts = CouplingOptions(tol=1e-10, warm_start=False, quasi_newton=False)
    r_soft = max(soft.solve(operating_inflow, opts).report.increment_ratios[1:])
    r_stiff = max(
        stiff.solve(operating_inflow, opts).report.increment_ratios[1:])
    assert r_stiff < r_soft


def test_divergence_raises(default_mesh):
    # far outside the contraction regime the outer loop must report
    # divergence rather than loop forever
    H = default_mesh.geometry.channel_height
    solver = FSISolver(default_mesh, (1.0, 5.0), NU)
    with pytest.raises(SolverError) as err:
        solver.solve(InflowProfile(0.6, H),
                     CouplingOptions(max_outer_iter=40, warm_start=False))
    assert err.typename in ("ConvergenceError", "TangledMeshError")


def test_old_failure_names_are_the_raised_classes():
    # the benchmark imports the outer loop's failures under their old names
    assert fsi.OuterDivergenceError is fluid.ConvergenceError
    assert fsi.MeshTangledError is geomap.TangledMeshError


@pytest.mark.parametrize("magnitude", [0.6, 1.5])
def test_tangled_outer_step_carries_the_outer_report(default_mesh, magnitude):
    # the soft solid's first quasi-Newton update tangles the flow map; the
    # error leaves the outer loop with that loop's report
    H = default_mesh.geometry.channel_height
    solver = FSISolver(default_mesh, (1.0, 5.0), NU)
    with pytest.raises(TangledMeshError) as err:
        solver.solve(InflowProfile(magnitude, H))
    report = err.value.report
    assert (report.mode, report.iterations, report.converged) == (
        "fsi-outer", 1, False)


def test_options_validation():
    with pytest.raises(ValueError):
        CouplingOptions(relaxation=0.0)
    with pytest.raises(ValueError):
        CouplingOptions(relaxation=1.5)
    with pytest.raises(ValueError):
        CouplingOptions(tol=-1.0)
    with pytest.raises(ValueError):
        CouplingOptions(traction_interpretation="sideways")
    # fluid_tol is the floor of the forced inner tolerance and the tolerance
    # of the final refresh solve, so it must be reachable
    for bad in ({"fluid_tol": 0.0}, {"fluid_tol": -1e-11},
                {"max_outer_iter": 0}):
        with pytest.raises(ValueError):
            CouplingOptions(**bad)


def test_inexact_fluid_solves(fsi_solver, fsi_base, operating_inflow,
                              monkeypatch):
    # after the first outer step the fluid is solved only to FORCING times
    # the previous outer increment: the same outer iterates, and the fluid
    # steps fall well below the 51 of a fluid_tol solve at every step
    state = fsi_solver.solve(operating_inflow, CouplingOptions())
    fluid_iters = [row[3] for row in state.log_rows]
    assert max(fluid_iters[1:]) <= 2
    assert sum(fluid_iters) <= 51 // 2
    monkeypatch.setattr(fsi, "FORCING", 0.0)
    exact = fsi_solver.solve(operating_inflow, CouplingOptions())
    assert state.report.iterations == exact.report.iterations
    # the returned state is as accurate as a tight solve's
    for a, b, norm in (
        (state.u, fsi_base.u, fsi_solver.norms_u.h1_norm),
        (state.fluid.w, fsi_base.fluid.w, fsi_solver.fluid.norms_v.h1_norm),
        (state.fluid.p, fsi_base.fluid.p, fsi_solver.fluid.norms_p.l2),
    ):
        assert norm(a.coefficients - b.coefficients) <= 1e-8 * norm(b.coefficients)
    assert fsi_solver.residual(state, operating_inflow) <= 1e-7


def test_one_shot_wrapper_matches_solver(coarse_mesh, operating_inflow):
    # one-shot use, a fresh solver per call: two solvers built on one mesh
    # give the same bits, and a third one checks the state it did not compute
    opts = CouplingOptions(tol=1e-10)
    a = FSISolver(coarse_mesh, LAME, NU).solve(operating_inflow, opts)
    b = FSISolver(coarse_mesh, LAME, NU).solve(operating_inflow, opts)
    assert np.array_equal(a.u.coefficients, b.u.coefficients)
    r = FSISolver(coarse_mesh, LAME, NU).residual(a, operating_inflow)
    assert r <= 1e-7


@pytest.mark.parametrize("mag", [0.05, 0.12])
def test_quasi_newton_reaches_plain_fixed_point(fsi_solver, mag):
    H = fsi_solver.mesh.geometry.channel_height
    qn, plain = (
        fsi_solver.solve(InflowProfile(mag, H), CouplingOptions(
            tol=1e-11, fluid_tol=1e-12, quasi_newton=flag))
        for flag in (True, False))
    for a, b, norm in (
        (qn.u, plain.u, fsi_solver.norms_u.h1_norm),
        (qn.fluid.w, plain.fluid.w, fsi_solver.fluid.norms_v.h1_norm),
        (qn.fluid.p, plain.fluid.p, fsi_solver.fluid.norms_p.l2),
    ):
        gap = norm(a.coefficients - b.coefficients)
        assert gap <= 1e-10 * norm(b.coefficients)


@pytest.mark.parametrize("mag, qn_max, plain_count", [(0.05, 9, 13),
                                                       (0.12, 12, 28)])
def test_quasi_newton_outer_counts(fsi_solver, mag, qn_max, plain_count):
    # the seed-0 points of the operating-l0 and near-limit-l0 workloads
    H = fsi_solver.mesh.geometry.channel_height
    qn = fsi_solver.solve(InflowProfile(mag, H), CouplingOptions())
    plain = fsi_solver.solve(InflowProfile(mag, H),
                             CouplingOptions(quasi_newton=False))
    assert qn.report.iterations <= qn_max
    assert plain.report.iterations == plain_count
    # the first step relaxes; each later one fits at most one secant
    # difference per earlier step
    columns = [row[6] for row in qn.log_rows]
    assert columns[0] == 0 and all(0 < c <= k for k, c in
                                   enumerate(columns) if k)
    assert all(row[6] == 0 for row in plain.log_rows)


@pytest.mark.parametrize("mag", [0.18, 0.3])
def test_quasi_newton_converges_past_contraction(fsi_solver, mag):
    g = InflowProfile(mag, fsi_solver.mesh.geometry.channel_height)
    with pytest.raises(ConvergenceError):
        fsi_solver.solve(g, CouplingOptions(relaxation=1.0,
                                            quasi_newton=False))
    state = fsi_solver.solve(g, CouplingOptions(relaxation=1.0))
    assert state.report.converged
    assert fsi_solver.residual(state, g) <= 1e-7


def test_secant_filter_drops_zero_and_repeated_columns():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 40))
    # oldest first: a, zero, a again, b; the filter walks from the newest
    V = np.stack([a, np.zeros(40), a, b])
    kept = filter_secants(V)
    assert kept == [2, 3]
    c = np.linalg.lstsq(V[kept].T, -rng.standard_normal(40), rcond=None)[0]
    assert np.isfinite(c).all()
    assert filter_secants(np.zeros((3, 40))) == []


def test_fresh_solvers_are_deterministic():
    """Two solvers set up from scratch at the operating point number,
    factorize and solve alike, bit for bit: no hash order or unstable sort
    in the bookkeeping."""
    cfg = cli.resolve_config({"mesh_level": 0, "g_magnitude": 0.05})
    g, opts = cli._inflow(cfg), cli._coupling_options(cfg)
    one, two = cli._fsi_solver(cfg), cli._fsi_solver(cfg)
    for a, b in ((one.vspace, two.vspace), (one.pspace, two.pspace),
                 (one.sspace, two.sspace)):
        assert np.array_equal(a.elem_dofs, b.elem_dofs)
    sa, sb = one.solve(g, opts), two.solve(g, opts)
    factors = [(s.fluid._lu, s.extender._fact, s.solid.lu,
                SensitivitySolver(s, base).linearized._lu) for s, base in ((one, sa), (two, sb))]
    for lu_a, lu_b in zip(*factors):
        assert lu_a.lu.L.nnz + lu_a.lu.U.nnz == lu_b.lu.L.nnz + lu_b.lu.U.nnz
    assert sa.report.iterations == sb.report.iterations
    for x, y in ((sa.u, sb.u), (sa.fluid.w, sb.fluid.w), (sa.fluid.p, sb.fluid.p)):
        assert np.array_equal(x.coefficients, y.coefficients)


def test_no_solver_keeps_an_operator_beside_its_lu(fsi_solver, fsi_base):
    """A factorization holds its operator's free-row blocks, so no solver
    keeps the assembled square matrix beside it."""
    linearized = SensitivitySolver(fsi_solver, fsi_base).linearized
    kept = [f"{type(owner).__name__}.{name}"
            for owner in (fsi_solver.fluid, fsi_solver.solid,
                          fsi_solver.extender, linearized)
            for name, value in vars(owner).items()
            if sp.issparse(value) and value.shape[0] == value.shape[1]]
    assert not kept
