import numpy as np
import pytest

from oracles import (
    TaylorHoodDofs,
    element_geometry,
    p2_shape,
    p2_shape_grad,
    tri_quadrature,
)

from fsichannel.elasticity import (
    ElasticitySolver,
    interface_trace,
    solid_space,
)
from fsichannel.mesh import SOLID
from fsichannel.spaces import FEFunction


@pytest.fixture(scope="module")
def solver(default_mesh):
    return ElasticitySolver(solid_space(default_mesh), (1.0, 1.0))


def outward_traction(solver, magnitude):
    """Uniform outward normal load on the outer square of the annulus."""
    xy = solver.space.dof_coords[solver.iface]
    geo = solver.space.mesh.geometry
    x0, y0, x1, y1 = geo.obstacle_outer
    tr = np.zeros((len(solver.iface), 2))
    for k, (x, y) in enumerate(xy):
        n = np.zeros(2)
        if x == x0:
            n[0] -= 1
        if x == x1:
            n[0] += 1
        if y == y0:
            n[1] -= 1
        if y == y1:
            n[1] += 1
        norm = np.linalg.norm(n)
        if norm:
            tr[k] = magnitude * n / norm
    return tr


def dense_elasticity_oracle(mesh, lame, traction_rows, iface_coords):
    """Loop-assembled clamped elasticity solve on the solid subdomain."""
    lam, mu = lame
    tris = mesh.triangles[mesh.tri_subdomain == SOLID]
    dofs = TaylorHoodDofs(mesh.nodes, tris)
    pts, wts = tri_quadrature()
    n = 2 * dofs.n_p2
    A = np.zeros((n, n))
    for tri in tris:
        p0, B, detB, Binv = element_geometry(mesh.nodes, tri)
        ed = dofs.p2_dofs(tri)
        for (xi, eta), w in zip(pts, wts):
            g = p2_shape_grad(xi, eta) @ Binv
            ww = w * detB
            for a in range(6):
                for b in range(6):
                    dot = g[a] @ g[b]
                    for i in range(2):
                        for j in range(2):
                            val = mu * ((i == j) * dot + g[a][j] * g[b][i])
                            val += lam * g[a][i] * g[b][j]
                            A[2 * ed[a] + i, 2 * ed[b] + j] += ww * val
    # traction load via 3-point Gauss on interface edges
    rhs = np.zeros(n)
    tmap = {tuple(np.round(c, 12)): row
            for c, row in zip(iface_coords, traction_rows)}
    gp = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
    gw = np.array([5.0, 8.0, 5.0]) / 18.0
    for u, v in mesh.edges_with_tag("interface"):
        pu, pv = mesh.nodes[u], mesh.nodes[v]
        mid = 0.5 * (pu + pv)
        ends = [tuple(np.round(pu, 12)), tuple(np.round(pv, 12)),
                tuple(np.round(mid, 12))]
        tvals = np.array([tmap[e] for e in ends])  # (3, 2): u, v, mid
        length = float(np.hypot(*(pv - pu)))
        du = dofs.vmap[int(u)]
        dv = dofs.vmap[int(v)]
        dm = dofs.emap[(min(int(u), int(v)), max(int(u), int(v)))]
        for t, w in zip(gp, gw):
            shape = np.array([(1 - t) * (1 - 2 * t), t * (2 * t - 1),
                              4 * t * (1 - t)])
            tval = shape @ tvals
            for a, d in zip(range(3), (du, dv, dm)):
                for c in range(2):
                    rhs[2 * d + c] += length * w * shape[a] * tval[c]
    clamped = set()
    for u, v in mesh.edges_with_tag("clamped"):
        mid = 0.5 * (mesh.nodes[u] + mesh.nodes[v])
        clamped |= {dofs.vmap[int(u)], dofs.vmap[int(v)],
                    dofs.emap[(min(int(u), int(v)), max(int(u), int(v)))]}
    cdofs = sorted(2 * d + c for d in clamped for c in range(2))
    free = np.setdiff1d(np.arange(n), cdofs)
    x = np.zeros(n)
    x[free] = np.linalg.solve(A[np.ix_(free, free)], rhs[free])
    return x, dofs


def test_zero_data_zero_solution(solver):
    u = solver.solve()
    assert np.abs(u.coefficients).max() == 0.0


def test_linearity(solver):
    tr = outward_traction(solver, 1e-3)
    u1 = solver.solve(traction=tr)
    u3 = solver.solve(traction=3.0 * tr)
    assert np.abs(u3.coefficients - 3.0 * u1.coefficients).max() <= 1e-12


def test_clamped_dofs_zero(solver):
    u = solver.solve(traction=outward_traction(solver, 1e-3))
    assert np.abs(u.coefficients[solver.clamped]).max() == 0.0
    assert np.abs(u.coefficients).max() > 0


def test_against_dense_oracle(coarse_mesh):
    sol = ElasticitySolver(solid_space(coarse_mesh), (1.0, 1.0))
    tr = outward_traction(sol, 1e-3)
    u = sol.solve(traction=tr)
    iface_coords = sol.space.dof_coords[sol.iface]
    x, dofs = dense_elasticity_oracle(coarse_mesh, (1.0, 1.0), tr, iface_coords)
    key = {tuple(np.round(c, 12)): i for i, c in enumerate(dofs.coords)}
    cm = u.component_matrix()
    for s, c in enumerate(sol.space.dof_coords):
        o = key[tuple(np.round(c, 12))]
        assert np.abs(cm[s] - x[2 * o:2 * o + 2]).max() <= 1e-10


def test_reciprocity(solver):
    from fsichannel.assembly import assemble_boundary_mass

    rng = np.random.default_rng(2)
    shape = (len(solver.iface), 2)
    v1, v2 = rng.standard_normal(shape), rng.standard_normal(shape)

    def load(v):
        f = FEFunction.zeros(solver.space)
        f.component_matrix()[solver.iface] = v
        return assemble_boundary_mass(solver.space, "interface") @ f.coefficients

    a = load(v1) @ solver.solve(traction=v2).coefficients
    b = load(v2) @ solver.solve(traction=v1).coefficients
    assert abs(a - b) <= 1e-11


def test_interface_trace_is_pointwise_evaluation(solver):
    u = solver.solve(traction=outward_traction(solver, 1e-3))
    tr = interface_trace(u)
    cm = u.component_matrix()
    for row, d in zip(tr, solver.iface):
        assert np.array_equal(row, cm[int(d)])


def test_trace_of_prolongation_identity(solver):
    rng = np.random.default_rng(4)
    values = rng.standard_normal((len(solver.iface), 2))
    u = FEFunction.zeros(solver.space)
    u.component_matrix()[solver.iface] = values
    assert np.array_equal(interface_trace(u), values)


def test_one_shot_wrapper(default_mesh, solver):
    tr = outward_traction(solver, 1e-3)
    a = ElasticitySolver(solid_space(default_mesh), (1.0, 1.0)).solve(traction=tr)
    b = solver.solve(traction=tr)
    assert np.array_equal(a.coefficients, b.coefficients)
