import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import child_env
from oracles import (
    assemble_navier_stokes,
    assemble_scalar_p2_stiffness,
    boundary_load_by_loop,
    tri_quadrature,
)

from fsichannel import assembly as asm
from fsichannel.geomap import (
    HarmonicExtender,
    TransformFields,
    cof2,
    det2,
    transform_derivatives,
    transform_fields,
)
from fsichannel.fluid import (
    LinearizedSolver,
    dirichlet_dofs,
    elimination_order,
    fluid_coefficients,
    fluid_spaces,
)
from fsichannel.linsolve import (
    NODE_ORDER,
    SYMMETRIC_MIN_DEGREE,
    FrozenFactorization,
    SingularSystemError,
)
from fsichannel.mesh import FLUID, SOLID, refine_uniform
from fsichannel.quadrature import EDGE_POINTS, EDGE_WEIGHTS, TRI_POINTS, TRI_WEIGHTS
from fsichannel.spaces import FEFunction, make_space, p1_basis, p2_basis


def exact_tri_monomial(a, b):
    """integral of x^a y^b over the unit triangle."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_rule_degree_six():
    for a in range(7):
        for b in range(7 - a):
            val = float(np.sum(
                TRI_WEIGHTS * TRI_POINTS[:, 0] ** a * TRI_POINTS[:, 1] ** b))
            assert abs(val - exact_tri_monomial(a, b)) <= 1e-15


def test_edge_rule_degree_seven():
    for a in range(8):
        val = float(np.sum(EDGE_WEIGHTS * EDGE_POINTS ** a))
        assert abs(val - 1.0 / (a + 1)) <= 1e-15


def test_partition_of_unity():
    pts = np.random.default_rng(0).random((20, 2)) * 0.5
    assert np.allclose(p2_basis(pts).sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(p1_basis(pts).sum(axis=1), 1.0, atol=1e-14)


def test_p2_nodal_delta():
    nodes = np.array([[0, 0], [1, 0], [0, 1],
                      [0.5, 0], [0.5, 0.5], [0, 0.5]], dtype=float)
    assert np.allclose(p2_basis(nodes), np.eye(6), atol=1e-14)


def test_mass_matrix_total_area(default_mesh):
    Q = make_space(default_mesh, order=1, arity=1, subdomain=FLUID)
    M = asm.assemble_mass(Q)
    area = default_mesh.triangle_areas()[default_mesh.tri_subdomain == FLUID].sum()
    assert abs(M.sum() - area) <= 1e-12


def test_stiffness_annihilates_constants(default_mesh):
    V = make_space(default_mesh, order=2, arity=1, subdomain=FLUID)
    S = asm.assemble_scalar_stiffness(V)
    ones = np.ones(V.n_scalar)
    assert np.abs(S @ ones).max() <= 1e-12


def test_stiffness_matches_loop_oracle(coarse_mesh):
    tris = coarse_mesh.triangles[coarse_mesh.tri_subdomain == FLUID]
    A_oracle, odofs = assemble_scalar_p2_stiffness(coarse_mesh.nodes, tris)
    V = make_space(coarse_mesh, order=2, arity=1, subdomain=FLUID)
    S = asm.assemble_scalar_stiffness(V).toarray()
    # map package dofs to oracle dofs through coordinates
    key = {tuple(np.round(c, 12)): i for i, c in enumerate(odofs.coords)}
    perm = np.array([key[tuple(np.round(c, 12))] for c in V.dof_coords])
    reordered = np.zeros_like(S)
    reordered[np.ix_(perm, perm)] = S
    assert np.abs(reordered - A_oracle).max() <= 1e-13


def test_oseen_assembly_matches_loop_oracle(coarse_mesh):
    tris = coarse_mesh.triangles[coarse_mesh.tri_subdomain == FLUID]
    V = make_space(coarse_mesh, order=2, arity=2, subdomain=FLUID)
    Q = make_space(coarse_mesh, order=1, arity=1, subdomain=FLUID)
    rng = np.random.default_rng(1)
    adv = FEFunction(V, rng.standard_normal(V.ndof))
    M = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V, nu=0.7),
                                     advector=adv).toarray()

    A_oracle, odofs = assemble_navier_stokes(
        coarse_mesh.nodes, tris, 0.7,
        advector=None, newton=False)
    # oracle advector must be permuted into oracle numbering
    key = {tuple(np.round(c, 12)): i for i, c in enumerate(odofs.coords)}
    perm2 = np.array([key[tuple(np.round(c, 12))] for c in V.dof_coords])
    adv_oracle = np.zeros(2 * odofs.n_p2)
    for s in range(V.n_scalar):
        adv_oracle[2 * perm2[s]:2 * perm2[s] + 2] = adv.coefficients[2 * s:2 * s + 2]
    A_oracle, _ = assemble_navier_stokes(coarse_mesh.nodes, tris, 0.7,
                                         advector=adv_oracle)
    A_oracle = A_oracle.toarray()

    nv = V.ndof
    perm_full = np.concatenate([
        np.ravel(np.column_stack([2 * perm2, 2 * perm2 + 1])),
        nv + np.array([key[tuple(np.round(c, 12))] for c in Q.dof_coords]),
    ])
    reordered = np.zeros_like(M)
    reordered[np.ix_(perm_full, perm_full)] = M
    assert np.abs(reordered - A_oracle).max() <= 1e-13

    # a smooth non-symmetric flow-map cofactor K = cof(I + eps B(x)) with
    # A = K K^T / det, evaluated pointwise by both sides
    def DPhi_of(x):
        B = np.array([[np.sin(3 * x[0]), x[0] * x[1]],
                      [np.cos(2 * x[1]) - x[0], 0.5 * x[1] ** 2]])
        return np.eye(2) + 0.2 * B

    def K_of(x):
        return cof2(DPhi_of(x))

    def A_of(x):
        K = K_of(x)
        return K @ K.T / np.linalg.det(K)

    xq = V.quad_points
    DPhi = np.array([[DPhi_of(x) for x in row] for row in xq])
    K = cof2(DPhi)
    J = det2(DPhi)
    A = np.einsum("eqij,eqkj->eqik", K, K) / J[..., None, None]
    c = asm.action_coefficients(V, A, K, nu=0.7)
    # the Oseen operator, then with the reaction (the oracle's Newton term)
    for newton in (False, True):
        M = asm.transformed_oseen_system(
            V, Q, c, advector=adv, reaction_with=adv if newton else None).toarray()
        A_oracle, _ = assemble_navier_stokes(coarse_mesh.nodes, tris, 0.7,
                                             advector=adv_oracle, newton=newton,
                                             A_of=A_of, K_of=K_of)
        A_oracle = A_oracle.toarray()
        reordered = np.zeros_like(M)
        reordered[np.ix_(perm_full, perm_full)] = M
        assert np.abs(reordered - A_oracle).max() <= 1e-12 * np.abs(A_oracle).max()


# an affine lift x -> M x whose gradient M is not symmetric
AFFINE_LIFT = np.array([[0.05, 0.2], [-0.03, 0.1]])


@pytest.mark.parametrize("block", [
    pytest.param("viscous", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "geomap.transform_fields builds A = J^-1 K K^T; with DPhi[i, l] = "
            "d_l Phi_i and K = J DPhi^-T the pull-back of grad v : grad psi "
            "needs A = J^-1 K^T K"))),
    "convection", "reaction", "pressure"])
def test_affine_pull_back_matches_moved_mesh(coarse_mesh, block):
    """Each fluid block under the transform fields of an affine lift equals
    the untransformed block on the mesh moved by that lift: the same
    elements, so the same element entries."""
    V, Q = fluid_spaces(coarse_mesh)
    fields = transform_fields(V, FEFunction(V, (V.dof_coords @ AFFINE_LIFT.T).ravel()))
    nodes = coarse_mesh.nodes
    Vm, Qm = fluid_spaces(dataclasses.replace(coarse_mesh, nodes=nodes + nodes @ AFFINE_LIFT.T))
    w = np.random.default_rng(4).standard_normal(V.ndof)

    def assemble(V, Q, coefficients):
        a, k = coefficients
        if block == "viscous":
            return asm.assemble_viscous(V, a)
        if block == "convection":
            return asm.assemble_convection(V, FEFunction(V, w), k)
        if block == "reaction":
            return asm.assemble_reaction(V, FEFunction(V, w), k)
        return asm.assemble_pressure_blocks(V, Q, k)

    got = assemble(V, Q, fluid_coefficients(V, fields, 0.7))
    ref = assemble(Vm, Qm, asm.action_coefficients(Vm, nu=0.7))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _action_case(case, V):
    """Coefficient fields of one oseen_action oracle case (None: identity)."""
    if case == "none":
        return None
    if case == "identity":
        return transform_fields(V, FEFunction.zeros(V))
    xy = V.dof_coords[V.interface_dofs]
    ext = HarmonicExtender(V).extend(0.01 * np.column_stack(
        [np.sin(np.pi * xy[:, 0]), np.cos(np.pi * xy[:, 1])]))
    fields = transform_fields(V, ext)
    if case == "deformed":
        return fields
    rng = np.random.default_rng(5)
    shape = fields.A.shape
    if case == "non-symmetric":
        A = np.eye(2) + 0.3 * rng.standard_normal(shape)
        assert np.abs(A - A.swapaxes(2, 3)).max() > 0.1
        return TransformFields(fields.J, fields.K, A)
    # a derivative pair (dA, dK) in a smooth lift direction; the operator
    # is linear in the coefficients, and J only enters the positivity check
    x, y = V.dof_coords[:, 0], V.dof_coords[:, 1]
    v = FEFunction(V, np.column_stack([np.sin(2 * x) * y, np.cos(x + y)]).ravel())
    d = transform_derivatives(fields, v.gradients_at())
    return TransformFields(fields.J, d.dK, d.dA)


def test_evaluation_at_the_rule_reproduces_interpolated_fields(default_mesh):
    """values_at and gradients_at of a quadratic vector field on the
    velocity space and a linear scalar field on the pressure space equal
    the exact field and gradient at the rule's physical points."""
    V, Q = fluid_spaces(default_mesh)

    def u(x, y):
        return np.stack([x * x - 2 * x * y + 0.5, 3 * y * y + x * y - y], axis=-1)

    def grad_u(x, y):
        return np.stack([np.stack([2 * x - 2 * y, -2 * x], axis=-1),
                         np.stack([y, 6 * y + x - 1], axis=-1)], axis=-2)

    def p(x, y):
        return (2.0 - x + 3 * y)[..., None]

    def grad_p(x, y):
        return np.broadcast_to([[-1.0, 3.0]], x.shape + (1, 2))

    for space, f, grad_f in ((V, u, grad_u), (Q, p, grad_p)):
        fun = FEFunction(space, f(*space.dof_coords.T).ravel())
        x, y = space.quad_points[..., 0], space.quad_points[..., 1]
        for got, want in ((fun.values_at(), f(x, y)),
                          (fun.gradients_at(), grad_f(x, y))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "case", ["none", "identity", "deformed", "non-symmetric", "derivative"])
def test_oseen_action_matches_assembled_product(default_mesh, case):
    V, Q = fluid_spaces(default_mesh)
    fields = _action_case(case, V)
    x = np.random.default_rng(2).standard_normal(V.ndof + Q.ndof)
    w = FEFunction(V, x[:V.ndof])
    c = fluid_coefficients(V, fields, 0.7)
    ref = asm.transformed_oseen_system(V, Q, c, advector=w) @ x
    got = asm.oseen_action(V, Q, x, c)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


ACTION_HASH = """
import hashlib, numpy as np
from fsichannel import assembly as asm, cli
from fsichannel.fluid import fluid_spaces
from fsichannel.geomap import HarmonicExtender, transform_fields
V, Q = fluid_spaces(cli.mesh_from_config(cli.resolve_config({"mesh_level": 1})))
ext = HarmonicExtender(V).extend(
    0.01 * np.sin(np.pi * V.dof_coords[V.interface_dofs]))
fields = transform_fields(V, ext)
x = np.random.default_rng(3).standard_normal(V.ndof + Q.ndof)
c = asm.action_coefficients(V, fields.A, fields.K, 0.7)
print(hashlib.sha256(asm.oseen_action(V, Q, x, c).tobytes()).hexdigest())
"""


def test_oseen_action_bit_identical_across_blas_threads():
    # the action's GEMMs are widest on a refined mesh, where a threaded
    # BLAS dispatch is most likely; it must not change a single bit
    hashes = []
    for threads in ("1", "4"):
        env = child_env({"OMP_NUM_THREADS": threads,
                         "OPENBLAS_NUM_THREADS": threads})
        res = subprocess.run([sys.executable, "-c", ACTION_HASH],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        hashes.append(res.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


def test_oseen_system_pressure_rows_negative_transpose(default_mesh):
    """In the assembled [v; p] matrix the (p, v) block is exactly the
    negative transpose of the (v, p) block, and the (p, p) block stores
    nothing."""
    V, Q = fluid_spaces(default_mesh)
    fields = transform_fields(V, HarmonicExtender(V).extend(
        0.01 * np.sin(np.pi * V.dof_coords[V.interface_dofs])))
    w = FEFunction(V, np.random.default_rng(8).standard_normal(V.ndof))
    M = asm.transformed_oseen_system(V, Q, fluid_coefficients(V, fields, 0.7),
                                     advector=w, reaction_with=w)
    n = V.ndof
    A_pv, ref = M[n:, :n], (-M[:n, n:].T).tocsr()
    assert ref.nnz > 0 and M[n:, n:].nnz == 0
    assert np.array_equal(A_pv.indptr, ref.indptr)
    assert np.array_equal(A_pv.indices, ref.indices)
    assert np.array_equal(A_pv.data, ref.data)


def test_stokes_system_stores_no_cross_component_entry(default_mesh):
    """The Stokes matrix couples the velocity components only through the
    pressure: its velocity block stores no (v_x, v_y) entry, not even an
    explicit zero, which would only add fill to its LU."""
    V, Q = fluid_spaces(default_mesh)
    M = asm.transformed_oseen_system(V, Q, asm.action_coefficients(V))
    A_vv = M[:V.ndof, :V.ndof].tocoo()  # every stored entry, zeros included
    assert A_vv.nnz > 0 and np.all(A_vv.row % 2 == A_vv.col % 2)


def test_elasticity_positive_definite_after_clamping(default_mesh):
    S = make_space(default_mesh, order=2, arity=2, subdomain=SOLID)
    A = asm.assemble_elasticity(S, 1.0, 1.0)
    sym = (A - A.T).tocoo()
    assert sym.nnz == 0 or np.abs(sym.data).max() <= 1e-14
    clamped = S.boundary_dofs("clamped")
    mask = np.ones(S.ndof, dtype=bool)
    mask[clamped] = False
    free = np.flatnonzero(mask)
    Aff = A[free][:, free].toarray()
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.standard_normal(len(free))
        assert v @ (Aff @ v) > 0


def test_elasticity_rejects_bad_lame(default_mesh):
    S = make_space(default_mesh, order=2, arity=2, subdomain=SOLID)
    with pytest.raises(ValueError):
        asm.assemble_elasticity(S, 1.0, 0.0)
    with pytest.raises(ValueError):
        asm.assemble_elasticity(S, -1.0, 1.0)


def test_dirichlet_groups_disjoint(default_mesh, coarse_mesh):
    # the inflow data and the zero wall/interface values sit on disjoint
    # dofs, so no two prescriptions can meet at one dof
    for mesh in (default_mesh, coarse_mesh):
        V, _ = fluid_spaces(mesh)
        groups = [V.boundary_dofs(tag, exclusive=True)
                  for tag in ("inflow", "wall", "interface")]
        assert all(len(g) > 0 for g in groups)
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                assert len(np.intersect1d(a, b)) == 0
        union = np.sort(np.concatenate(groups))
        assert np.array_equal(dirichlet_dofs(V), union)


def test_solve_sparse_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n, m = 30, 8
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    B = rng.standard_normal((n, m))
    rhs = rng.standard_normal(n + m)
    # make the saddle system invertible by regularizing the (2,2) block
    C = -np.eye(m)
    M = sp.bmat([[sp.csr_matrix(A), sp.csr_matrix(B)],
                 [sp.csr_matrix(B.T), sp.csr_matrix(C)]], format="csr")
    cdofs = [2, 5]
    fixed = np.zeros(n + m)
    fixed[cdofs] = [0.3, -0.1]
    x = FrozenFactorization(M, cdofs).solve(rhs, fixed)
    full = np.block([[A, B], [B.T, C]])
    free = np.setdiff1d(np.arange(n + m), cdofs)

    def dense_oracle(rhs, cvals):
        dense = np.zeros(n + m)
        dense[cdofs] = cvals
        dense[free] = np.linalg.solve(
            full[np.ix_(free, free)],
            rhs[free] - full[np.ix_(free, cdofs)] @ cvals,
        )
        return dense

    assert np.abs(x - dense_oracle(rhs, [0.3, -0.1])).max() <= 1e-10
    assert x[2] == 0.3 and x[5] == -0.1

    # two solves on one factorization: the same values, then new data
    lu = FrozenFactorization(M, cdofs)
    assert np.array_equal(lu.solve(rhs, fixed), x)
    rhs2 = rng.standard_normal(n + m)
    prescribed = rng.standard_normal(n + m)
    x2 = lu.solve(rhs2, prescribed)
    assert np.abs(x2 - dense_oracle(rhs2, prescribed[cdofs])).max() <= 1e-10
    assert x2[2] == prescribed[2] and x2[5] == prescribed[5]

    # a two-column block solve: each column bit-equal to its 1-D solve
    rhs_block = np.column_stack([rhs2, rhs])
    x_block = lu.solve(rhs_block, np.column_stack([prescribed, prescribed[::-1]]))
    assert np.array_equal(x_block[:, 0], x2)
    assert np.array_equal(x_block[:, 1], lu.solve(rhs, prescribed[::-1]))
    assert np.array_equal(lu.solve(rhs_block, np.column_stack([fixed, fixed]))[:, 1], x)


def test_frozen_factorization_rejects_non_finite_result():
    lu = FrozenFactorization(sp.diags([1e-300, 1.0], format="csc"), [])
    with pytest.raises(SingularSystemError, match="non-finite"):
        lu.solve(np.array([1e10, 1.0]))


def test_frozen_factorization_takes_the_free_dofs_in_any_order():
    A = sp.csc_matrix(np.array([[4.0, 1.0, 0.0, 1.0], [1.0, 5.0, 2.0, 0.0],
                                [0.0, 2.0, 6.0, 1.0], [1.0, 0.0, 1.0, 7.0]]))
    rhs, prescribed = np.arange(1.0, 5.0), np.full(4, 0.5)
    ascending = FrozenFactorization(A, [1]).solve(rhs, prescribed)
    permuted = FrozenFactorization(A, [1], free=[3, 0, 2])
    assert np.array_equal(permuted.free, [3, 0, 2])
    assert np.abs(permuted.solve(rhs, prescribed) - ascending).max() <= 1e-15
    for free in ([0, 2, 2], [0, 1, 2, 3]):  # a duplicate, a constrained dof
        with pytest.raises(ValueError, match="complement"):
            FrozenFactorization(A, [1], free=free)


@pytest.mark.parametrize("options", [SYMMETRIC_MIN_DEGREE, NODE_ORDER],
                         ids=["symmetric", "node"])
def test_lu_options_keep_the_non_finite_check(options):
    lu = FrozenFactorization(sp.diags([1e-300, 1.0], format="csc"), [],
                             options=options)
    with pytest.raises(SingularSystemError, match="non-finite"):
        lu.solve(np.array([1e10, 1.0]))


@pytest.mark.parametrize("kind", ["stokes", "harmonic", "linearized"])
def test_lu_options_match_default_ordering(fsi_solver, fsi_base, kind):
    """Each matrix kind solves with its fill-reducing options (and, for the
    fluid, its elimination order) as with SuperLU's defaults, on the
    level-0 matrices of the coupled solver."""
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    if kind == "harmonic":
        A, cdofs = asm.assemble_scalar_stiffness(V), fsi_solver.extender._fact.cdofs
        options = {"options": SYMMETRIC_MIN_DEGREE}
    else:
        fields, w = (None, None) if kind == "stokes" else (fsi_base.fields, fsi_base.fluid.w)
        A = asm.transformed_oseen_system(
            V, Q, fluid_coefficients(V, fields, fsi_solver.nu),
            advector=w, reaction_with=w)
        cdofs = dirichlet_dofs(V)
        options = {"options": NODE_ORDER, "free": elimination_order(V, Q, cdofs)}
    rng = np.random.default_rng(0)
    rhs, prescribed = rng.standard_normal((2, A.shape[0]))
    x = FrozenFactorization(A, cdofs, **options).solve(rhs, prescribed)
    y = FrozenFactorization(A, cdofs).solve(rhs, prescribed)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("kind", ["stokes-l0", "stokes-l1", "linearized-l0"])
def test_node_order_pivots_on_the_diagonal_with_less_fill(fsi_solver, fsi_base, kind):
    """Every fluid LU keeps the node order: SuperLU takes no off-diagonal
    pivot, and L + U fill at most 3/4 of COLAMD's on the same free block.
    At level 1 a 1 % pivot threshold already takes off-diagonal pivots,
    whose fill cascades at level 2."""
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    fields, w = (fsi_base.fields, fsi_base.fluid.w) if kind == "linearized-l0" else (None, None)
    if kind == "stokes-l1":
        V, Q = fluid_spaces(refine_uniform(fsi_solver.mesh))
    lu = LinearizedSolver(V, Q, fields, w, fsi_solver.nu)._lu
    assert np.array_equal(lu.lu.perm_r, np.arange(len(lu.free)))
    ascending = np.argsort(lu.free)
    colamd = spla.splu(lu.A_ff[ascending][:, ascending].tocsc(),
                       permc_spec="COLAMD", diag_pivot_thresh=0.01)
    assert lu.lu.L.nnz + lu.lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


def test_elimination_order_blocks_each_node(fsi_solver):
    """The fluid free dofs, each node's (v_x, v_y, p) in a row."""
    V, Q = fsi_solver.vspace, fsi_solver.pspace
    cdofs = dirichlet_dofs(V)
    order = elimination_order(V, Q, cdofs)
    assert np.array_equal(np.sort(order),
                          np.setdiff1d(np.arange(V.ndof + Q.ndof), cdofs))
    node = np.where(order < V.ndof, order // 2, order - V.ndof)
    kind = np.where(order < V.ndof, order % 2, 2)
    same = np.diff(node) == 0
    assert len(np.unique(node)) == np.count_nonzero(~same) + 1
    assert np.all(np.diff(kind)[same] > 0)


def test_pressure_dofs_are_the_leading_velocity_nodes(default_mesh, coarse_mesh):
    """Pressure dof j sits at velocity node j, which the fluid elimination
    order relies on."""
    for mesh in (default_mesh, coarse_mesh, refine_uniform(coarse_mesh)):
        V, Q = fluid_spaces(mesh)
        assert np.array_equal(Q.dof_coords, V.dof_coords[:Q.ndof])


def test_boundary_load_partition_of_unity(default_mesh):
    V = make_space(default_mesh, order=2, arity=2, subdomain=FLUID)
    load = asm.assemble_boundary_load(V, "inflow", np.array([2.0, -1.0]))
    # summing the loads over all dofs integrates f . (1,1) over the side
    assert abs(load[0::2].sum() - 2.0) <= 1e-12
    assert abs(load[1::2].sum() + 1.0) <= 1e-12


@pytest.mark.parametrize("mesh_name, tag", [
    ("default_mesh", "inflow"), ("default_mesh", "interface"),
    ("straight_mesh", "outflow")])
@pytest.mark.parametrize("data", [
    lambda x, y: np.stack([np.sin(3 * x) + y * y, np.exp(x - y)], axis=-1),
    np.array([2.0, -1.0])], ids=["callable", "constant"])
def test_boundary_load_matches_loop_oracle(request, mesh_name, tag, data):
    V = make_space(request.getfixturevalue(mesh_name), order=2, arity=2,
                   subdomain=FLUID)
    load = asm.assemble_boundary_load(V, tag, data)
    ref = boundary_load_by_loop(V, tag, data)
    assert np.abs(load - ref).max() <= 1e-15 * np.abs(ref).max()


def test_scalar_boundary_load_matches_loop_oracle(straight_mesh):
    Q = make_space(straight_mesh, order=1, arity=1, subdomain=FLUID)
    f = lambda x, y: np.cos(x) * y  # noqa: E731
    ref = boundary_load_by_loop(Q, "outflow", f)
    load = asm.assemble_boundary_load(Q, "outflow", f)
    assert np.abs(load - ref).max() <= 1e-15 * np.abs(ref).max()


def test_data_of_the_wrong_shape_is_rejected(default_mesh):
    V, Q = fluid_spaces(default_mesh)
    with pytest.raises(ValueError, match="data returned shape"):
        asm.assemble_velocity_load(V, lambda x, y: x + y)  # scalar for a vector
    with pytest.raises(ValueError, match="data returned shape"):
        asm.assemble_pressure_load(Q, lambda x, y: np.stack([x, y], axis=-1))
    with pytest.raises(ValueError, match="data returned shape"):
        asm.assemble_boundary_load(V, "inflow", lambda x, y: np.zeros(3))


def test_normset_constant(default_mesh):
    Q = make_space(default_mesh, order=1, arity=1, subdomain=FLUID)
    norms = asm.NormSet(Q)
    area = default_mesh.triangle_areas()[default_mesh.tri_subdomain == FLUID].sum()
    c = 3.0 * np.ones(Q.ndof)
    assert abs(norms.l2(c) - 3.0 * np.sqrt(area)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_velocity_load_linearity(default_mesh, data):
    V = make_space(default_mesh, order=2, arity=2, subdomain=FLUID)
    a = data.draw(st.floats(-5, 5, allow_nan=False))
    f1 = np.array([1.3, -0.4])
    f2 = np.array([0.2, 2.2])
    lhs = asm.assemble_velocity_load(V, a * f1 + f2)
    rhs = a * asm.assemble_velocity_load(V, f1) + asm.assemble_velocity_load(V, f2)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, abs(a))
