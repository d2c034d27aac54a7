"""Vectorized assembly of the transformed weak forms.

All volume terms are integrated at the quadrature rule of the spaces:
each ``Space`` holds the reference table of its basis at the rule, the
gather of its element dofs and the rule's physical points and weights.
The fluid weak form is written once, on the reference cell (Kronbichler &
Kormann 2012): ``action_coefficients`` is the one place where the element
geometry, the quadrature weights, nu and the flow-map fields (A, K) enter,
as per-point coefficient planes (a, k) built once per field.  ``None``
there means the identity field.  ``oseen_action`` applies the
Navier-Stokes operator to a state with no matrix: the space's
``reference_fields`` of the state (one GEMM against its table), 2 x 2
products on (q, T) planes, a GEMM back and a ``bincount`` over its gather.
The assembled fluid blocks contract products of the same table with a or k
in one GEMM each, and the loads scatter with one ``bincount``.

The fluid kernels return element blocks; every assembled matrix (the
fluid [v; p] operator from all its blocks at once, the Gram matrices,
elasticity and the boundary mass) is one COO -> CSR conversion of its
element entries in ``_matrix``, save that the velocity-pressure block is
summed first so that its transpose enters the operator negated exactly.
The scalar Gram matrices and linear elasticity contract the physical
gradients their ``Space`` caches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import TAG_OUTFLOW, edge_keys
from .quadrature import EDGE_POINTS, EDGE_WEIGHTS
from .spaces import FEFunction, Space, read_only


def _matrix(blocks, shape):
    """CSR matrix of ``shape`` summing the entries of the (rows, cols,
    values) triples in ``blocks``, each triple broadcast to one shape: the
    index arrays are built once, as int32, and converted from COO once,
    which sums the duplicates into canonical CSR."""
    flat = [np.broadcast_arrays(*block) for block in blocks]
    rows, cols, data = (np.concatenate([f[k] for f in flat], axis=None, dtype=t)
                        for k, t in enumerate((np.int32, np.int32, float)))
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def _scalar_matrix(space: Space, elem):
    """Matrix of the scalar layout from the (T, a, b) element entries, or
    their (T, a b) rows."""
    ed = space.elem_dofs
    elem = elem.reshape(ed.shape + ed.shape[1:])
    return _matrix([(ed[:, :, None], ed[:, None, :], elem)], (space.n_scalar,) * 2)


def _dofs(space: Space):
    """(T, a, i) vector dof of component i of each element's scalar dof a."""
    return space.gather.transpose(2, 0, 1)


def _contract(X, Y):
    """(T, a, b) sums over q and k of X[e, q, a, k] Y[e, q, b, k]."""
    nt, nq, na, nk = X.shape
    Xt = X.transpose(0, 2, 1, 3).reshape(nt, na, nq * nk)
    return Xt @ Y.transpose(0, 1, 3, 2).reshape(nt, nq * nk, -1)


def _outer(phi):
    """Basis products phi_a phi_b per quadrature point, (q, a b)."""
    return (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)


def action_coefficients(vspace: Space, A=None, K=None, nu=1.0):
    """The fields (A, K) of the fluid weak form (``None``: the identity) in
    reference coordinates, weights and nu folded in: a = nu wdet B^-1 A B^-T
    and k = wdet K B^-T, B the element Jacobian, as contiguous (q, T) planes
    a[m, n] = a_mn and k[m, :, i] = k_im, built once per field.  The only
    place where geometry, weights and nu enter the fluid operators."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    nt, nq = vspace.wdet.shape
    w, Bi = vspace.wdet.T, vspace.inv_jac_planes  # Bi[m, l] = B^-1_ml
    eye = np.eye(2).reshape(2, 1, 2, 1)
    # [l, q, i, T] views of the (T, q, i, l) fields
    Ap = eye if A is None else A.transpose(3, 1, 2, 0)
    Kp = eye if K is None else K.transpose(3, 1, 2, 0)
    AB = np.einsum("nle,lqke->knqe", Bi, Ap)  # (A B^-T)_kn
    a = np.einsum("mke,knqe->mnqe", Bi, AB)
    k = np.einsum("mle,lqie->mqie", Bi, Kp)
    return (np.multiply(a, nu * w, out=np.empty((2, 2, nq, nt))),
            np.multiply(k, w[:, None], out=np.empty((2, nq, 2, nt))))


def assemble_viscous(vspace: Space, a):
    """nu * integral of (grad psi)^T A (grad w), componentwise: the (T, a,
    b) entries d_m psi_a a_mn d_n psi_b summed over the points."""
    G = vspace.table[:2]
    GG = (G[:, None, :, :, None] * G[None, :, :, None, :]).reshape(-1, 36)
    return (GG.T @ a.reshape(len(GG), -1)).reshape(6, 6, -1).transpose(2, 0, 1)


def assemble_convection(vspace: Space, advector: FEFunction, k):
    """integral of psi . (w_adv^T K grad) w, componentwise: the (T, a, b)
    entries psi_a (k^T w_adv)_m d_m psi_b summed over the points."""
    w = advector.values_at().transpose(1, 2, 0)  # [point, i, T]
    kw = np.einsum("mqie,qie->mqe", k, w)
    t = vspace.table
    PG = (t[2][:, :, None] * t[:2, :, None, :]).reshape(-1, 36)
    return (PG.T @ kw.reshape(len(PG), -1)).reshape(6, 6, -1).transpose(2, 0, 1)


def assemble_reaction(vspace: Space, base: FEFunction, k):
    """integral of psi_i w_j (K grad base_i)_j, the component coupling: the
    (T, a, i, b, j) entries."""
    H = vspace.reference_fields(base.coefficients)[:2]
    R = np.einsum("mqie,mqje->qije", H, k)  # wdet (K grad base_i)_j
    elem = _outer(vspace.table[2]).T @ R.reshape(len(R), -1)  # (a b, i j T)
    return elem.reshape(6, 6, 2, 2, -1).transpose(4, 0, 2, 1, 3)


def assemble_pressure_blocks(vspace: Space, pspace: Space, k):
    """Velocity-pressure block -int p (K grad).psi: the (T, a, i, c)
    entries of velocity dof (a, i) and pressure dof c."""
    q = pspace.table[2]
    GQ = (vspace.table[:2, :, :, None] * q[:, None, :]).reshape(-1, 6 * q.shape[1])
    elem = -(GQ.T @ k.reshape(len(GQ), -1))  # (a c, i T)
    return elem.reshape(6, q.shape[1], 2, -1).transpose(3, 0, 2, 1)


def _gram(space: Space, kind, build):
    """The scalar Gram matrix ``kind`` of ``space``: ``build()`` on first
    use, then the cached read-only matrix."""
    if kind not in space.grams:
        space.grams[kind] = build()
        read_only(space.grams[kind].data)
    return space.grams[kind]


def assemble_mass(space: Space):
    """Scalar mass matrix, assembled once per space."""
    return _gram(space, "mass", lambda: _scalar_matrix(
        space, space.wdet @ _outer(space.table[2])))


def assemble_scalar_stiffness(space: Space):
    """Scalar stiffness matrix, assembled once per space."""
    def build():
        g = space.grads_at()
        return _scalar_matrix(space, _contract(space.wdet[..., None, None] * g, g))
    return _gram(space, "stiffness", build)


def assemble_elasticity(space: Space, lam, mu):
    """Isotropic linear elasticity: 2 mu eps(u):eps(v) + lam div u div v."""
    if mu <= 0 or lam < 0:
        raise ValueError("Lame parameters require mu > 0 and lambda >= 0")
    g = space.grads_at()
    nt, nq, nloc, _ = g.shape
    wg = (space.wdet[..., None, None] * g).reshape(nt, nq, -1)
    # GG[e, a, i, b, j] = integral of d_i psi_a d_j psi_b
    GG = (wg.swapaxes(1, 2) @ g.reshape(nt, nq, -1)).reshape(nt, nloc, 2, nloc, 2)
    dot = GG[:, :, 0, :, 0] + GG[:, :, 1, :, 1]
    # mu (delta_ij grad a . grad b + da_j db_i) + lam da_i db_j
    elem = mu * dot[:, :, None, :, None] * np.eye(2)[:, None, :]
    elem += mu * GG.transpose(0, 1, 4, 3, 2)
    elem += lam * GG
    d = _dofs(space)
    return _matrix([(d[:, :, :, None, None], d[:, None, None], elem)],
                   (space.ndof, space.ndof))


def transformed_oseen_system(
    vspace: Space,
    pspace: Space,
    coefficients,
    advector: FEFunction | None = None,
    reaction_with: FEFunction | None = None,
):
    """Assemble the transformed (Navier-)Stokes operator for the
    ``coefficients`` (a, k) of :func:`action_coefficients` as one CSR matrix
    [[A_vv, A_vp], [-A_vp^T, 0]] on the stacked [v; p] dofs, converted once
    from its velocity element blocks and the summed entries of A_vp, so that
    (p, v) is exactly -A_vp^T; (p, p) stores no entry.

    ``A_vv`` is the viscous block plus the convection by ``advector`` on
    both components, and the reaction with ``reaction_with`` when given.
    The do-nothing outflow condition is natural for this weak form: no
    surface term is assembled on the outflow boundary.
    """
    a, k = coefficients
    d = _dofs(vspace)
    vv = assemble_viscous(vspace, a)
    if advector is not None:
        vv = vv + assemble_convection(vspace, advector, k)
    blocks = [(d[:, :, None, :], d[:, None, :, :], vv[..., None])]
    if reaction_with is not None:
        blocks.append((d[:, :, :, None, None], d[:, None, None],
                       assemble_reaction(vspace, reaction_with, k)))
    # (v, p) is summed on its own first, so each (p, v) entry enters the
    # conversion once and is exactly the negative of its (v, p) entry
    vp = _matrix([(d[..., None], pspace.elem_dofs[:, None, None, :],
                   assemble_pressure_blocks(vspace, pspace, k))],
                 (vspace.ndof, pspace.ndof)).tocoo()
    p = vspace.ndof + vp.col
    blocks += [(vp.row, p, vp.data), (p, vp.row, -vp.data)]
    n = vspace.ndof + pspace.ndof
    return _matrix(blocks, (n, n))


def oseen_action(vspace: Space, pspace: Space, x, coefficients):
    """N(x) = M(A, K) x + C(w; K) x on the stacked [v; p] dofs, w the
    velocity of x, without assembling a matrix.

    Equals ``transformed_oseen_system(vspace, pspace, coefficients,
    advector=w) @ x`` for the same ``coefficients`` of
    :func:`action_coefficients`.  With H = grad_xi w, the velocity rows
    integrate d_m psi_a (H a^T - p k)_im + psi_a (H k^T w)_i and the
    pressure rows q_c k : H on the reference cell.
    """
    a, k = coefficients
    nq = k.shape[1]
    D = vspace.reference_fields(x)  # H_im for m = 0, 1 and w_i for m = 2
    P = pspace.reference_fields(x[vspace.ndof:])[2, :, 0]
    Y = np.empty_like(D)
    np.einsum("nqie,mnqe->mqie", D[:2], a, out=Y[:2])  # (H a^T)_im
    Y[:2] -= P[:, None] * k
    kw = np.einsum("mqie,qie->mqe", k, D[2])  # (k^T w)_m
    np.einsum("mqie,mqe->qie", D[:2], kw, out=Y[2])
    div = np.einsum("mqie,mqie->qe", k, D[:2])
    rv = vspace.table.reshape(3 * nq, -1).T @ Y.reshape(3 * nq, -1)
    rp = pspace.table[2].T @ div
    return np.concatenate([
        np.bincount(vspace.gather.ravel(), rv.ravel(), minlength=vspace.ndof),
        np.bincount(pspace.gather.ravel(), rp.ravel(), minlength=pspace.ndof)])


# ---- right-hand sides ---------------------------------------------------
#
# Problem data (forcing, divergence data, edge loads, Dirichlet values) are
# ``None`` (zero), a constant, or a callable ``data(x, y)`` that takes
# coordinate arrays of any shape S, scalars included, and returns
# S + value_shape.  ``data_at`` is the one place data are evaluated.

def data_at(data, points, value_shape=()):
    """Values of problem data at the points (..., 2), shape (...) +
    ``value_shape``: zeros for ``None``, a broadcast constant, or one call
    of the callable on the coordinate arrays (``ValueError`` if it returns
    another shape)."""
    shape = points.shape[:-1] + tuple(value_shape)
    if data is None:
        return np.zeros(shape)
    if not callable(data):
        return np.broadcast_to(np.asarray(data, dtype=float), shape)
    vals = np.asarray(data(points[..., 0], points[..., 1]), dtype=float)
    if vals.shape != shape:
        raise ValueError(f"data returned shape {vals.shape}, expected {shape}")
    return vals


def _scatter(space: Space, elem):
    """Sum element vectors (T, nloc[, arity]) into the dofs, in element
    order, with one ``bincount``."""
    dofs = space.gather.transpose(2, 0, 1)
    return np.bincount(dofs.ravel(), elem.ravel(), minlength=space.ndof)


def assemble_velocity_load(vspace: Space, f):
    """integral of f . psi over the velocity space, f vector data."""
    vals = data_at(f, vspace.quad_points, (2,))
    return _scatter(vspace, vspace.table[2].T @ (vspace.wdet[..., None] * vals))


def assemble_pressure_load(pspace: Space, f2):
    """integral of f2 q over the pressure space, f2 scalar (divergence) data."""
    vals = data_at(f2, pspace.quad_points)
    return _scatter(pspace, (pspace.wdet * vals) @ pspace.table[2])


def _edge_trace_basis(order, t):
    if order == 1:
        return np.stack([1 - t, t], axis=1)
    return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1)


def _edges(space: Space, tag):
    """Edge geometry of ``tag`` on ``space``: the trace dofs (E, nloc), the
    lengths (E,), the edge quadrature points (E, q, 2) and the trace basis
    at them (q, nloc)."""
    edges = space.tagged_entities(tag)
    start = space.mesh.nodes[edges[:, 0]]
    d = space.mesh.nodes[edges[:, 1]] - start
    points = start[:, None] + EDGE_POINTS[:, None] * d[:, None]
    return (space.trace_dofs(edges), np.hypot(d[:, 0], d[:, 1]), points,
            _edge_trace_basis(space.desc.order, EDGE_POINTS))


def assemble_boundary_mass(space: Space, tag):
    """Sparse M with M @ f.coefficients the surface integral of f . psi over
    the edges of ``tag``, for f in ``space``, componentwise."""
    dofs, length, _, N = _edges(space, tag)
    elem = length[:, None, None] * ((EDGE_WEIGHTS[:, None] * N).T @ N)
    c = np.arange(space.desc.arity)
    rows = space.desc.arity * dofs[:, :, None, None] + c
    cols = space.desc.arity * dofs[:, None, :, None] + c
    return _matrix([(rows, cols, elem[..., None])], (space.ndof, space.ndof))


def assemble_boundary_load(space: Space, tag, f):
    """Surface integral of f . psi over the edges of ``tag``, f data with
    the space's arity."""
    dofs, length, points, N = _edges(space, tag)
    arity = space.desc.arity
    shape = () if arity == 1 else (arity,)
    fv = data_at(f, points, shape).reshape(len(dofs), -1, arity)
    contrib = length[:, None, None] * ((EDGE_WEIGHTS[:, None] * N).T @ fv)
    rows = arity * dofs[:, :, None] + np.arange(arity)
    return np.bincount(rows.ravel(), contrib.ravel(), minlength=space.ndof)


def assemble_rhs(vspace: Space, pspace: Space, f=None, f2=None, f3=None):
    """Load vector [velocity block; pressure block] of the volume forcing f,
    the divergence data f2 and the outflow load f3."""
    rhs_v = assemble_velocity_load(vspace, f)
    if f3 is not None:
        rhs_v = rhs_v + assemble_boundary_load(vspace, TAG_OUTFLOW, f3)
    return np.concatenate([rhs_v, assemble_pressure_load(pspace, f2)])


# ---- norms ---------------------------------------------------------------

class NormSet:
    """Discrete H1 / L2 norms by the Gram matrices of a space's scalar
    layout, each built when a norm first needs it; the norm of a vector
    function sums the Gram forms of its components."""

    def __init__(self, space: Space):
        self.space = space

    def _norm(self, gram, vec):
        # the rows of gram @ x, raveled, are those of the Gram matrix
        # expanded to the interleaved layout, applied to vec
        x = vec.reshape(-1, self.space.desc.arity)
        return float(np.sqrt(abs(vec @ (gram @ x).ravel())))

    def l2(self, vec):
        return self._norm(assemble_mass(self.space), vec)

    def h1_norm(self, vec):
        S = self.space
        return self._norm(_gram(S, "h1", lambda: (
            assemble_mass(S) + assemble_scalar_stiffness(S)).tocsr()), vec)


# ---- tagged-edge element data (fluxes, traction) --------------------------

def tagged_edge_elements(space: Space, tag):
    """The tagged edges of this space's subdomain, one per adjacent element
    in element order: (element (local index), start node, end node, outward
    unit normal).  Orientation is taken from the element (CCW traversal)."""
    nodes, n = space.mesh.nodes, space.mesh.num_nodes
    edges = space.tagged_entities(tag)
    tris = space.mesh.triangles[space.tri_ids]
    hit = np.isin(edge_keys(tris, n), edges.min(axis=1) * n + edges.max(axis=1))
    element, local = np.nonzero(hit)
    start, end = tris[element, local], tris[element, (local + 1) % 3]
    d = nodes[end] - nodes[start]
    normal = np.stack([d[:, 1], -d[:, 0]], axis=1) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return element, start, end, normal
