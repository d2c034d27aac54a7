"""Vectorized assembly of the transformed weak forms.

All volume terms are integrated with the degree-6 symmetric triangle rule.
Coefficient fields (the diffusion matrix and cofactor matrix of the flow
map) enter as per-element, per-quadrature-point arrays; passing ``None``
means the identity field, which reproduces the untransformed operators
bit-identically (same code path, identity coefficients).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linsolve import SaddleSystem
from .quadrature import EDGE_POINTS, EDGE_WEIGHTS, TRI_POINTS, TRI_WEIGHTS
from .spaces import FEFunction, Space


class NonPositiveJacobianError(ValueError):
    """A transform field carries a non-positive volume ratio."""

    def __init__(self, element_id, value):
        self.element_id = int(element_id)
        self.value = float(value)
        super().__init__(f"J = {value:.6e} <= 0 in element {element_id}")


def _wdet(space: Space):
    return TRI_WEIGHTS[None, :] * space.detJ[:, None]


def _eye_field(ntri, nq):
    return np.broadcast_to(np.eye(2), (ntri, nq, 2, 2))


def _coeffs(space, fields):
    """Resolve (A, K, J) arrays from a transform-fields object or None."""
    nt, nq = len(space.tri_ids), len(TRI_WEIGHTS)
    if fields is None:
        return _eye_field(nt, nq), _eye_field(nt, nq), np.ones((nt, nq))
    if np.any(fields.J <= 0.0):
        e, q = np.unravel_index(np.argmin(fields.J), fields.J.shape)
        raise NonPositiveJacobianError(space.tri_ids[e], fields.J[e, q])
    return fields.A, fields.K, fields.J


def _scatter(rows, cols, vals, shape):
    m = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def _vector_rows(space, elem_vals):
    """Scatter (T, a, i, b, j) element blocks into the vector dof matrix."""
    ed = space.elem_dofs
    nloc = ed.shape[1]
    rows = (2 * ed)[:, :, None, None, None] + np.arange(2)[None, None, :, None, None]
    rows = np.broadcast_to(rows, elem_vals.shape)
    cols = (2 * ed)[:, None, None, :, None] + np.arange(2)[None, None, None, None, :]
    cols = np.broadcast_to(cols, elem_vals.shape)
    return _scatter(rows, cols, elem_vals, (space.ndof, space.ndof))


def _scalar_to_vector_blockdiag(space, elem_scalar):
    """Expand a scalar element block (T, a, b) to both vector components."""
    nt, nloc, _ = elem_scalar.shape
    full = np.zeros((nt, nloc, 2, nloc, 2))
    full[:, :, 0, :, 0] = elem_scalar
    full[:, :, 1, :, 1] = elem_scalar
    return _vector_rows(space, full)


def assemble_viscous(vspace: Space, A=None, nu=1.0):
    """nu * integral of (grad psi)^T A (grad w), componentwise."""
    wdet = _wdet(vspace)
    g = vspace.grads_at(TRI_POINTS)
    if A is None:
        A = _eye_field(len(vspace.tri_ids), len(TRI_WEIGHTS))
    elem = nu * np.einsum("eq,eqai,eqij,eqbj->eab", wdet, g, A, g)
    return _scalar_to_vector_blockdiag(vspace, elem)


def assemble_convection(vspace: Space, advector: FEFunction, K=None):
    """integral of psi . (w_adv^T K grad) w, block-diagonal per component."""
    wdet = _wdet(vspace)
    phi = vspace.basis_at(TRI_POINTS)
    g = vspace.grads_at(TRI_POINTS)
    wv = advector.values_at(TRI_POINTS)  # (T, q, 2)
    if K is None:
        K = _eye_field(len(vspace.tri_ids), len(TRI_WEIGHTS))
    adv = np.einsum("eqjl,eqj->eql", K, wv)  # (K^T w)_l
    elem = np.einsum("eq,qa,eql,eqbl->eab", wdet, phi, adv, g)
    return _scalar_to_vector_blockdiag(vspace, elem)


def assemble_reaction(vspace: Space, base: FEFunction, K=None):
    """integral of psi_i w_j (K grad base_i)_j  (component coupling block)."""
    wdet = _wdet(vspace)
    phi = vspace.basis_at(TRI_POINTS)
    Gw = base.gradients_at(TRI_POINTS)  # (T, q, i, l)
    if K is None:
        K = _eye_field(len(vspace.tri_ids), len(TRI_WEIGHTS))
    D = np.einsum("eqjl,eqil->eqij", K, Gw)
    elem = np.einsum("eq,qa,qb,eqij->eaibj", wdet, phi, phi, D)
    return _vector_rows(vspace, elem)


def assemble_pressure_blocks(vspace: Space, pspace: Space, K=None):
    """Velocity-pressure block -int p (K grad).psi and its negative transpose."""
    wdet = _wdet(vspace)
    g = vspace.grads_at(TRI_POINTS)
    q = pspace.basis_at(TRI_POINTS)
    if K is None:
        K = _eye_field(len(vspace.tri_ids), len(TRI_WEIGHTS))
    elem = -np.einsum("eq,qc,eqil,eqal->eaic", wdet, q, K, g)  # (T, a, i, c)

    ved = vspace.elem_dofs
    ped = pspace.elem_dofs
    rows = (2 * ved)[:, :, None, None] + np.arange(2)[None, None, :, None]
    rows = np.broadcast_to(rows, elem.shape)
    cols = np.broadcast_to(ped[:, None, None, :], elem.shape)
    A_vp = _scatter(rows, cols, elem, (vspace.ndof, pspace.ndof))
    A_pv = (-A_vp).T.tocsr()
    return A_vp, A_pv


def assemble_mass(space: Space):
    """Scalar mass matrix."""
    wdet = _wdet(space)
    phi = space.basis_at(TRI_POINTS)
    elem = np.einsum("eq,qa,qb->eab", wdet, phi, phi)
    ed = space.elem_dofs
    rows = np.broadcast_to(ed[:, :, None], elem.shape)
    cols = np.broadcast_to(ed[:, None, :], elem.shape)
    return _scatter(rows, cols, elem, (space.n_scalar, space.n_scalar))


def assemble_scalar_stiffness(space: Space):
    wdet = _wdet(space)
    g = space.grads_at(TRI_POINTS)
    elem = np.einsum("eq,eqal,eqbl->eab", wdet, g, g)
    ed = space.elem_dofs
    rows = np.broadcast_to(ed[:, :, None], elem.shape)
    cols = np.broadcast_to(ed[:, None, :], elem.shape)
    return _scatter(rows, cols, elem, (space.n_scalar, space.n_scalar))


def assemble_elasticity(space: Space, lam, mu):
    """Isotropic linear elasticity: 2 mu eps(u):eps(v) + lam div u div v."""
    if mu <= 0 or lam < 0:
        raise ValueError("Lame parameters require mu > 0 and lambda >= 0")
    wdet = _wdet(space)
    g = space.grads_at(TRI_POINTS)
    dot = np.einsum("eq,eqal,eqbl->eab", wdet, g, g)
    # mu (delta_ij grad a . grad b + da_j db_i) + lam da_i db_j
    elem = mu * np.einsum("eab,ij->eaibj", dot, np.eye(2))
    elem += mu * np.einsum("eq,eqaj,eqbi->eaibj", wdet, g, g)
    elem += lam * np.einsum("eq,eqai,eqbj->eaibj", wdet, g, g)
    return _vector_rows(space, elem)


def transformed_oseen_system(
    vspace: Space,
    pspace: Space,
    fields=None,
    nu=1.0,
    advector: FEFunction | None = None,
    reaction_with: FEFunction | None = None,
) -> SaddleSystem:
    """Assemble the transformed (Navier-)Stokes saddle system.

    The do-nothing outflow condition is natural for this weak form: no
    surface term is assembled on the outflow boundary.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    A, K, _ = _coeffs(vspace, fields)
    A_vv = assemble_viscous(vspace, A, nu)
    if advector is not None:
        A_vv = A_vv + assemble_convection(vspace, advector, K)
    if reaction_with is not None:
        A_vv = A_vv + assemble_reaction(vspace, reaction_with, K)
    A_vp, A_pv = assemble_pressure_blocks(vspace, pspace, K)
    return SaddleSystem(
        A_vv,
        A_vp,
        A_pv,
        None,
        np.zeros(vspace.ndof),
        np.zeros(pspace.ndof),
    )


# ---- right-hand sides ---------------------------------------------------

def _resolve_values(space, data, arity):
    """Values of callable / FEFunction / constant data at quadrature points."""
    nt, nq = len(space.tri_ids), len(TRI_WEIGHTS)
    if data is None:
        return np.zeros((nt, nq, arity))
    if isinstance(data, FEFunction):
        return data.values_at(TRI_POINTS)
    if callable(data):
        xy = space.quad_points_physical(TRI_POINTS)
        vals = np.asarray(
            [[data(x, y) for x, y in row] for row in xy], dtype=float
        )
        return vals.reshape(nt, nq, arity)
    vals = np.broadcast_to(np.asarray(data, dtype=float), (nt, nq, arity))
    return vals


def assemble_velocity_load(vspace: Space, f):
    """integral of f . psi over the velocity space."""
    vals = _resolve_values(vspace, f, 2)
    wdet = _wdet(vspace)
    phi = vspace.basis_at(TRI_POINTS)
    elem = np.einsum("eq,qa,eqi->eai", wdet, phi, vals)
    out = np.zeros(vspace.ndof)
    np.add.at(out, 2 * vspace.elem_dofs[:, :, None] + np.arange(2)[None, None, :], elem)
    return out


def assemble_pressure_load(pspace: Space, f2):
    """integral of f2 q over the pressure space (divergence data)."""
    vals = _resolve_values(pspace, f2, 1)[..., 0]
    wdet = _wdet(pspace)
    phi = pspace.basis_at(TRI_POINTS)
    elem = np.einsum("eq,qa,eq->ea", wdet, phi, vals)
    out = np.zeros(pspace.ndof)
    np.add.at(out, pspace.elem_dofs, elem)
    return out


def _edge_trace_basis(order, t):
    if order == 1:
        return np.stack([1 - t, t], axis=1)
    return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1)


def assemble_boundary_load(space: Space, tag, f):
    """Surface integral of f . psi over edges of the given tag.

    ``f`` is a callable (x, y) -> value with the space's arity, or constant.
    """
    edges = space.tagged_entities(tag)
    t = EDGE_POINTS
    N = _edge_trace_basis(space.desc.order, t)
    arity = space.desc.arity
    out = np.zeros(space.ndof)
    for u, v in edges:
        pu, pv = space.mesh.nodes[u], space.mesh.nodes[v]
        length = float(np.hypot(*(pv - pu)))
        dofs = [space._vert_dof[int(u)], space._vert_dof[int(v)]]
        if space.desc.order == 2:
            dofs.append(space._edge_dof[(min(int(u), int(v)), max(int(u), int(v)))])
        xs = pu[None, :] + t[:, None] * (pv - pu)[None, :]
        if isinstance(f, FEFunction):
            if f.space is not space:
                raise ValueError("boundary data must live in the test space")
            cm = f.component_matrix()
            fv = N @ cm[dofs]
        elif callable(f):
            fv = np.asarray([f(x, y) for x, y in xs], dtype=float).reshape(len(t), arity)
        else:
            fv = np.broadcast_to(np.asarray(f, dtype=float), (len(t), arity))
        contrib = length * np.einsum("k,ka,ki->ai", EDGE_WEIGHTS, N, fv)
        for a, d in enumerate(dofs):
            for c in range(arity):
                out[space.vdof(d, c) if arity > 1 else d] += contrib[a, c]
    return out


def assemble_rhs(vspace: Space, pspace: Space, f=None, f2=None, f3=None):
    """Load vector (velocity block, pressure block) for data (f, f2, f3)."""
    rhs_v = assemble_velocity_load(vspace, f)
    if f3 is not None:
        from .mesh import TAG_OUTFLOW

        rhs_v = rhs_v + assemble_boundary_load(vspace, TAG_OUTFLOW, f3)
    rhs_p = assemble_pressure_load(pspace, f2)
    return np.concatenate([rhs_v, rhs_p])


# ---- norms ---------------------------------------------------------------

class NormSet:
    """Discrete H1 / L2 Gram matrices for a space (vector layouts expanded)."""

    def __init__(self, space: Space):
        M = assemble_mass(space)
        S = assemble_scalar_stiffness(space)
        if space.desc.arity == 2:
            M = sp.kron(M, sp.eye(2), format="csr")
            # kron ordering matches interleaved dofs: block (s, c) -> 2 s + c
            S = sp.kron(S, sp.eye(2), format="csr")
        self.mass = M
        self.h1 = (M + S).tocsr()

    def l2(self, vec):
        return float(np.sqrt(abs(vec @ (self.mass @ vec))))

    def h1_norm(self, vec):
        return float(np.sqrt(abs(vec @ (self.h1 @ vec))))


# ---- tagged-edge element data (fluxes, traction) --------------------------

def tagged_edge_elements(space: Space, tag):
    """Per tagged edge: adjacent element (local index), oriented endpoints,
    outward unit normal, and length.  Orientation is taken from the unique
    adjacent triangle in this space's subdomain (CCW traversal)."""
    edges = {tuple(sorted(map(int, e))) for e in space.tagged_entities(tag)}
    tris = space.mesh.triangles[space.tri_ids]
    out = []
    for e, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key in edges:
                pu, pv = space.mesh.nodes[u], space.mesh.nodes[v]
                d = pv - pu
                length = float(np.hypot(*d))
                normal = np.array([d[1], -d[0]]) / length
                out.append({
                    "element": e,
                    "start": int(u),
                    "end": int(v),
                    "normal": normal,
                    "length": length,
                })
    return out

