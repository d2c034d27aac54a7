"""Independent oracles and test-only checks for the test suite.

Most of this file is deliberately written with plain per-element /
per-node Python loops and explicit formulas, avoiding the package's
vectorized assembly paths, so that agreement between the two is evidence
rather than tautology.  The rest are checks that only tests run, kept out
of the package because no scenario needs them: the cofactor-divergence
(Piola) identity from the lift's element Hessians, the ellipticity floor
of the transformed diffusion matrix, the mirror permutation of the mesh
nodes, the reader of the ``mesh.txt`` file that the ``mesh`` scenario
writes, and the derivative's one-direction linearized fluid solve and
coupling map, from which the dense coupling matrix is built column by
column to check the Krylov derivative solve against.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fsichannel.elasticity import interface_trace
from fsichannel.geomap import EllipticityError
from fsichannel.mesh import FLUID, SOLID, Mesh
from fsichannel.quadrature import EDGE_POINTS, EDGE_WEIGHTS
from fsichannel.spaces import FEFunction

# quadrature: use a degree-6 rule written out independently (Gauss points
# for the unit triangle, from the standard tables)
_A1, _W1 = 0.063089014491502, 0.050844906370207
_A2, _W2 = 0.249286745170910, 0.116786275726379
_A3, _B3, _W3 = 0.053145049844816, 0.310352451033785, 0.082851075618374


def tri_quadrature():
    pts, wts = [], []
    for a, w in ((_A1, _W1), (_A2, _W2)):
        for p in ((a, a), (1 - 2 * a, a), (a, 1 - 2 * a)):
            pts.append(p)
            wts.append(w)
    for p in [(_A3, _B3), (_B3, _A3), (_A3, 1 - _A3 - _B3),
              (1 - _A3 - _B3, _A3), (_B3, 1 - _A3 - _B3),
              (1 - _A3 - _B3, _B3)]:
        pts.append(p)
        wts.append(_W3)
    return np.array(pts), np.array(wts) / 2.0


def p2_shape(xi, eta):
    lam = [1 - xi - eta, xi, eta]
    vals = [l * (2 * l - 1) for l in lam]
    vals += [4 * lam[0] * lam[1], 4 * lam[1] * lam[2], 4 * lam[2] * lam[0]]
    return np.array(vals)


def p2_shape_grad(xi, eta):
    lam = [1 - xi - eta, xi, eta]
    dlam = [(-1, -1), (1, 0), (0, 1)]
    g = []
    for k in range(3):
        g.append([(4 * lam[k] - 1) * d for d in dlam[k]])
    for i, j in ((0, 1), (1, 2), (2, 0)):
        g.append([4 * (lam[i] * dlam[j][d] + lam[j] * dlam[i][d])
                  for d in range(2)])
    return np.array(g)


def p1_shape(xi, eta):
    return np.array([1 - xi - eta, xi, eta])


def p1_shape_grad():
    return np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def element_geometry(nodes, tri):
    p0, p1, p2 = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
    B = np.column_stack([p1 - p0, p2 - p0])
    detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    Binv = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / detB
    return p0, B, detB, Binv


class TaylorHoodDofs:
    """Scalar dof numbering for P2/P1 on a triangle subset, built
    independently of the package (vertex dofs first, then edge midpoints
    in first-seen order)."""

    def __init__(self, nodes, triangles):
        self.nodes = nodes
        self.triangles = triangles
        self.vmap = {}
        self.emap = {}
        self.coords = []
        for tri in triangles:
            for v in tri:
                if int(v) not in self.vmap:
                    self.vmap[int(v)] = len(self.coords)
                    self.coords.append(nodes[v])
        self.n_p1 = len(self.coords)
        for tri in triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(int(a), int(b)), max(int(a), int(b)))
                if key not in self.emap:
                    self.emap[key] = len(self.coords)
                    self.coords.append(0.5 * (nodes[a] + nodes[b]))
        self.n_p2 = len(self.coords)
        self.coords = np.array(self.coords)

    def p2_dofs(self, tri):
        out = [self.vmap[int(v)] for v in tri]
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            out.append(self.emap[(min(int(a), int(b)), max(int(a), int(b)))])
        return out

    def p1_dofs(self, tri):
        return [self.vmap[int(v)] for v in tri]


def assemble_scalar_p2_stiffness(nodes, triangles):
    """Loop-based P2 stiffness matrix on the given triangles."""
    dofs = TaylorHoodDofs(nodes, triangles)
    pts, wts = tri_quadrature()
    n = dofs.n_p2
    A = np.zeros((n, n))
    for tri in triangles:
        p0, B, detB, Binv = element_geometry(nodes, tri)
        ed = dofs.p2_dofs(tri)
        for (xi, eta), w in zip(pts, wts):
            g = p2_shape_grad(xi, eta) @ Binv  # (6, 2) physical gradients
            for a in range(6):
                for b in range(6):
                    A[ed[a], ed[b]] += w * detB * (g[a] @ g[b])
    return A, dofs


def _identity(x):
    return np.eye(2)


def assemble_navier_stokes(nodes, triangles, nu, advector=None, newton=False,
                           A_of=_identity, K_of=_identity):
    """Loop-based transformed Navier-Stokes / Oseen assembly.

    Unknown layout matches the package: interleaved velocity components
    (2*dof + comp) followed by pressure dofs.  Returns (matrix, dofs).
    ``advector`` is a velocity coefficient vector (interleaved); with
    ``newton`` the reaction (Jacobian) term is included.  ``A_of(x)`` and
    ``K_of(x)`` give the diffusion and cofactor matrices at a physical point
    (identity by default: the untransformed system); they are evaluated at
    this file's own quadrature points.
    """
    dofs = TaylorHoodDofs(nodes, triangles)
    pts, wts = tri_quadrature()
    nv = 2 * dofs.n_p2
    npr = dofs.n_p1
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # tabulate shape data at the quadrature points once
    Phi = np.array([p2_shape(xi, eta) for xi, eta in pts])          # (q, 6)
    Gref = np.array([p2_shape_grad(xi, eta) for xi, eta in pts])    # (q, 6, 2)
    Qp = np.array([p1_shape(xi, eta) for xi, eta in pts])           # (q, 3)
    wts = np.asarray(wts)

    for tri in triangles:
        p0, B, detB, Binv = element_geometry(nodes, tri)
        e2 = dofs.p2_dofs(tri)
        e1 = dofs.p1_dofs(tri)
        ww = wts * detB                                  # (q,)
        G = Gref @ Binv                                  # (q, 6, 2) physical
        xq = [p0 + B @ pt for pt in pts]
        Aq = np.array([A_of(x) for x in xq])             # (q, 2, 2)
        Kq = np.array([K_of(x) for x in xq])
        visc = nu * np.einsum("q,qad,qde,qbe->ab", ww, G, Aq, G)
        if advector is not None:
            adv = np.array([[advector[2 * e2[a] + i] for i in range(2)]
                            for a in range(6)])          # (6, 2)
            wq = Phi @ adv                               # (q, 2)
            visc = visc + np.einsum("q,qa,qbd,qed,qe->ab", ww, Phi, G, Kq, wq)
            if newton:
                gradw = np.einsum("ai,qad,qjd->qij", adv, G, Kq)  # (q, 2, 2)
                R = np.einsum("q,qa,qb,qij->abij", ww, Phi, Phi, gradw)
                for a in range(6):
                    for b in range(6):
                        for i in range(2):
                            for j in range(2):
                                add(2 * e2[a] + i, 2 * e2[b] + j, R[a, b, i, j])
        for a in range(6):
            for b in range(6):
                for i in range(2):
                    add(2 * e2[a] + i, 2 * e2[b] + i, visc[a, b])
        P = np.einsum("q,qc,qid,qad->aci", ww, Qp, Kq, G)  # (6, 3, 2)
        for a in range(6):
            for c in range(3):
                for i in range(2):
                    add(2 * e2[a] + i, nv + e1[c], -P[a, c, i])
                    add(nv + e1[c], 2 * e2[a] + i, P[a, c, i])
    n = nv + npr
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return A.tocsr(), dofs


def newton_navier_stokes(nodes, triangles, nu, dirichlet, tol=1e-12,
                         max_iter=30):
    """Monolithic Newton solve of the untransformed steady system.

    ``dirichlet`` maps full-system dof index -> prescribed value (velocity
    dofs in interleaved numbering).  Returns the solution vector.
    """
    dofs = TaylorHoodDofs(nodes, triangles)
    nv = 2 * dofs.n_p2
    n = nv + dofs.n_p1
    cdofs = np.array(sorted(dirichlet), dtype=int)
    cvals = np.array([dirichlet[d] for d in cdofs])
    free = np.setdiff1d(np.arange(n), cdofs)
    x = np.zeros(n)
    x[cdofs] = cvals
    for _ in range(max_iter):
        A_oseen, _ = assemble_navier_stokes(nodes, triangles, nu,
                                            advector=x[:nv])
        residual = A_oseen @ x
        J, _ = assemble_navier_stokes(nodes, triangles, nu, advector=x[:nv],
                                      newton=True)
        Jff = J[free][:, free].tocsc()
        dx = np.zeros(n)
        dx[free] = spla.spsolve(Jff, -residual[free])
        x = x + dx
        if np.linalg.norm(dx[free]) <= tol * max(np.linalg.norm(x[free]), 1.0):
            break
    return x, dofs


def boundary_edges_by_walk(triangles):
    """Edges used by exactly one triangle (independent boundary walk)."""
    count = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            count[key] = count.get(key, 0) + 1
    return {e for e, c in count.items() if c == 1}


def euler_characteristic(nodes_used, triangles):
    edges = set()
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return len(nodes_used) - len(edges) + len(triangles)


def fit_loglog(hs, errs):
    """Independent least-squares slope in log-log coordinates (normal
    equations, no numpy.linalg.lstsq)."""
    lx = np.log(np.asarray(hs, dtype=float))
    ly = np.log(np.asarray(errs, dtype=float))
    n = len(lx)
    sx, sy = lx.sum(), ly.sum()
    sxx, sxy = (lx * lx).sum(), (lx * ly).sum()
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _cof(M):
    return np.array([[M[1, 1], -M[1, 0]], [-M[0, 1], M[0, 0]]])


def traction_by_loop(tractor, V, Q, extension, pressure, dext=None, dp=None):
    """Nodal traction p cof(I + G) n per interface dof, averaged over the
    dof's interface-edge elements, by a loop over the evaluator's sample
    points (interface position, element, reference point) on the fluid
    spaces ``V`` and ``Q``.  With coefficient vectors ``dext`` and ``dp`` it
    returns the derivative dp cof(I + G) n + p cof(dG) n instead."""

    def lift_grad(coefs, elem, ref):
        cm = np.reshape(coefs, (-1, 2))[V.elem_dofs[elem]]  # (6, 2)
        return cm.T @ (p2_shape_grad(*ref) @ V.inv_jac[elem])

    out = np.zeros((len(tractor.iface), 2))
    for k, normal in enumerate(tractor.normals):
        acc, count = np.zeros(2), 0
        for rec, elem, ref in zip(*tractor.points):
            if rec != k:
                continue
            count += 1
            lam = p1_shape(*ref)
            pdofs = Q.elem_dofs[elem]
            p = lam @ pressure[pdofs]
            Kn = _cof(np.eye(2) + lift_grad(extension, elem, ref)) @ normal
            if dext is None:
                acc += p * Kn
            else:
                acc += (lam @ dp[pdofs]) * Kn \
                    + p * (_cof(lift_grad(dext, elem, ref)) @ normal)
        out[k] = acc / count
    return out


def linearized_wrt_u(sens, du):
    """(dw, dp) of the fluid linearized at ``sens``' base state in the
    flow-map direction of the displacement du, with dg = 0."""
    return sens.linearized.solve(rhs=sens._lift(interface_trace(du))[1])


def apply_coupling_map(sens, du):
    """One application of the interface map du -> S(0, dt[du]) with dg = 0:
    the operator whose spectral radius governs contraction."""
    return FEFunction(sens.solver.sspace, sens._response(interface_trace(du)))


def coupling_matrix_by_columns(sens):
    """Dense trace matrix T of the linearized coupling map, one
    ``apply_coupling_map`` per unit interface trace: rows and columns
    2 m + c for component c at interface position m."""
    S = sens.solver.sspace
    scalar_if = S.interface_dofs
    vec_if = np.column_stack([2 * scalar_if, 2 * scalar_if + 1]).ravel()
    T = np.zeros((len(vec_if), len(vec_if)))
    for j, dof in enumerate(vec_if):
        e = FEFunction.zeros(S)
        e.coefficients[dof] = 1.0
        T[:, j] = apply_coupling_map(sens, e).coefficients[vec_if]
    return T


# ---- mesh and dof bookkeeping by loops ------------------------------------
# The package builds these with arrays (np.unique over edge keys); the loops
# below number the same entities the way the package did before, with
# dicts filled in traversal order, so equality pins the numbering down.

def _loop_edges(tri):
    a, b, c = (int(x) for x in tri)
    return ((a, b), (b, c), (c, a))


def tag_edges_by_loop(mesh):
    """(boundary_edges, edge_tags) of a freshly built mesh: every edge of
    one triangle by its coordinates, every edge of two triangles in
    different subdomains as interface, in sorted edge order."""
    g = mesh.geometry
    inc = {}
    for t, tri in enumerate(mesh.triangles):
        for u, v in _loop_edges(tri):
            inc.setdefault((min(u, v), max(u, v)), []).append(
                int(mesh.tri_subdomain[t]))
    edges, tags = [], []
    for (u, v), subs in sorted(inc.items()):
        if len(subs) == 1:
            (x0, y0), (x1, y1) = mesh.nodes[u], mesh.nodes[v]
            if x0 == 0.0 and x1 == 0.0:
                tag = "inflow"
            elif x0 == g.channel_length and x1 == g.channel_length:
                tag = "outflow"
            elif (y0 == 0.0 and y1 == 0.0) or (
                    y0 == g.channel_height and y1 == g.channel_height):
                tag = "wall"
            else:
                tag = "clamped"
        elif len(subs) == 2 and subs[0] != subs[1]:
            tag = "interface"
        else:
            continue
        edges.append((u, v))
        tags.append(tag)
    return np.array(edges, dtype=np.int64), np.array(tags, dtype=object)


def refine_by_loop(mesh):
    """(nodes, triangles, subdomains, boundary edges, tags) of the red
    refinement, midpoints numbered as the triangles, then the boundary
    edges, first meet their edges."""
    nodes = [p for p in mesh.nodes]
    mid = {}

    def midpoint(u, v):
        key = (min(u, v), max(u, v))
        if key not in mid:
            mid[key] = len(nodes)
            nodes.append(0.5 * (mesh.nodes[u] + mesh.nodes[v]))
        return mid[key]

    tris, subs = [], []
    for t, tri in enumerate(mesh.triangles):
        a, b, c = (int(x) for x in tri)
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        subs += [mesh.tri_subdomain[t]] * 4
    edges, tags = [], []
    for (u, v), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        m = midpoint(int(u), int(v))
        edges += [(int(u), m), (m, int(v))]
        tags += [tag, tag]
    return (np.array(nodes), np.array(tris, dtype=np.int64),
            np.array(subs, dtype=np.int8), np.array(edges, dtype=np.int64),
            np.array(tags, dtype=object))


class LoopSpace:
    """Scalar dof numbering of one (order, subdomain) space by loops:
    vertex dofs in sorted node order, then edge midpoints in the order the
    triangles first meet their edges."""

    def __init__(self, mesh, order, subdomain):
        self.mesh, self.order = mesh, order
        self.tris = mesh.triangles[mesh.tri_subdomain == subdomain]
        verts = sorted({int(v) for tri in self.tris for v in tri})
        self.vert_dof = {v: i for i, v in enumerate(verts)}
        coords = [mesh.nodes[v] for v in verts]
        self.edge_dof = {}
        if order == 2:
            for tri in self.tris:
                for u, v in _loop_edges(tri):
                    key = (min(u, v), max(u, v))
                    if key not in self.edge_dof:
                        self.edge_dof[key] = len(coords)
                        coords.append(0.5 * (mesh.nodes[u] + mesh.nodes[v]))
        self.dof_coords = np.array(coords)
        rows = []
        for tri in self.tris:
            row = [self.vert_dof[int(v)] for v in tri]
            if order == 2:
                row += [self.edge_dof[(min(u, v), max(u, v))]
                        for u, v in _loop_edges(tri)]
            rows.append(row)
        self.elem_dofs = np.array(rows, dtype=np.int64)

    def _edge_dofs(self, u, v):
        """Scalar dofs of the edge (u, v): start, end, midpoint."""
        out = [self.vert_dof[u], self.vert_dof[v]]
        if self.order == 2:
            out.append(self.edge_dof[(min(u, v), max(u, v))])
        return out

    def _tagged(self, tag):
        return [(int(u), int(v)) for u, v in self.mesh.edges_with_tag(tag)
                if int(u) in self.vert_dof and int(v) in self.vert_dof]

    def boundary_scalar_dofs(self, tag, exclusive=False):
        per_tag = {t: {d for u, v in self._tagged(t) for d in self._edge_dofs(u, v)}
                   for t in ("wall", "inflow", "outflow", "interface", "clamped")}
        dofs = per_tag[tag]
        if exclusive:
            for t in ("wall", "inflow", "outflow", "interface", "clamped"):
                if t == tag:
                    break
                dofs = dofs - per_tag[t]
        return np.array(sorted(dofs), dtype=np.int64)

    def interface_dofs(self):
        """Walking the interface edges in mesh order: start vertex, end
        vertex and midpoint of each, the first time each is met."""
        seen, out = set(), []
        for u, v in self.mesh.edges_with_tag("interface"):
            for d in self._edge_dofs(int(u), int(v)):
                if d not in seen:
                    seen.add(d)
                    out.append(d)
        return np.array(out, dtype=np.int64)

    def tagged_edge_elements(self, tag):
        """Per (element, local edge) on the tag, in element order: element,
        start, end and outward unit normal, from the CCW traversal."""
        edges = {(min(u, v), max(u, v)) for u, v in self._tagged(tag)}
        out = []
        for e, tri in enumerate(self.tris):
            for u, v in _loop_edges(tri):
                if (min(u, v), max(u, v)) in edges:
                    d = self.mesh.nodes[v] - self.mesh.nodes[u]
                    out.append((e, u, v, np.array([d[1], -d[0]]) / float(np.hypot(*d))))
        return out


def boundary_load_by_loop(space, tag, f):
    """Surface integral of f . psi over the edges of ``tag`` on the package
    space ``space``, one edge, point, dof and component at a time, with f
    (a callable or a constant) called at one point at a time."""
    arity = space.desc.arity
    out = np.zeros(space.ndof)
    edges = space.tagged_entities(tag)
    for (u, v), dofs in zip(edges, space.trace_dofs(edges)):
        pu, pv = space.mesh.nodes[u], space.mesh.nodes[v]
        length = float(np.hypot(*(pv - pu)))
        for t, w in zip(EDGE_POINTS, EDGE_WEIGHTS):
            x, y = pu + t * (pv - pu)
            fv = np.broadcast_to(f(x, y) if callable(f) else f, (arity,))
            trace = [1 - t, t] if len(dofs) == 2 else [
                (1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)]
            for a, d in enumerate(dofs):
                for c in range(arity):
                    out[arity * d + c] += length * w * trace[a] * fv[c]
    return out


def traction_points_by_loop(space, vspace):
    """The traction evaluator's sample points (interface position, element,
    reference point) and unit normals, from a :class:`LoopSpace` of the
    fluid velocity and the geometry of the package space ``vspace``."""
    per_dof = {}
    for e, u, v, normal in space.tagged_edge_elements("interface"):
        for d in space._edge_dofs(u, v):
            per_dof.setdefault(d, []).append((e, normal))
    recs, elems, refs, normals = [], [], [], []
    for k, d in enumerate(space.interface_dofs()):
        ents = per_dof[int(d)]
        normal = np.mean([n for _, n in ents], axis=0)
        normals.append(normal / np.linalg.norm(normal))
        for e in sorted({e for e, _ in ents}):
            recs.append(k)
            elems.append(e)
            refs.append(np.einsum("ij,j->i", vspace.inv_jac[e],
                                  space.dof_coords[d] - vspace.origin[e]))
    return np.array(recs), np.array(elems), np.array(refs), np.array(normals)


# ---- checks that only tests run -------------------------------------------

def p2_ref_hessians():
    """Constant reference Hessians of the six P2 basis functions, (6,2,2)."""
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    H = np.empty((6, 2, 2))
    for k in range(3):
        H[k] = 4.0 * np.outer(dl[k], dl[k])
    pairs = [(0, 1), (1, 2), (2, 0)]
    for m, (i, j) in enumerate(pairs):
        H[3 + m] = 4.0 * (np.outer(dl[i], dl[j]) + np.outer(dl[j], dl[i]))
    return H


def piola_divergence(vspace, extension):
    """Row-wise divergence of the cofactor matrix, (T, 2), per element.

    Computed from the element polynomial expansion (physical Hessians of the
    quadratic lift are constant per element), not finite differences.
    """
    if vspace.desc.order != 2:
        raise ValueError("piola check requires the quadratic extension space")
    Href = p2_ref_hessians()  # (a, 2, 2) in reference coordinates
    cm = extension.component_matrix()[vspace.elem_dofs]  # (T, nloc, 2)
    # physical Hessian of basis a: B^-T Href[a] B^-1 (constant per element)
    HB = np.einsum("adl,elk->eadk", Href, vspace.inv_jac)
    Hbasis = np.einsum("edj,eadk->eajk", vspace.inv_jac, HB)
    H = np.einsum("eajk,eai->eijk", Hbasis, cm)  # (T, i, j, k): d_j d_k Phi_i
    div = np.empty((H.shape[0], 2))
    div[:, 0] = H[:, 1, 0, 1] - H[:, 1, 1, 0]
    div[:, 1] = -H[:, 0, 0, 1] + H[:, 0, 1, 0]
    return div


def check_admissibility(fields, beta=0.25):
    """Reject fields whose diffusion matrix loses uniform ellipticity."""
    emin = fields.min_eig_A()
    if np.min(emin) < beta:
        e, q = np.unravel_index(np.argmin(emin), emin.shape)
        raise EllipticityError(
            f"min eigenvalue of A is {emin[e, q]:.4f} < beta = {beta} "
            f"(element row {e})"
        )
    return float(np.min(emin)), float(np.min(fields.J))


def mirror_permutation(mesh, tol=1e-12):
    """Node permutation realizing reflection across the channel mid-line.

    Returns the permutation array ``perm`` with ``nodes[perm] ~ (x, H - y)``,
    or ``None`` if the mesh is not symmetric.
    """
    if mesh.geometry is None:
        return None
    H = mesh.geometry.channel_height
    key = {}
    for i, (x, y) in enumerate(mesh.nodes):
        key[(round(x / tol), round(y / tol))] = i
    perm = np.empty(mesh.num_nodes, dtype=np.int64)
    for i, (x, y) in enumerate(mesh.nodes):
        j = key.get((round(x / tol), round((H - y) / tol)))
        if j is None:
            return None
        perm[i] = j
    return perm


def load_mesh(path, geometry=None):
    """Read a mesh written by ``io.save_mesh`` (the ``mesh`` scenario's
    ``mesh.txt``)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("fsichannel-mesh"):
        raise ValueError("not a mesh file")
    k = 1

    def block(kind):
        nonlocal k
        word, n = lines[k].split()
        if word != kind:
            raise ValueError(f"expected {kind} block, found {word}")
        k += 1
        rows = lines[k:k + int(n)]
        k += int(n)
        return rows

    subdomain_ids = {"fluid": FLUID, "solid": SOLID}
    nodes = np.array([[float(c) for c in r.split()] for r in block("nodes")])
    tri_rows = [r.split() for r in block("triangles")]
    triangles = np.array([[int(c) for c in r[:3]] for r in tri_rows])
    subdom = np.array([subdomain_ids[r[3]] for r in tri_rows], dtype=int)
    edge_rows = [r.split() for r in block("edges")]
    edges = np.array([[int(r[0]), int(r[1])] for r in edge_rows])
    tags = np.array([r[2] for r in edge_rows])
    return Mesh(nodes, triangles, subdom, edges, tags, geometry)
