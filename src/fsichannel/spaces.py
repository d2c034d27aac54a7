"""Finite element spaces on mesh subdomains.

Taylor-Hood pairing: order-2 vector spaces for velocity, displacement, and
extension fields; order-1 scalar space for pressure.  Scalar degrees of
freedom sit at mesh vertices (order 1) plus edge midpoints (order 2); vector
dofs interleave components as ``2*scalar + component``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (
    ALL_TAGS,
    TAG_INTERFACE,
    TAG_PRIORITY,
    Mesh,
    MeshError,
    edge_keys,
    number_by_first_use,
)
from .quadrature import TRI_WEIGHTS

SCALAR = 1
VECTOR = 2


@dataclass(frozen=True)
class SpaceDescriptor:
    order: int
    arity: int
    subdomain: int

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("element order must be 1 or 2")
        if self.arity not in (SCALAR, VECTOR):
            raise ValueError("arity must be scalar (1) or 2-vector (2)")


def read_only(a):
    """``a`` marked read-only, for arrays a cache hands to every caller."""
    a.setflags(write=False)
    return a


def p1_basis(pts):
    """P1 basis values at reference points pts (q,2) -> (q,3)."""
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1 - x - y, x, y], axis=1)


def p1_grads(pts):
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.broadcast_to(g, (len(pts), 3, 2))


def p2_basis(pts):
    """P2 basis at reference points; dof order v0 v1 v2 m01 m12 m20."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1 - x - y, x, y
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ],
        axis=1,
    )


def p2_grads(pts):
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1 - x - y, x, y
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    q = len(pts)
    lam = [l0, l1, l2]
    g = np.empty((q, 6, 2))
    for k in range(3):
        g[:, k, :] = (4 * lam[k] - 1)[:, None] * dl[k]
    pairs = [(0, 1), (1, 2), (2, 0)]
    for m, (i, j) in enumerate(pairs):
        g[:, 3 + m, :] = 4 * (lam[i][:, None] * dl[j] + lam[j][:, None] * dl[i])
    return g


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


class Space:
    """Scalar-dof bookkeeping for one (order, subdomain) pair on a mesh.

    Vector-valued functions reuse the scalar layout componentwise.
    """

    def __init__(self, mesh: Mesh, desc: SpaceDescriptor):
        self.mesh = mesh
        self.desc = desc
        sub = desc.subdomain
        self.tri_ids = np.flatnonzero(mesh.tri_subdomain == sub)
        tris = mesh.triangles[self.tri_ids]
        if len(tris) == 0:
            raise MeshError(f"mesh has no triangles in subdomain {sub}")

        # vertex dofs in node order, then (order 2) the edge midpoints in
        # the order the triangles first meet their edges
        verts = np.unique(tris)
        self.vertex_dofs = np.full(mesh.num_nodes, -1, dtype=np.int64)
        self.vertex_dofs[verts] = np.arange(len(verts))
        self.elem_dofs = self.vertex_dofs[tris]
        self.dof_coords = mesh.nodes[verts]
        if desc.order == 2:
            n = mesh.num_nodes
            edges, number = number_by_first_use(edge_keys(tris, n).ravel())
            self.elem_dofs = np.hstack([self.elem_dofs,
                                        len(verts) + number.reshape(-1, 3)])
            mids = 0.5 * (mesh.nodes[edges // n] + mesh.nodes[edges % n])
            self.dof_coords = np.vstack([self.dof_coords, mids])
            # edge keys in sorted order and their midpoint dofs, for lookups
            by_key = np.argsort(edges)
            self._edge_keys, self._edge_key_dofs = edges[by_key], len(verts) + by_key
        self.n_scalar = len(self.dof_coords)

        # affine maps x = x0 + B xi
        p = mesh.nodes[tris]
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        self.jac = B
        self.detJ = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        invB = np.empty_like(B)
        invB[:, 0, 0] = B[:, 1, 1]
        invB[:, 0, 1] = -B[:, 0, 1]
        invB[:, 1, 0] = -B[:, 1, 0]
        invB[:, 1, 1] = B[:, 0, 0]
        invB /= self.detJ[:, None, None]
        self.inv_jac = invB
        self.origin = p[:, 0]

        self._grads = {}  # reference point bytes -> physical gradients
        self._grads_t = {}  # the same, in the layout of grads_by_basis
        # block kind, or the pressure Space of a mixed block -> assembly.Pattern
        self.patterns = {}
        # "mass", "stiffness" or "h1" -> the scalar Gram matrix, see assembly._gram
        self.grams = {}

    # ---- dof layout ----------------------------------------------------
    @property
    def ndof(self):
        return self.desc.arity * self.n_scalar

    def trace_dofs(self, edges):
        """Scalar dofs of mesh edges (E, 2) of this subdomain in trace-basis
        order: start vertex, end vertex and, at order 2, the midpoint;
        (E, 2) or (E, 3)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        dofs = self.vertex_dofs[edges]
        if self.desc.order == 2:
            n = self.mesh.num_nodes
            keys = edges.min(axis=1) * n + edges.max(axis=1)
            pos = np.minimum(np.searchsorted(self._edge_keys, keys),
                             len(self._edge_keys) - 1)
            mid = np.where(self._edge_keys[pos] == keys, self._edge_key_dofs[pos], -1)
            dofs = np.column_stack([dofs, mid])
        if np.any(dofs < 0):
            raise MeshError(f"edge not in subdomain {self.desc.subdomain}")
        return dofs

    def _adjacent(self, tag):
        """Mesh edges of the given tag with both nodes in this subdomain."""
        edges = self.mesh.edges_with_tag(tag)
        return edges[np.all(self.vertex_dofs[edges] >= 0, axis=1)]

    def tagged_entities(self, tag):
        """Mesh edges of the given tag adjacent to this space's subdomain."""
        edges = self._adjacent(tag)
        if not len(edges):
            raise MeshError(
                f"tag {tag!r} is not adjacent to subdomain {self.desc.subdomain}"
            )
        return edges

    @cached_property
    def _boundary_scalar(self):
        """(tag, exclusive) -> sorted scalar dofs on the tag's edges,
        read-only; the exclusive set leaves out those of higher-priority tags."""
        out, higher = {}, np.empty(0, dtype=np.int64)
        for tag in TAG_PRIORITY:
            dofs = read_only(np.unique(self.trace_dofs(self._adjacent(tag))))
            out[tag, False], out[tag, True] = dofs, read_only(np.setdiff1d(dofs, higher))
            higher = np.union1d(higher, dofs)
        return out

    def boundary_scalar_dofs(self, tag, exclusive=False):
        """Scalar dofs whose nodes lie on edges of the given tag.

        Corner dofs belong to every adjacent tag's set; with
        ``exclusive=True`` each dof is assigned only to its highest-priority
        tag (wall > inflow > outflow > interface > clamped).
        """
        if tag not in ALL_TAGS:
            raise MeshError(f"unknown boundary tag {tag!r}")
        if not len(self._boundary_scalar[tag, False]):
            raise MeshError(f"tag {tag!r} is not adjacent to subdomain {self.desc.subdomain}")
        return np.array(self._boundary_scalar[tag, bool(exclusive)])

    @cached_property
    def interface_dofs(self):
        """Interface scalar dofs in the canonical order, read-only: walking
        the interface edges in mesh order, the trace dofs of each edge
        (start, end, midpoint) that no earlier edge has."""
        edges = self.mesh.edges_with_tag(TAG_INTERFACE)
        return read_only(number_by_first_use(self.trace_dofs(edges).ravel())[0])

    def boundary_dofs(self, tag, exclusive=False):
        """Sorted vector dofs (all components) on the given tag."""
        s = self.boundary_scalar_dofs(tag, exclusive)
        return (self.desc.arity * s[:, None] + np.arange(self.desc.arity)).ravel()

    # ---- evaluation ----------------------------------------------------
    def basis_at(self, ref_pts):
        return p1_basis(ref_pts) if self.desc.order == 1 else p2_basis(ref_pts)

    def grads_at(self, ref_pts):
        """Physical-coordinate basis gradients, (T, q, nloc, 2), read-only.

        They depend only on the geometry, so each point set is computed once.
        """
        key = np.asarray(ref_pts, dtype=float).tobytes()
        if key not in self._grads:
            ref = p1_grads(ref_pts) if self.desc.order == 1 else p2_grads(ref_pts)
            # grad_x = invB^T grad_xi, one (nloc, 2) @ (2, 2) per point
            self._grads[key] = read_only(ref[None] @ self.inv_jac[:, None])
        return self._grads[key]

    def grads_by_basis(self, ref_pts):
        """The gradients of :meth:`grads_at` as (T, nloc, 2 q), entry
        [a, l q + k] = d_l psi_a at point k, read-only: one batched matmul
        with element coefficients (T, arity, nloc) gives every gradient."""
        key = np.asarray(ref_pts, dtype=float).tobytes()
        if key not in self._grads_t:
            g = self.grads_at(ref_pts)
            g = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
            self._grads_t[key] = read_only(g.reshape(len(g), g.shape[1], -1))
        return self._grads_t[key]

    @cached_property
    def elem_vdofs(self):
        """Vector dofs 2 s + i of each element's scalar dofs s, (T, nloc, 2),
        read-only: gathers and scatters element vectors."""
        return read_only(2 * self.elem_dofs[:, :, None] + np.arange(2))

    @cached_property
    def gather_vdofs(self):
        """The dofs of :attr:`elem_vdofs` as (nloc, 2, T), read-only: element
        blocks with the element index last, for GEMMs with reference tables."""
        return read_only(np.ascontiguousarray(self.elem_vdofs.transpose(1, 2, 0)))

    @cached_property
    def wdet(self):
        """Quadrature weights times det B at the triangle rule, (T, q), read-only."""
        return read_only(TRI_WEIGHTS[None, :] * self.detJ[:, None])

    def quad_points_physical(self, ref_pts):
        return self.origin[:, None, :] + np.einsum("eij,qj->eqi", self.jac, ref_pts)


def make_space(mesh, order, arity, subdomain):
    return Space(mesh, SpaceDescriptor(order, arity, subdomain))


@dataclass
class FEFunction:
    """Coefficient vector over a space.  Scalar layout; vector interleaved."""

    space: Space
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.ndof,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"space dof count {self.space.ndof}"
            )

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.ndof))

    def component_matrix(self):
        """Coefficients reshaped to (n_scalar, arity)."""
        return self.coefficients.reshape(self.space.n_scalar, self.space.desc.arity)

    def values_at(self, ref_pts):
        """Values at reference points per element: (T, q, arity)."""
        sp = self.space
        phi = sp.basis_at(ref_pts)  # (q, nloc)
        cm = self.component_matrix()[sp.elem_dofs]  # (T, nloc, arity)
        return phi @ cm

    def gradients_at(self, ref_pts):
        """Gradients at reference points: (T, q, arity, 2) with G[i, l] = d_l f_i."""
        sp = self.space
        gt = sp.grads_by_basis(ref_pts)  # (T, nloc, 2 q)
        cm = self.component_matrix()[sp.elem_dofs]  # (T, nloc, arity)
        G = (cm.swapaxes(1, 2) @ gt).reshape(len(gt), -1, 2, len(ref_pts))
        return G.transpose(0, 3, 1, 2)
