"""Finite element spaces on mesh subdomains.

Taylor-Hood pairing: order-2 vector spaces for velocity, displacement, and
extension fields; order-1 scalar space for pressure.  Scalar degrees of
freedom sit at mesh vertices (order 1) plus edge midpoints (order 2); vector
dofs interleave components as ``2*scalar + component``.

Each space owns the one quadrature rule (the degree-6 triangle rule): it
builds once the reference table of its basis at the rule, the gather of its
element dofs, the rule's physical points and weights.  Every per-point
evaluation is ``Space.reference_fields``, one GEMM of gathered coefficients
against the table; no evaluation method takes points.
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
from .quadrature import TRI_POINTS, TRI_WEIGHTS

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

        self._grads = None  # physical basis gradients, see grads_at
        # "mass", "stiffness" or "h1" -> the scalar Gram matrix, see assembly._gram
        self.grams = {}
        # "laplacian" -> geomap.interior_laplacian, a pressure Space -> the
        # dof order of fluid.elimination_order
        self.orderings = {}

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
        tag (wall > inflow > outflow > interface > clamped).  A tag that does
        not touch the subdomain has none.
        """
        if tag not in ALL_TAGS:
            raise MeshError(f"unknown boundary tag {tag!r}")
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

    # ---- evaluation at the quadrature rule ----------------------------
    @cached_property
    def table(self):
        """The basis at the triangle rule, (3, q, nloc), read-only: entry
        [m, k, a] is the reference derivative d_m psi_a (m = 0, 1) or the
        value psi_a (m = 2) at point k."""
        basis, grads = (p1_basis, p1_grads) if self.desc.order == 1 else (p2_basis, p2_grads)
        table = [*grads(TRI_POINTS).transpose(2, 0, 1), basis(TRI_POINTS)]
        return read_only(np.ascontiguousarray(table))

    @cached_property
    def gather(self):
        """The dofs arity s + i of each element's scalar dofs s, (nloc,
        arity, T), read-only: gathers coefficient vectors for GEMMs with
        :attr:`table` and scatters element vectors back.  C-contiguous, so
        neither the gathered block nor the action's scatter index is a
        copy."""
        n = self.desc.arity
        g = (n * self.elem_dofs[:, :, None] + np.arange(n)).transpose(1, 2, 0)
        return read_only(np.ascontiguousarray(g))

    @cached_property
    def quad_points(self):
        """Physical points of the triangle rule, (T, q, 2), read-only."""
        return read_only(self.origin[:, None, :]
                         + np.einsum("eij,qj->eqi", self.jac, TRI_POINTS))

    @cached_property
    def wdet(self):
        """Quadrature weights times det B at the triangle rule, (T, q), read-only."""
        return read_only(TRI_WEIGHTS[None, :] * self.detJ[:, None])

    @cached_property
    def inv_jac_planes(self):
        """B^-1 as contiguous planes [m, l] of shape (T,), read-only."""
        return read_only(np.ascontiguousarray(self.inv_jac.transpose(1, 2, 0)))

    def grads_at(self):
        """Physical basis gradients at the rule, (T, q, nloc, 2), read-only,
        computed on first use."""
        if self._grads is None:
            ref = np.ascontiguousarray(self.table[:2].transpose(1, 2, 0))
            # grad_x = invB^T grad_xi, one (nloc, 2) @ (2, 2) per point
            self._grads = read_only(ref[None] @ self.inv_jac[:, None])
        return self._grads

    def reference_fields(self, v):
        """[m, k, i, e]: the reference derivatives d_m v_i (m = 0, 1) and
        the values v_i (m = 2) at point k of element e of the coefficients
        ``v`` (or the leading part of a stacked vector such as [v; p]), one
        GEMM against :attr:`table`."""
        g = self.gather
        F = self.table.reshape(-1, len(g)) @ v[g].reshape(len(g), -1)
        return F.reshape(3, -1, *g.shape[1:])


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

    def values_at(self):
        """Values at the quadrature rule, (T, q, arity): a view of
        :meth:`Space.reference_fields`."""
        return self.space.reference_fields(self.coefficients)[2].transpose(2, 0, 1)

    def gradients_at(self):
        """Gradients at the quadrature rule, (T, q, arity, 2) with
        G[i, l] = d_l f_i: a view of the planes sum_m d_m f_i B^-1_ml."""
        H = self.space.reference_fields(self.coefficients)[:2]
        return np.einsum("mkie,mle->lkie", H, self.space.inv_jac_planes).transpose(3, 1, 2, 0)
