"""Channel geometry and conforming two-subdomain triangulations.

The computational domain is a rectangular channel containing an annular
elastic obstacle (region between two nested axis-aligned rectangles, each
given as (x0, y0, x1, y1)).  The fluid occupies the channel minus the outer
rectangle, the solid occupies the annulus, and the region inside the inner
rectangle is a hole whose boundary is clamped.  Meshing is done on a
structured template so that all boundary coordinates are bit-exact and the
mesh is mirror symmetric about the channel mid-line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

FLUID = 0
SOLID = 1

TAG_INFLOW = "inflow"
TAG_WALL = "wall"
TAG_OUTFLOW = "outflow"
TAG_INTERFACE = "interface"
TAG_CLAMPED = "clamped"

ALL_TAGS = (TAG_INFLOW, TAG_WALL, TAG_OUTFLOW, TAG_INTERFACE, TAG_CLAMPED)

# Where two Dirichlet tags meet at a corner node the higher-priority tag owns
# the node when conflicting prescriptions must be resolved.
TAG_PRIORITY = (TAG_WALL, TAG_INFLOW, TAG_OUTFLOW, TAG_INTERFACE, TAG_CLAMPED)


class GeometryError(ValueError):
    """Raised when a channel geometry violates its invariants."""


class MeshError(ValueError):
    """Raised when a mesh fails validation."""


@dataclass(frozen=True)
class ChannelGeometry:
    """Rectangular channel with an optional annular obstacle.

    ``obstacle_outer`` is the resting interface rectangle, ``obstacle_inner``
    the clamped inner boundary, each an axis-aligned (x0, y0, x1, y1).  Both
    may be ``None`` for the degenerate straight-channel test geometry.
    """

    channel_length: float
    channel_height: float
    obstacle_outer: tuple | None
    obstacle_inner: tuple | None
    target_edge_length: float

    def validate(self):
        if self.channel_length <= 0 or self.channel_height <= 0:
            raise GeometryError("channel dimensions must be positive")
        if self.target_edge_length <= 0:
            raise GeometryError("target_edge_length must be positive")
        if (self.obstacle_outer is None) != (self.obstacle_inner is None):
            raise GeometryError("obstacle_outer and obstacle_inner must be given together")
        if self.obstacle_outer is None:
            return
        for name in ("obstacle_outer", "obstacle_inner"):
            rect = getattr(self, name)
            if len(rect) != 4 or not (rect[0] < rect[2] and rect[1] < rect[3]):
                raise GeometryError(f"{name} must be (x0, y0, x1, y1) with x0 < x1 and y0 < y1")
        ox0, oy0, ox1, oy1 = self.obstacle_outer
        ix0, iy0, ix1, iy1 = self.obstacle_inner
        if not (0.0 < ox0 and ox1 < self.channel_length and 0.0 < oy0 and oy1 < self.channel_height):
            raise GeometryError("obstacle must have positive clearance to the channel boundary")
        if not (ox0 < ix0 and ix1 < ox1 and oy0 < iy0 and iy1 < oy1):
            raise GeometryError("obstacle_inner must lie strictly inside obstacle_outer")


def straight_channel(h=0.1):
    """Degenerate 4 x 1 geometry without obstacle (pure channel flow)."""
    return ChannelGeometry(4.0, 1.0, None, None, h)


@dataclass
class Mesh:
    """Conforming triangulation of the two-subdomain channel.

    nodes           (N,2) coordinates
    triangles       (T,3) vertex indices, positively oriented
    tri_subdomain   (T,)  FLUID or SOLID
    boundary_edges  (E,2) vertex index pairs (boundary of the union plus interface)
    edge_tags       (E,)  one tag name per edge
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_subdomain: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    geometry: ChannelGeometry | None = field(default=None, repr=False)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def edges_with_tag(self, tag):
        if tag not in ALL_TAGS:
            raise MeshError(f"unknown boundary tag {tag!r}")
        return self.boundary_edges[self.edge_tags == tag]

    def triangle_areas(self):
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _breakpoints(lo, hi, required, h):
    """Sorted coordinates covering [lo, hi] containing ``required`` with gaps <= h."""
    req = sorted(set([lo, hi] + [r for r in required if lo < r < hi]))
    out = []
    for a, b in zip(req[:-1], req[1:]):
        n = max(1, int(np.ceil((b - a) / h - 1e-12)))
        seg = np.linspace(a, b, n + 1)
        out.extend(seg[:-1])
    out.append(hi)
    return np.asarray(out)


def build_channel_mesh(geom: ChannelGeometry) -> Mesh:
    """Mesh the channel geometry on a structured rectilinear template.

    Every rectangle of the template is split along a diagonal chosen by the
    side of the channel mid-line the cell lies on, so a mirror-symmetric
    geometry yields a mirror-symmetric mesh.
    """
    geom.validate()
    L, H, h = geom.channel_length, geom.channel_height, geom.target_edge_length
    # Edge length bound: rectangle cells of size <= h give triangle edges
    # <= sqrt(2) h; shrink the template pitch to meet the 1.5 h contract.
    pitch = h * 1.5 / np.sqrt(2.0)
    req_x, req_y = [], [H / 2.0]
    if geom.obstacle_outer is not None:
        ox0, oy0, ox1, oy1 = geom.obstacle_outer
        ix0, iy0, ix1, iy1 = geom.obstacle_inner
        req_x += [ox0, ox1, ix0, ix1]
        req_y += [oy0, oy1, iy0, iy1]
    xs = _breakpoints(0.0, L, req_x, pitch)
    ys = _breakpoints(0.0, H, req_y, pitch)
    nx, ny = len(xs), len(ys)

    grid_nodes = np.empty((nx * ny, 2))
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    grid_nodes[:, 0] = gx.ravel()
    grid_nodes[:, 1] = gy.ravel()

    # cells (j, i) in row-major order, lower-left node a, then b, c, d
    # counter-clockwise; the diagonal depends on the side of the mid-line
    cx = np.tile(0.5 * (xs[:-1] + xs[1:]), ny - 1)
    cy = np.repeat(0.5 * (ys[:-1] + ys[1:]), nx - 1)
    a = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    b, c, d = a + 1, a + nx + 1, a + nx
    cells = np.where((cy < H / 2.0)[:, None], np.stack([a, b, d, b, c, d], 1),
                     np.stack([a, b, c, a, c, d], 1))
    labels = np.full(len(a), FLUID, dtype=np.int8)
    keep = np.ones(len(a), dtype=bool)
    if geom.obstacle_outer is not None:
        labels[(ox0 < cx) & (cx < ox1) & (oy0 < cy) & (cy < oy1)] = SOLID
        keep = ~((ix0 < cx) & (cx < ix1) & (iy0 < cy) & (cy < iy1))  # the hole
    tris = cells[keep].reshape(-1, 3)
    labels = np.repeat(labels[keep], 2)

    # drop unused grid nodes (inside the hole)
    used = np.unique(tris)
    remap = -np.ones(nx * ny, dtype=np.int64)
    remap[used] = np.arange(len(used))
    nodes = grid_nodes[used]
    tris = remap[tris]

    boundary_edges, edge_tags = _tag_edges(nodes, tris, labels, geom)
    mesh = Mesh(nodes, tris, labels, boundary_edges, edge_tags, geom)
    report = validate_mesh(mesh)
    if not report.ok:
        raise MeshError("generated mesh failed validation: " + "; ".join(report.messages))
    return mesh


def edge_keys(triangles, n):
    """Key min n + max of each half-edge (a, b), (b, c), (c, a) of each
    triangle, (T, 3), for node indices below ``n``."""
    u, v = triangles, np.roll(triangles, -1, axis=1)
    return np.minimum(u, v) * n + np.maximum(u, v)


def number_by_first_use(keys):
    """Number the distinct values of ``keys`` in the order they first occur:
    returns (the distinct values in that order, the number of each entry)."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    met = np.argsort(first)
    number = np.empty(len(met), dtype=np.int64)
    number[met] = np.arange(len(met))
    return uniq[met], number[inverse]


def _edge_incidence(triangles, n):
    """Undirected edges of a triangle list, sorted by key: the (min, max)
    node rows, the edge of each flat half-edge, the first flat half-edge
    of each edge, and its number of half-edges."""
    keys, first, inverse, counts = np.unique(
        edge_keys(triangles, n).ravel(), return_index=True,
        return_inverse=True, return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), inverse, first, counts


def _subdomain_sums(tri_subdomain, inverse):
    """Per edge, the sum of the subdomain labels of its half-edges."""
    return np.bincount(inverse, np.repeat(tri_subdomain, 3).astype(float))


def _tag_edges(nodes, triangles, tri_subdomain, geom):
    L, H = geom.channel_length, geom.channel_height
    edges, inverse, _, counts = _edge_incidence(triangles, len(nodes))
    # an edge of two triangles is on the interface if their subdomains differ
    interface = (counts == 2) & (_subdomain_sums(tri_subdomain, inverse) == FLUID + SOLID)
    boundary = counts == 1
    (x0, y0), (x1, y1) = nodes[edges[:, 0]].T, nodes[edges[:, 1]].T
    tags = np.full(len(edges), TAG_CLAMPED, dtype=object)
    tags[((y0 == 0.0) & (y1 == 0.0)) | ((y0 == H) & (y1 == H))] = TAG_WALL
    tags[(x0 == L) & (x1 == L)] = TAG_OUTFLOW
    tags[(x0 == 0.0) & (x1 == 0.0)] = TAG_INFLOW
    tags[interface] = TAG_INTERFACE
    keep = boundary | interface
    return edges[keep], tags[keep]


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into four; tags are inherited.

    The midpoint of each edge is numbered after the parent nodes in the
    order the edges are first met: the triangles' half-edges, then the
    boundary edges."""
    nodes, tris, n = mesh.nodes, mesh.triangles, mesh.num_nodes
    bnd = mesh.boundary_edges
    edges, number = number_by_first_use(np.concatenate([
        edge_keys(tris, n).ravel(), bnd.min(axis=1) * n + bnd.max(axis=1)]))
    mid = n + number
    u, v = edges // n, edges % n
    (a, b, c), (mab, mbc, mca) = tris.T, mid[:tris.size].reshape(-1, 3).T
    mb = mid[tris.size:]
    return Mesh(
        np.vstack([nodes, 0.5 * (nodes[u] + nodes[v])]),
        np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                 axis=1).reshape(-1, 3),
        np.repeat(mesh.tri_subdomain, 4),
        np.stack([bnd[:, 0], mb, mb, bnd[:, 1]], axis=1).reshape(-1, 2),
        np.repeat(mesh.edge_tags, 2),
        mesh.geometry,
    )


@dataclass
class MeshReport:
    """Outcome of the independent half-edge validation walk."""

    ok: bool
    messages: list
    num_nodes: int = 0
    num_edges: int = 0
    num_triangles: int = 0
    euler_characteristic: int = 0
    num_boundary_loops: int = 0
    tag_edge_counts: dict = field(default_factory=dict)


def validate_mesh(mesh: Mesh) -> MeshReport:
    """Re-derive conformity, orientation, and the tag partition from scratch.

    This walk is independent of the construction path in
    :func:`build_channel_mesh`: it rebuilds the edge incidence from the
    triangle list alone and compares against the stored boundary data.
    Faults of one kind are reported in the order their edges are first
    met in the triangle list.
    """
    msgs = []
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        msgs.append(f"triangle {bad} is not positively oriented (area {areas[bad]:.3e})")

    n = mesh.num_nodes
    edges, inverse, first, counts = _edge_incidence(mesh.triangles, n)
    met = np.argsort(first)  # edges in the order first met
    # conforming & consistently oriented: the two triangles of a shared edge
    # traverse it in opposite directions, so their start nodes sum to u + v
    starts = np.bincount(inverse, mesh.triangles.ravel().astype(float))
    same_way = (counts == 2) & (starts != edges.sum(axis=1))
    for e in met[same_way[met] | (counts[met] > 2)]:
        key = tuple(edges[e].tolist())
        msgs.append(f"edge {key} traversed twice in the same direction" if counts[e] == 2
                    else f"edge {key} shared by {counts[e]} triangles")
    boundary = met[counts[met] == 1]
    on_iface = (counts == 2) & (_subdomain_sums(mesh.tri_subdomain, inverse)
                                == FLUID + SOLID)
    interface = met[on_iface[met]]

    keys = (edges[:, 0] * n + edges[:, 1]).tolist()
    bnd = mesh.boundary_edges
    declared = dict(zip((bnd.min(axis=1) * n + bnd.max(axis=1)).tolist(), mesh.edge_tags))
    expect = {keys[e] for e in boundary} | {keys[e] for e in interface}
    if set(declared) != expect:
        msgs.append("tagged edges do not match the topological boundary plus interface")
    for e in boundary:
        if declared.get(keys[e]) == TAG_INTERFACE:
            msgs.append(f"boundary edge {tuple(edges[e].tolist())} wrongly tagged interface")
    for e in interface:
        if declared.get(keys[e]) != TAG_INTERFACE:
            msgs.append(f"interface edge {tuple(edges[e].tolist())} "
                        f"tagged {declared.get(keys[e])!r}")

    # boundary loops: connected components of the boundary + interface edges
    loop_nodes, ends = np.unique(edges[np.concatenate([boundary, interface])],
                                 return_inverse=True)
    ends = ends.reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(ends)), ends.T), shape=(len(loop_nodes),) * 2)
    num_loops = int(connected_components(graph, directed=False)[0])

    V = mesh.num_nodes
    E = len(edges)
    F = mesh.num_triangles
    tag_counts = {tag: int(np.sum(mesh.edge_tags == tag)) for tag in ALL_TAGS}

    if mesh.geometry is not None and declared:
        g = mesh.geometry
        dk = np.fromiter(declared, dtype=np.int64, count=len(declared))
        tag = np.array(list(declared.values()), dtype=object)
        (xu, yu), (xv, yv) = mesh.nodes[dk // n].T, mesh.nodes[dk % n].T
        faults = np.select(
            [(tag == TAG_INFLOW) & ~((xu == 0.0) & (xv == 0.0)),
             (tag == TAG_OUTFLOW) & ~((xu == g.channel_length) & (xv == g.channel_length)),
             (tag == TAG_WALL) & ~(((yu == 0.0) & (yv == 0.0))
                                   | ((yu == g.channel_height) & (yv == g.channel_height)))],
            ["inflow edge not bit-exact on x=0", "outflow edge not bit-exact on x=L",
             "wall edge not bit-exact on y=0 or y=H"], "")
        msgs += [m for m in faults if m]

    return MeshReport(
        ok=not msgs,
        messages=msgs,
        num_nodes=V,
        num_edges=E,
        num_triangles=F,
        euler_characteristic=V - E + F,
        num_boundary_loops=num_loops,
        tag_edge_counts=tag_counts,
    )
