import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    boundary_edges_by_walk,
    euler_characteristic,
    load_mesh,
    mirror_permutation,
)

from fsichannel.io import save_mesh
from fsichannel.mesh import (
    FLUID,
    SOLID,
    ChannelGeometry,
    GeometryError,
    build_channel_mesh,
    refine_uniform,
    straight_channel,
    validate_mesh,
)
from fsichannel.spaces import make_space


def test_geometry_clearance_rejected():
    bad = ChannelGeometry(
        channel_length=4.0, channel_height=1.0,
        obstacle_outer=(1.0, 0.0, 1.4, 0.4),  # touches the wall
        obstacle_inner=(1.1, 0.1, 1.3, 0.3),
        target_edge_length=0.1,
    )
    with pytest.raises(GeometryError):
        build_channel_mesh(bad)


def test_containment_rejected():
    bad = ChannelGeometry(
        channel_length=4.0, channel_height=1.0,
        obstacle_outer=(1.0, 0.3, 1.4, 0.7),
        obstacle_inner=(1.3, 0.4, 1.6, 0.6),  # leaks outside
        target_edge_length=0.1,
    )
    with pytest.raises(GeometryError):
        build_channel_mesh(bad)


@pytest.mark.parametrize("outer, inner", [
    ((1.4, 0.3, 1.0, 0.7), (1.1, 0.4, 1.3, 0.6)),  # x reversed
    ((1.0, 0.3, 1.4, 0.7), (1.1, 0.6, 1.3, 0.4)),  # y reversed
    ((1.0, 0.3, 1.4), (1.1, 0.4, 1.3, 0.6)),  # 3 entries
])
def test_degenerate_rectangle_rejected(outer, inner):
    bad = ChannelGeometry(4.0, 1.0, outer, inner, 0.1)
    with pytest.raises(GeometryError):
        bad.validate()


def test_inflow_edges_tile_left_side(default_mesh):
    total = 0.0
    for u, v in default_mesh.edges_with_tag("inflow"):
        total += float(np.hypot(*(default_mesh.nodes[v] - default_mesh.nodes[u])))
    assert abs(total - 1.0) <= 1e-12


def test_bit_exact_snapping(default_mesh):
    for tag, coord, value in (("inflow", 0, 0.0), ("outflow", 0, 4.0)):
        for u, v in default_mesh.edges_with_tag(tag):
            assert default_mesh.nodes[u][coord] == value
            assert default_mesh.nodes[v][coord] == value


def test_positive_orientation(default_mesh):
    assert default_mesh.triangle_areas().min() > 0


def test_euler_characteristic_against_independent_count(default_mesh,
                                                        straight_mesh):
    # the fluid-plus-annulus union leaves one unmeshed hole, so the honest
    # characteristic is 0; the simply connected straight channel gives 1
    used = set(default_mesh.triangles.ravel().tolist())
    assert euler_characteristic(used, default_mesh.triangles) == 0
    assert validate_mesh(default_mesh).euler_characteristic == 0
    used_s = set(straight_mesh.triangles.ravel().tolist())
    assert euler_characteristic(used_s, straight_mesh.triangles) == 1
    assert validate_mesh(straight_mesh).euler_characteristic == 1


def test_boundary_loop_counts(default_mesh, straight_mesh):
    # the channel's outer boundary, the interface and the obstacle's hole;
    # the straight channel has its outer boundary only
    assert validate_mesh(default_mesh).num_boundary_loops == 3
    assert validate_mesh(refine_uniform(default_mesh)).num_boundary_loops == 3
    assert validate_mesh(straight_mesh).num_boundary_loops == 1


def test_declared_boundary_matches_walk(default_mesh):
    walked = boundary_edges_by_walk(default_mesh.triangles)
    declared = {
        (min(int(u), int(v)), max(int(u), int(v)))
        for (u, v), t in zip(default_mesh.boundary_edges,
                             default_mesh.edge_tags)
        if t != "interface"
    }
    assert walked == declared


def test_interface_edges_shared_by_both_subdomains(default_mesh):
    m = default_mesh
    usage = {}
    for tri, sub in zip(m.triangles, m.tri_subdomain):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            usage.setdefault(key, set()).add(int(sub))
    for u, v in m.edges_with_tag("interface"):
        assert usage[(min(int(u), int(v)), max(int(u), int(v)))] == {FLUID, SOLID}


def test_refine_counts_and_area(default_mesh):
    child = refine_uniform(default_mesh)
    assert child.num_triangles == 4 * default_mesh.num_triangles
    assert validate_mesh(child).ok
    for sub in (FLUID, SOLID):
        a0 = default_mesh.triangle_areas()[default_mesh.tri_subdomain == sub].sum()
        a1 = child.triangle_areas()[child.tri_subdomain == sub].sum()
        assert abs(a0 - a1) <= 1e-13


def test_validator_reproducible(default_mesh):
    r1 = validate_mesh(default_mesh)
    r2 = validate_mesh(default_mesh)
    assert r1.tag_edge_counts == r2.tag_edge_counts
    assert r1.ok and r2.ok


def test_mirror_permutation_exists(default_mesh):
    perm = mirror_permutation(default_mesh)
    ref = default_mesh.nodes.copy()
    ref[:, 1] = default_mesh.geometry.channel_height - ref[:, 1]
    assert np.allclose(default_mesh.nodes[perm], ref, atol=1e-12)


def test_boundary_dof_counts(default_mesh):
    V = make_space(default_mesh, order=2, arity=1, subdomain=FLUID)
    n_edges = len(default_mesh.edges_with_tag("inflow"))
    assert len(V.boundary_scalar_dofs("inflow")) == 2 * n_edges + 1


def test_interface_dofs_conform_across_subdomains(default_mesh):
    Vf = make_space(default_mesh, order=2, arity=1, subdomain=FLUID)
    Vs = make_space(default_mesh, order=2, arity=1, subdomain=SOLID)
    pf = {tuple(np.round(Vf.dof_coords[d], 12))
          for d in Vf.boundary_scalar_dofs("interface")}
    ps = {tuple(np.round(Vs.dof_coords[d], 12))
          for d in Vs.boundary_scalar_dofs("interface")}
    assert pf == ps


def test_union_of_tags_covers_boundary_dofs(default_mesh):
    V = make_space(default_mesh, order=2, arity=1, subdomain=FLUID)
    walked = boundary_edges_by_walk(
        default_mesh.triangles[default_mesh.tri_subdomain == FLUID])
    expected = set()
    for u, v in walked:
        expected |= set(V.trace_dofs([u, v])[0].tolist())
    got = set()
    for tag in ("inflow", "wall", "outflow", "interface"):
        got |= set(int(d) for d in V.boundary_scalar_dofs(tag))
    assert got == expected


def test_mesh_roundtrip(tmp_path, default_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(path, default_mesh)
    back = load_mesh(path, default_mesh.geometry)
    assert np.array_equal(back.nodes, default_mesh.nodes)
    assert np.array_equal(back.triangles, default_mesh.triangles)
    assert np.array_equal(back.tri_subdomain, default_mesh.tri_subdomain)
    assert np.array_equal(back.boundary_edges, default_mesh.boundary_edges)
    assert list(back.edge_tags) == list(default_mesh.edge_tags)


@settings(max_examples=12, deadline=None)
@given(
    cx=st.floats(0.8, 3.0),
    half=st.floats(0.12, 0.3),
    inner=st.floats(0.3, 0.7),
    h=st.floats(0.08, 0.2),
)
def test_random_geometries_validate(cx, half, inner, h):
    cy = 0.5
    hi = half * inner
    geo = ChannelGeometry(
        channel_length=4.0, channel_height=1.0,
        obstacle_outer=(cx - half, cy - half, cx + half, cy + half),
        obstacle_inner=(cx - hi, cy - hi, cx + hi, cy + hi),
        target_edge_length=h,
    )
    mesh = build_channel_mesh(geo)
    report = validate_mesh(mesh)
    assert report.ok
    assert report.euler_characteristic == 0


def _corrupt(mesh, **fields):
    """A copy of ``mesh`` with the given arrays replaced."""
    return dataclasses.replace(mesh, **fields)


def _faults(mesh):
    report = validate_mesh(mesh)
    assert not report.ok
    return "\n".join(report.messages)


def test_validator_catches_flipped_triangle(default_mesh):
    tris = default_mesh.triangles.copy()
    tris[40] = tris[40, [0, 2, 1]]
    faults = _faults(_corrupt(default_mesh, triangles=tris))
    assert "triangle 40 is not positively oriented" in faults
    assert "traversed twice in the same direction" in faults


def test_validator_catches_edge_of_three_triangles(default_mesh):
    m = default_mesh
    declared = {(min(u, v), max(u, v)) for u, v in m.boundary_edges.tolist()}
    tri = m.triangles[40].tolist()
    a, b = next((u, v) for u, v in zip(tri, tri[1:] + tri[:1])
                if (min(u, v), max(u, v)) not in declared)
    far = int(np.argmax(m.nodes[:, 0]))
    tris = np.vstack([m.triangles, [[a, b, far]]])
    sub = np.append(m.tri_subdomain, m.tri_subdomain[40])
    faults = _faults(_corrupt(m, triangles=tris, tri_subdomain=sub))
    assert f"edge {(min(a, b), max(a, b))} shared by 3 triangles" in faults


def test_validator_catches_retagged_interface_edge(default_mesh):
    tags = default_mesh.edge_tags.copy()
    k = int(np.flatnonzero(tags == "interface")[0])
    tags[k] = "wall"
    u, v = (int(x) for x in default_mesh.boundary_edges[k])
    faults = _faults(_corrupt(default_mesh, edge_tags=tags))
    assert f"interface edge {(u, v)} tagged 'wall'" in faults
    assert "wall edge not bit-exact on y=0 or y=H" in faults


def test_validator_catches_missing_boundary_edge(default_mesh):
    keep = np.arange(len(default_mesh.edge_tags)) != int(
        np.flatnonzero(default_mesh.edge_tags == "wall")[0])
    faults = _faults(_corrupt(default_mesh,
                              boundary_edges=default_mesh.boundary_edges[keep],
                              edge_tags=default_mesh.edge_tags[keep]))
    assert "tagged edges do not match the topological boundary plus interface" in faults


def test_validator_catches_inflow_node_off_the_inlet(default_mesh):
    nodes = default_mesh.nodes.copy()
    u = int(default_mesh.edges_with_tag("inflow")[3, 0])
    nodes[u, 0] = 1e-3
    assert _faults(_corrupt(default_mesh, nodes=nodes)) == (
        "inflow edge not bit-exact on x=0\ninflow edge not bit-exact on x=0")
