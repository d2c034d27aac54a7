"""The array-based mesh and dof bookkeeping against loop oracles: tags,
refinement, dof numbering, boundary and interface dofs and the traction
sample points must agree exactly."""

import numpy as np
import pytest
from oracles import (
    LoopSpace,
    refine_by_loop,
    tag_edges_by_loop,
    traction_points_by_loop,
)

from fsichannel import assembly as asm
from fsichannel.fsi import TractionEvaluator
from fsichannel.mesh import (
    ALL_TAGS,
    FLUID,
    SOLID,
    MeshError,
    build_channel_mesh,
    refine_uniform,
    straight_channel,
)
from fsichannel.spaces import make_space
from conftest import default_geometry

CASES = [("default", 0), ("default", 1), ("straight", 0)]
SPACES = [(2, FLUID), (1, FLUID), (2, SOLID), (1, SOLID)]


def _geometry(name):
    return default_geometry() if name == "default" else straight_channel()


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-l{c[1]}")
def mesh(request):
    name, level = request.param
    m = build_channel_mesh(_geometry(name))
    for _ in range(level):
        m = refine_uniform(m)
    return m


def _equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", ["default", "straight"])
def test_tags_and_refinement_match_loop_oracle(name):
    m = build_channel_mesh(_geometry(name))
    edges, tags = tag_edges_by_loop(m)
    assert _equal(m.boundary_edges, edges)
    assert _equal(m.edge_tags, tags)
    child = refine_uniform(m)
    fields = (child.nodes, child.triangles, child.tri_subdomain,
              child.boundary_edges, child.edge_tags)
    for got, want in zip(fields, refine_by_loop(m)):
        assert _equal(got, want)


@pytest.mark.parametrize("order,subdomain", SPACES)
def test_space_bookkeeping_matches_loop_oracle(mesh, order, subdomain):
    if not np.any(mesh.tri_subdomain == subdomain):
        pytest.skip("no triangles in this subdomain")
    space = make_space(mesh, order, 1, subdomain)
    loop = LoopSpace(mesh, order, subdomain)
    assert _equal(space.elem_dofs, loop.elem_dofs)
    assert _equal(space.dof_coords, loop.dof_coords)
    assert _equal(space.interface_dofs, loop.interface_dofs())
    for tag in ALL_TAGS:
        for exclusive in (False, True):
            want = loop.boundary_scalar_dofs(tag, exclusive)
            assert _equal(space.boundary_scalar_dofs(tag, exclusive), want)
    with pytest.raises(MeshError):
        space.boundary_scalar_dofs("no-such-tag")
        if len(loop._tagged(tag)):
            looped = loop.tagged_edge_elements(tag)
            got = asm.tagged_edge_elements(space, tag)
            for k, column in enumerate(got):
                assert _equal(column, np.array([row[k] for row in looped]))


def test_interface_dofs_are_cached_read_only(mesh):
    space = make_space(mesh, 2, 2, FLUID)
    assert space.interface_dofs is space.interface_dofs
    assert not space.interface_dofs.flags.writeable


def test_traction_points_match_loop_oracle(mesh):
    if not len(mesh.edges_with_tag("interface")):
        pytest.skip("no interface")
    V, Q = make_space(mesh, 2, 2, FLUID), make_space(mesh, 1, 1, FLUID)
    tractor = TractionEvaluator(V, Q)
    rec, elem, refs, normals = traction_points_by_loop(LoopSpace(mesh, 2, FLUID), V)
    for got, want in zip((*tractor.points, tractor.normals), (rec, elem, refs, normals)):
        assert _equal(got, want)
