"""Serialization: line-oriented mesh text format and legacy VTK export."""

import json

import numpy as np

from .mesh import Mesh

_SUBDOMAIN_NAMES = {0: "fluid", 1: "solid"}


def save_mesh(path, mesh: Mesh):
    """Text format: header, node block, triangle block (with subdomain
    labels), edge block (with tag names).  Floats are written with repr
    round-trip precision."""
    with open(path, "w") as fh:
        fh.write("fsichannel-mesh 1\n")
        fh.write(f"nodes {len(mesh.nodes)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {len(mesh.triangles)}\n")
        for (a, b, c), s in zip(mesh.triangles, mesh.tri_subdomain):
            fh.write(f"{a} {b} {c} {_SUBDOMAIN_NAMES[int(s)]}\n")
        fh.write(f"edges {len(mesh.boundary_edges)}\n")
        for (u, v), t in zip(mesh.boundary_edges, mesh.edge_tags):
            fh.write(f"{u} {v} {t}\n")


def write_vtk(path, mesh: Mesh, point_data=None):
    """Legacy ASCII VTK unstructured grid with the subdomain labels as cell
    data and optional point fields (name -> (n_nodes,) or (n_nodes, 2)
    arrays)."""
    n = len(mesh.nodes)
    t = len(mesh.triangles)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nfsichannel fields\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        fh.write(f"CELLS {t} {4 * t}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {t}\n")
        fh.write("5\n" * t)
        fh.write(f"CELL_DATA {t}\n")
        fh.write("SCALARS subdomain double 1\nLOOKUP_TABLE default\n")
        for v in np.asarray(mesh.tri_subdomain, dtype=float):
            fh.write(f"{float(v)!r}\n")
        if point_data:
            fh.write(f"POINT_DATA {n}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        fh.write(f"{float(v)!r}\n")
                else:
                    fh.write(f"VECTORS {name} double\n")
                    for vx, vy in arr:
                        fh.write(f"{float(vx)!r} {float(vy)!r} 0.0\n")


def read_vtk(path):
    """Parse a file written by :func:`write_vtk`.

    Returns ``(structure, blocks)``: ``structure`` lists the header and
    every keyword line (counts and field names included), and ``blocks``
    maps "POINTS", "CELLS", "CELL_TYPES" and "<CELL_DATA|POINT_DATA> name"
    to the block's values, integer for the two cell blocks, float otherwise.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    structure, blocks = lines[:4], {}
    k, section, size = 4, None, 0
    while k < len(lines):
        words = lines[k].split()
        structure.append(lines[k])
        k += 1
        if words[0] in ("CELL_DATA", "POINT_DATA"):
            section, size = words[0], int(words[1])
            continue
        if words[0] == "SCALARS":
            structure.append(lines[k])  # LOOKUP_TABLE
            k += 1
        if words[0] in ("SCALARS", "VECTORS"):
            name, rows = f"{section} {words[1]}", size
        else:
            name, rows = words[0], int(words[1])
        dtype = int if words[0] in ("CELLS", "CELL_TYPES") else float
        blocks[name] = np.array([r.split() for r in lines[k:k + rows]], dtype=dtype)
        k += rows
    return structure, blocks


def vertex_values(fefun):
    """Values of an FE function at mesh vertices, for VTK point data.

    Nodes outside the function's subdomain get zeros (VTK point data must
    cover every mesh node).
    """
    space = fefun.space
    mesh = space.mesh
    arity = space.desc.arity
    out = np.zeros((len(mesh.nodes), arity) if arity > 1 else len(mesh.nodes))
    nodes = np.flatnonzero(space.vertex_dofs >= 0)
    vals = fefun.component_matrix()[space.vertex_dofs[nodes]]
    out[nodes] = vals if arity > 1 else vals[:, 0]
    return out


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
