"""Linear elasticity on the annular obstacle.

The solid occupies the region between the two obstacle rectangles.  It is
clamped on the inner boundary and loaded by a traction on the interface
shared with the fluid.  The constitutive law is isotropic Lame elasticity,

    sigma(u) = 2 mu eps(u) + lam tr(eps(u)) I,

and the solver returns the displacement of the weak problem

    int sigma(u) : eps(psi) = int_interface v . psi

with u = 0 on the clamped boundary.
"""

from functools import cached_property

import numpy as np

from .assembly import assemble_boundary_mass, assemble_elasticity
from .linsolve import FrozenFactorization
from .mesh import SOLID, TAG_CLAMPED, TAG_INTERFACE
from .spaces import FEFunction, Space, make_space


class ElasticitySolver:
    """Factorized clamped elasticity operator for repeated traction loads.

    Parameters
    ----------
    space : Space
        Order-2 vector space on the solid subdomain.  Built from the mesh
        if only a mesh is at hand; see :func:`solid_space`.
    lame : tuple of float
        (lam, mu) with lam >= 0 and mu > 0.
    """

    def __init__(self, space: Space, lame):
        if space.desc.subdomain != SOLID or space.desc.arity != 2:
            raise ValueError("elasticity needs a vector space on the solid")
        lam, mu = float(lame[0]), float(lame[1])
        self.space = space
        self.clamped = space.boundary_dofs(TAG_CLAMPED)
        self.iface = space.interface_dofs
        # vector dofs of the interface, in trace order 2 m + c
        self.iface_vdofs = (2 * self.iface[:, None] + np.arange(2)).ravel()
        self.lu = FrozenFactorization(assemble_elasticity(space, lam, mu),
                                       self.clamped)

    @cached_property
    def interface_load(self):
        """Sparse (ndof, 2 n_interface) map from interface traction values,
        flattened row by row, to the weak load int_interface v . psi."""
        mass = assemble_boundary_mass(self.space, TAG_INTERFACE)
        return mass[:, self.iface_vdofs].tocsr()

    def solve(self, traction=None) -> FEFunction:
        """Displacement for interface traction values (zero if ``None``).

        ``traction`` is an array of shape (n_interface, 2) giving the load
        at the interface scalar dofs (vertices and edge midpoints), in the
        canonical interface ordering of :attr:`Space.interface_dofs`.
        The traction enters as the weak Neumann load int_interface v . psi.
        """
        rhs = np.zeros(self.space.ndof)
        if traction is not None:
            tr = np.asarray(traction, dtype=float)
            if tr.shape != (len(self.iface), 2):
                raise ValueError(
                    f"traction shape {tr.shape} != ({len(self.iface)}, 2)"
                )
            rhs += self.interface_load @ tr.ravel()
        return FEFunction(self.space, self.lu.solve(rhs))


def solid_space(mesh) -> Space:
    return make_space(mesh, order=2, arity=2, subdomain=SOLID)


def interface_trace(u: FEFunction) -> np.ndarray:
    """Displacement values at the interface dofs, shape (n_interface, 2).

    Conforming spaces make this an exact coefficient extraction: the
    returned rows are the nodal values at the interface vertices and edge
    midpoints, ordered canonically.
    """
    return u.component_matrix()[u.space.interface_dofs].copy()
