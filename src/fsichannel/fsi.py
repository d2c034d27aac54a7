"""Partitioned fluid-structure coupling.

One outer iteration: build the flow map from the current interface
displacement, solve the transformed Navier-Stokes problem, evaluate the
pressure traction on the interface, solve the clamped elasticity problem,
and relax.  The converged state is the coupled fixed point u = N(t(u, p)).
"""

from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .elasticity import ElasticitySolver, interface_trace, solid_space
from .fluid import FluidState, PicardSolver, SolverReport, fixed_point, fluid_spaces
from .geomap import (
    HarmonicExtender,
    TangledMeshError,
    cof2,
    interface_dofs,
    transform_fields,
)
from .mesh import TAG_INTERFACE
from .spaces import FEFunction, p2_grads


class OuterDivergenceError(RuntimeError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class MeshTangledError(RuntimeError):
    """Outer iterate produced a non-invertible flow map."""

    def __init__(self, message, displacement):
        super().__init__(message)
        self.displacement = displacement


@dataclass
class CouplingOptions:
    relaxation: float = 1.0
    tol: float = 1e-9
    max_outer_iter: int = 50
    traction_interpretation: str = "full-vector"
    warm_start: bool = True
    fluid_tol: float = 1e-11
    fluid_max_iter: int = 50

    def __post_init__(self):
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.traction_interpretation not in ("full-vector", "normal-projected"):
            raise ValueError("unknown traction interpretation")


@dataclass
class FSIState:
    u: FEFunction
    fluid: FluidState
    extension: FEFunction
    fields: object
    report: SolverReport
    log_rows: list = field(default_factory=list)


class TractionEvaluator:
    """Nodal interface traction t = p K n for the fluid space.

    For each interface scalar dof (in the canonical interface ordering) the
    cofactor K and the pressure are evaluated at the dof location, averaging
    over the adjacent interface-edge fluid elements; for vertex dofs shared
    by two interface edges the normal is the normalized average of the two
    edge normals.  Averaging keeps the evaluation invariant under mesh
    symmetries.  Normals point out of the fluid, so a positive pressure
    pushes the solid away from it.
    """

    def __init__(self, vspace, pspace):
        self.vspace = vspace
        self.pspace = pspace
        self.iface = interface_dofs(vspace)
        edges = asm.tagged_edge_elements(vspace, TAG_INTERFACE)
        per_dof = {}  # scalar dof -> list of (element, normal)
        sd2pos = {int(d): k for k, d in enumerate(self.iface)}
        for edge in edges:
            u, v = edge["start"], edge["end"]
            du = vspace._vert_dof[u]
            dv = vspace._vert_dof[v]
            dm = vspace._edge_dof[(min(u, v), max(u, v))]
            for d in (du, dv, dm):
                per_dof.setdefault(d, []).append((edge["element"], edge["normal"]))
        self.records = []
        for d in self.iface:
            ents = per_dof[int(d)]
            normal = np.mean([n for _, n in ents], axis=0)
            normal /= np.linalg.norm(normal)
            x = vspace.dof_coords[d]
            elems = sorted({e for e, _ in ents})
            refs = [
                np.einsum("ij,j->i", vspace.inv_jac[e], x - vspace.origin[e])
                for e in elems
            ]
            self.records.append((int(d), elems, normal, refs))

    def _lift_grad(self, extension, elem, ref):
        """Gradient of the lift at reference point ``ref`` of ``elem``."""
        cm = extension.component_matrix()[self.vspace.elem_dofs[elem]]  # (6, 2)
        gref = p2_grads(ref[None, :])[0]  # (6, 2) d/dxi
        return cm.T @ (gref @ self.vspace.inv_jac[elem])

    def _K_at(self, extension, elem, ref):
        G = self._lift_grad(extension, elem, ref)
        return cof2((G + np.eye(2))[None, None])[0, 0]

    def evaluate(self, extension, pressure, projected=False):
        """Traction rows (n_interface, 2) in canonical interface order."""
        out = np.zeros((len(self.records), 2))
        pcoef = pressure.coefficients
        ped = self.pspace.elem_dofs
        for k, (d, elems, normal, refs) in enumerate(self.records):
            Kn = np.zeros(2)
            for elem, ref in zip(elems, refs):
                K = self._K_at(extension, elem, ref)
                lam = np.array([1.0 - ref[0] - ref[1], ref[0], ref[1]])
                p_val = float(lam @ pcoef[ped[elem]])
                Kn += p_val * (K @ normal)
            t = Kn / len(elems)
            if projected:
                t = (t @ normal) * normal
            out[k] = t
        return out


def traction(extension, pressure, vspace, pspace, projected=False):
    """One-shot nodal traction; see :class:`TractionEvaluator`."""
    return TractionEvaluator(vspace, pspace).evaluate(extension, pressure, projected)


class FSISolver:
    """Reusable coupled solver: factorizations built once per mesh."""

    def __init__(self, mesh, lame, nu=1.0):
        self.mesh = mesh
        self.vspace, self.pspace = fluid_spaces(mesh)
        self.sspace = solid_space(mesh)
        self.fluid = PicardSolver(self.vspace, self.pspace, nu)
        self.solid = ElasticitySolver(self.sspace, lame)
        self.extender = HarmonicExtender(self.vspace)
        self.tractor = TractionEvaluator(self.vspace, self.pspace)
        self.norms_u = asm.NormSet(self.sspace)
        self.nu = float(nu)

    def extension_of(self, u: FEFunction) -> FEFunction:
        """Harmonic lift of the solid's interface trace into the fluid."""
        return self.extender.extend(interface_trace(u))

    def solve(self, g, opts: CouplingOptions | None = None) -> FSIState:
        opts = opts or CouplingOptions()
        omega = opts.relaxation
        projected = opts.traction_interpretation == "normal-projected"
        x_fluid = None
        per_step = []  # (fluid_iters, min_J, min_eig_A) of each outer step

        def step(u):
            nonlocal x_fluid
            u_fn = FEFunction(self.sspace, u)
            ext = self.extension_of(u_fn)
            try:
                fields = transform_fields(self.vspace, ext)
            except TangledMeshError as exc:
                raise MeshTangledError(str(exc), u_fn) from exc
            state, frep = self.fluid.solve(
                fields, g,
                tol=opts.fluid_tol, max_iter=opts.fluid_max_iter,
                initial=x_fluid if opts.warm_start else None,
            )
            x_fluid = state.stacked()
            t = self.tractor.evaluate(ext, state.p, projected)
            du = self.solid.solve(traction=t).coefficients - u
            per_step.append((frep.iterations, float(fields.J.min()),
                             float(fields.min_eig_A().min())))
            return u + omega * du, omega * du, None

        u, report = fixed_point(
            step, np.zeros(self.sspace.ndof), self.norms_u.h1_norm,
            opts.tol, opts.max_outer_iter, "fsi-outer", OuterDivergenceError,
        )
        log_rows = [(k + 1, inc, ratio, *extra) for (k, _, ratio), inc, extra
                    in zip(report.rows(), report.increments, per_step)]
        u = FEFunction(self.sspace, u)
        # refresh the fluid state at the final relaxed displacement
        ext = self.extension_of(u)
        fields = transform_fields(self.vspace, ext)
        state, _ = self.fluid.solve(
            fields, g, tol=opts.fluid_tol, max_iter=opts.fluid_max_iter,
            initial=x_fluid,
        )
        return FSIState(u, state, ext, fields, report, log_rows)

    def residual(self, fsistate: FSIState, g) -> float:
        """Coupled residual: fluid weak residual + elasticity residual with
        the state's own traction + distance to the elasticity fixed point."""
        F = self.fluid.loads()
        r_fluid = self.fluid.residual(
            fsistate.fluid.stacked(), fsistate.fields, F
        )
        t = self.tractor.evaluate(fsistate.extension, fsistate.fluid.p)
        u_next = self.solid.solve(traction=t)
        rhs = np.zeros(self.sspace.ndof)
        v = FEFunction.zeros(self.sspace)
        v.component_matrix()[self.solid.iface] = t
        rhs += asm.assemble_boundary_load(self.sspace, TAG_INTERFACE, v)
        r_solid = self.solid.matrix @ fsistate.u.coefficients - rhs
        r_solid[self.solid.clamped] = 0.0
        r_fix = self.norms_u.h1_norm(u_next.coefficients - fsistate.u.coefficients)
        return r_fluid + float(np.linalg.norm(r_solid)) + r_fix


def solve_fsi(mesh, g, lame, nu=1.0, opts: CouplingOptions | None = None) -> FSIState:
    return FSISolver(mesh, lame, nu).solve(g, opts)


def fsi_residual(state: FSIState, g, lame, nu=1.0, solver: FSISolver | None = None):
    solver = solver or FSISolver(state.u.space.mesh, lame, nu)
    return solver.residual(state, g)

