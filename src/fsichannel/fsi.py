"""Partitioned fluid-structure coupling.

One outer iteration evaluates the solid response h = H(u): build the flow
map from the current interface displacement, solve the transformed
Navier-Stokes problem, evaluate the pressure traction on the interface and
solve the clamped elasticity problem.  The converged state is the coupled
fixed point u = H(u).

The update is interface quasi-Newton IQN-ILS (Degroote, Bathe &
Vierendeels 2009): with the residual r = h - u, the first step relaxes,
u + omega r, and every later step is u_new = h + W c, where c minimises
|V c + r| over the differences V of the solve's earlier residuals and W of
its earlier responses.  The fit is a least-squares inverse Jacobian built
from the iterates alone, so no operator is assembled; near-dependent
differences are filtered out first (Haelterman et al. 2016).  With
``CouplingOptions.quasi_newton`` off every step relaxes, the plain Picard
map whose increment ratios measure its contraction.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .elasticity import ElasticitySolver, interface_trace, solid_space
from .fluid import (
    FORCING,
    ConvergenceError,
    FluidState,
    PicardSolver,
    SolverReport,
    fixed_point,
    fluid_spaces,
)
from .geomap import (
    HarmonicExtender,
    TangledMeshError,
    cof2,
    transform_fields,
)
from .mesh import TAG_INTERFACE
from .spaces import FEFunction, p1_basis, p2_grads

# old names, kept because bench/workloads.py imports them
OuterDivergenceError, MeshTangledError = ConvergenceError, TangledMeshError

# a secant difference whose part orthogonal to the newer kept ones is at
# most this share of its own norm is dropped from the least-squares fit
SECANT_FILTER = 1e-8
# the fluid solves of a quasi-Newton loop stop at this share of the FORCING
# tolerance: loose inner solves pollute the secant differences, which cost
# an outer step at the operating point with FORCING alone
SECANT_FORCING = 0.3
# step limit of every fluid solve of the coupling
FLUID_MAX_ITER = 50


def filter_secants(V):
    """Indices of the rows of ``V`` (secant differences, oldest first) that
    the QR filter keeps.

    Walks from the newest row and orthogonalises each against the rows kept
    before it (classical Gram-Schmidt, applied twice); a row whose remainder
    is at most SECANT_FILTER times its own norm is dropped, so zero and
    repeated rows go and the kept ones are well conditioned.
    """
    Q = np.empty_like(V)
    kept = []
    for i in range(len(V) - 1, -1, -1):
        q = V[i]
        for _ in range(2):
            q = q - Q[:len(kept)].T @ (Q[:len(kept)] @ q)
        size = np.linalg.norm(q)
        if size > SECANT_FILTER * np.linalg.norm(V[i]):
            Q[len(kept)] = q / size
            kept.append(i)
    return sorted(kept)


@dataclass
class CouplingOptions:
    """Settings of one coupled solve.

    ``relaxation`` scales the first outer update, u + omega r.  With
    ``quasi_newton`` (the default) every later update is the IQN-ILS step
    h + W c; with it off every update relaxes, the plain Picard map whose
    increment ratios measure the coupling's contraction (the ``probes``
    scenario and the contraction tests use it).  ``fluid_tol`` is the floor
    of the forced inner tolerance and the tolerance of the first outer
    step and of the final refresh solve.
    """

    relaxation: float = 1.0
    tol: float = 1e-9
    max_outer_iter: int = 50
    traction_interpretation: str = "full-vector"
    warm_start: bool = True
    fluid_tol: float = 1e-11
    quasi_newton: bool = True

    def __post_init__(self):
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.tol <= 0 or self.fluid_tol <= 0:
            raise ValueError("tol and fluid_tol must be positive")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be at least 1")
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
    traction_interpretation: str = "full-vector"  # as in CouplingOptions

    @property
    def projected(self):
        return self.traction_interpretation == "normal-projected"


class TractionEvaluator:
    """Nodal interface traction t = p K n for the fluid space.

    For each interface scalar dof (in the canonical interface ordering) the
    cofactor K and the pressure are evaluated at the dof location, averaging
    over the adjacent interface-edge fluid elements; for vertex dofs shared
    by two interface edges the normal is the normalized average of the two
    edge normals.  Averaging keeps the evaluation invariant under mesh
    symmetries.  Normals point out of the fluid, so a positive pressure
    pushes the solid away from it.

    Every (dof, element) pair is one sample point; ``points`` holds, per
    point, the dof's position in the interface order, the element (local
    index) and the reference coordinates.  Three sparse matrices built once
    carry the sampling: lift coefficients to lift gradients,
    pressure coefficients to pressures, and the per-dof average.
    """

    def __init__(self, vspace, pspace):
        self.iface = vspace.interface_dofs
        element, start, end, normal = asm.tagged_edge_elements(vspace, TAG_INTERFACE)
        # each edge element samples the edge's start, end and midpoint dofs
        where = np.full(vspace.n_scalar, -1)
        where[self.iface] = np.arange(len(self.iface))
        rec = where[vspace.trace_dofs(np.stack([start, end], axis=1))].ravel()
        by_rec = np.argsort(rec, kind="stable")
        first = np.searchsorted(rec[by_rec], np.arange(len(self.iface)))
        mean = (np.add.reduceat(np.repeat(normal, 3, axis=0)[by_rec], first)
                / np.bincount(rec)[:, None])
        self.normals = np.array([n / np.linalg.norm(n) for n in mean])
        # one sample point per (dof, element) pair, by dof, then element
        pairs = np.unique(rec * len(vspace.tri_ids) + np.repeat(element, 3))
        rec, elem = np.divmod(pairs, len(vspace.tri_ids))
        x = vspace.dof_coords[self.iface[rec]] - vspace.origin[elem]
        refs = np.einsum("pij,pj->pi", vspace.inv_jac[elem], x)
        self.points = rec, elem, refs
        n_pts = len(rec)
        self._pair_normal = self.normals[rec, :, None]  # (pts, 2, 1)
        # lift gradient rows (point, l) from the scalar lift coefficients
        grads = p2_grads(refs) @ vspace.inv_jac[elem]  # (pts, 6, 2)
        rows = 2 * np.arange(n_pts)[:, None, None] + np.arange(2)
        self._grad = sp.csr_matrix(
            (grads.ravel(), (np.broadcast_to(rows, grads.shape).ravel(),
                             np.repeat(vspace.elem_dofs[elem], 2))),
            shape=(2 * n_pts, vspace.n_scalar))
        self._pressure = sp.csr_matrix(
            (p1_basis(refs).ravel(),
             (np.repeat(np.arange(n_pts), 3), pspace.elem_dofs[elem].ravel())),
            shape=(n_pts, pspace.ndof))
        self._sum = sp.csr_matrix((np.ones(n_pts), (rec, np.arange(n_pts))),
                                  shape=(len(self.iface), n_pts))
        self._count = np.bincount(rec)[:, None]

    def _lift_grads(self, coefficients):
        """Lift gradients [i, l] at the points, (pts, 2, 2), for lift
        coefficients (ndof,)."""
        G = self._grad @ coefficients.reshape(-1, 2)  # (pts l, i)
        return G.reshape(-1, 2, 2).transpose(0, 2, 1)

    def _average(self, values, projected):
        """Per-dof mean of point values (pts, 2), optionally projected on
        the normal: (n_interface, 2)."""
        t = self._sum @ values / self._count
        if projected:
            t = np.sum(t * self.normals, axis=1, keepdims=True) * self.normals
        return t

    def sample(self, extension, pressure):
        """(K n, p) of the state (extension, pressure) at the points."""
        K = cof2(self._lift_grads(extension.coefficients) + np.eye(2))
        return (K @ self._pair_normal)[..., 0], self._pressure @ pressure.coefficients

    def evaluate(self, extension, pressure, projected=False):
        """Traction rows (n_interface, 2) in canonical interface order."""
        Kn, p = self.sample(extension, pressure)
        return self._average(p[:, None] * Kn, projected)

    def derivative(self, sample, dext, dp, projected=False):
        """d(p K n) = dp K n + p cof(dG) n at the state of ``sample`` (see
        :meth:`sample`) for lift and pressure coefficients ``dext`` (ndof,)
        and ``dp`` (pressure ndof,); returns (n_interface, 2)."""
        Kn, p = sample
        dKn = (cof2(self._lift_grads(dext)) @ self._pair_normal)[..., 0]
        return self._average(
            (self._pressure @ dp)[:, None] * Kn + p[:, None] * dKn, projected)


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

    def _fluid_at(self, u, g, tol, initial):
        """(extension, fields, fluid state, report) at the displacement
        coefficients ``u``: lift, transform fields and the fluid solve to
        ``tol`` from ``initial`` (zero if ``None``)."""
        ext = self.extension_of(FEFunction(self.sspace, u))
        fields = transform_fields(self.vspace, ext)
        state, report = self.fluid.solve(fields, g, tol=tol,
                                         max_iter=FLUID_MAX_ITER, initial=initial)
        return ext, fields, state, report

    def solve(self, g, opts: CouplingOptions | None = None) -> FSIState:
        opts = opts or CouplingOptions()
        omega = opts.relaxation
        projected = opts.traction_interpretation == "normal-projected"
        x_fluid, last = None, None
        forcing = FORCING * SECANT_FORCING if opts.quasi_newton else FORCING
        # secant differences of residuals (V) and responses (W), one row per
        # step after the first, preallocated so the loop allocates no block
        if opts.quasi_newton:
            V = np.empty((opts.max_outer_iter, self.sspace.ndof))
            W = np.empty_like(V)
        per_step = []  # (fluid_iters, min_J, min_eig_A, secant_columns)

        def step(u, rel):
            nonlocal x_fluid, last
            # inexact inner solve: the fluid need not be more accurate than
            # the outer iterate it feeds (Eisenstat-Walker forcing)
            fluid_tol = (opts.fluid_tol if rel is None
                         else max(opts.fluid_tol, forcing * rel))
            ext, fields, state, frep = self._fluid_at(
                u, g, fluid_tol, x_fluid if opts.warm_start else None)
            x_fluid = state.stacked()
            t = self.tractor.evaluate(ext, state.p, projected)
            h = self.solid.solve(traction=t).coefficients
            du = h - u
            kept = []
            if last is None or not opts.quasi_newton:
                u_new, dx = u + omega * du, omega * du
            else:
                k = len(per_step) - 1
                V[k], W[k] = du - last[0], h - last[1]
                kept = filter_secants(V[:k + 1])
                c = np.linalg.lstsq(V[kept].T, -du, rcond=None)[0]
                u_new = h + W[kept].T @ c
                dx = u_new - u
            last = du, h
            per_step.append((frep.iterations, float(fields.J.min()),
                             float(fields.min_eig_A().min()), len(kept)))
            return u_new, dx, None

        u, report = fixed_point(
            step, np.zeros(self.sspace.ndof), self.norms_u.h1_norm,
            opts.tol, opts.max_outer_iter, "fsi-outer",
        )
        log_rows = [(k + 1, inc, ratio, *extra) for (k, _, ratio), inc, extra
                    in zip(report.rows(), report.increments, per_step)]
        # refresh the fluid state at the final displacement
        ext, fields, state, _ = self._fluid_at(u, g, opts.fluid_tol, x_fluid)
        return FSIState(FEFunction(self.sspace, u), state, ext, fields, report,
                        log_rows, opts.traction_interpretation)

    def residual(self, fsistate: FSIState, g) -> float:
        """Coupled residual: fluid weak residual + elasticity residual with
        the state's own traction (in the interpretation it was solved with)
        + distance to the elasticity fixed point."""
        r_fluid = self.fluid.residual(fsistate.fluid.stacked(), fsistate.fields)
        t = self.tractor.evaluate(fsistate.extension, fsistate.fluid.p,
                                  fsistate.projected)
        u_next = self.solid.solve(traction=t)
        # the product and the interface load vanish on the clamped rows
        r_solid = (self.solid.lu.product(fsistate.u.coefficients)
                   - self.solid.interface_load @ t.ravel())
        r_fix = self.norms_u.h1_norm(u_next.coefficients - fsistate.u.coefficients)
        return r_fluid + float(np.linalg.norm(r_solid)) + r_fix

