"""Transformed Navier-Stokes solver and its linearization.

The fluid problem lives on the reference channel and carries the geometry
through the coefficient fields (A, K) of a flow map.  The nonlinear solve
is a Picard iteration built around a single factorized identity-coefficient
Stokes operator: every coefficient perturbation and the lagged convection
go to the right-hand side, so the fixed point solves the fully transformed
system.  The linearized solver supports a one-shot direct mode and the
analogous constant-coefficient fixed-point mode for contraction probing.
"""

from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .linsolve import FrozenFactorization, SaddleSystem, apply_dirichlet, solve_sparse
from .mesh import FLUID, TAG_INFLOW, TAG_INTERFACE, TAG_WALL
from .spaces import FEFunction, Space, make_space


class ConvergenceError(RuntimeError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class FluidState:
    w: FEFunction
    p: FEFunction

    def stacked(self):
        return np.concatenate([self.w.coefficients, self.p.coefficients])


@dataclass
class SolverReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    increment_ratios: list = field(default_factory=list)
    converged: bool = False
    mode: str = "picard"

    def rows(self):
        out = []
        for k, r in enumerate(self.residual_history):
            ratio = self.increment_ratios[k - 1] if 0 < k <= len(self.increment_ratios) else ""
            out.append((k, r, ratio))
        return out


class InflowProfile:
    """Horizontal inflow g(y) = (m * 4/H^2 * y (H - y), 0).

    Parabolic, vanishing at both endpoints of the inflow boundary; the
    magnitude m is the peak horizontal velocity at mid-height.
    """

    def __init__(self, magnitude, height):
        self.magnitude = float(magnitude)
        self.height = float(height)

    def __call__(self, x, y):
        m, H = self.magnitude, self.height
        return np.array([m * 4.0 / H**2 * y * (H - y), 0.0])


def fluid_spaces(mesh):
    return (
        make_space(mesh, order=2, arity=2, subdomain=FLUID),
        make_space(mesh, order=1, arity=1, subdomain=FLUID),
    )


def _inflow_values(vspace, g):
    """Vector dofs and values for the Dirichlet data on the inflow."""
    sdofs = vspace.boundary_scalar_dofs(TAG_INFLOW, exclusive=True)
    if g is None:
        vals = np.zeros((len(sdofs), 2))
    elif callable(g):
        vals = np.array([np.asarray(g(x, y), dtype=float)
                         for x, y in vspace.dof_coords[sdofs]])
    else:
        vals = np.asarray(g, dtype=float).reshape(len(sdofs), 2)
    dofs = (2 * sdofs[:, None] + np.arange(2)[None, :]).ravel()
    return dofs, vals.ravel()


def dirichlet_sets(vspace, g):
    """(dofs, values) for inflow data g plus homogeneous wall/interface."""
    gdofs, gvals = _inflow_values(vspace, g)
    sets = [(gdofs, gvals)]
    for tag in (TAG_WALL, TAG_INTERFACE):
        if len(vspace.mesh.edges_with_tag(tag)) == 0:
            continue
        d = 2 * vspace.boundary_scalar_dofs(tag, exclusive=True)
        d = np.concatenate([d, d + 1])
        sets.append((d, np.zeros(len(d))))
    return sets


def dirichlet_dofs(vspace):
    """Sorted velocity dofs constrained on the inflow, walls and interface."""
    return np.unique(np.concatenate([d for d, _ in dirichlet_sets(vspace, None)]))


def dirichlet_vector(vspace, pspace, g):
    """Full-length [v; p] vector holding the inflow data g, zero elsewhere."""
    by_dof = np.zeros(vspace.ndof + pspace.ndof)
    gdofs, gvals = _inflow_values(vspace, g)
    by_dof[gdofs] = gvals
    return by_dof


def _product_norm(norms_v, norms_p, vec, n_v):
    return float(np.hypot(norms_v.h1_norm(vec[:n_v]), norms_p.l2(vec[n_v:])))


class PicardSolver:
    """Nonlinear transformed Navier-Stokes via a frozen Stokes operator.

    The identity-coefficient Stokes matrix (with the problem's Dirichlet
    dof pattern) is factorized once; each Picard step solves

        M_I x = F - (M(A,K) - M_I) x_bar - C(x_bar; K) x_bar

    so a fixed point satisfies the full transformed system including the
    lagged convection.  The factorization is reusable across different
    coefficient fields (e.g. along a coupled-iteration trajectory).
    """

    def __init__(self, vspace: Space, pspace: Space, nu=1.0):
        if nu <= 0:
            raise ValueError("viscosity must be positive")
        self.vspace = vspace
        self.pspace = pspace
        self.nu = float(nu)
        self.norms_v = asm.NormSet(vspace)
        self.norms_p = asm.NormSet(pspace)
        self._M_I = asm.transformed_oseen_system(vspace, pspace, None, nu).full_matrix()
        self._lu = FrozenFactorization(self._M_I, dirichlet_dofs(vspace))

    def loads(self, f=None, f2=None, f3=None):
        return asm.assemble_rhs(self.vspace, self.pspace, f, f2, f3)

    def residual(self, x, fields, F):
        """Free-dof norm of the nonlinear weak-form residual at x."""
        n_v = self.vspace.ndof
        w = FEFunction(self.vspace, x[:n_v])
        sysm = asm.transformed_oseen_system(
            self.vspace, self.pspace, fields, self.nu, advector=w
        ).full_matrix()
        r = sysm @ x - F
        r[self._lu.cdofs] = 0.0
        return float(np.linalg.norm(r)) / max(float(np.linalg.norm(F)), 1.0)

    def solve(self, fields=None, g=None, f=None, f2=None, f3=None,
              tol=1e-10, max_iter=50, initial=None):
        V, Q = self.vspace, self.pspace
        n_v = V.ndof
        F = self.loads(f, f2, f3)
        prescribed = dirichlet_vector(V, Q, g)
        if fields is None:
            D = None
            K = None
        else:
            M_A = asm.transformed_oseen_system(V, Q, fields, self.nu).full_matrix()
            D = (M_A - self._M_I).tocsr()
            K = fields.K

        report = SolverReport(mode="picard")
        x = np.zeros(V.ndof + Q.ndof) if initial is None else initial.copy()
        prev_inc = None
        for it in range(1, max_iter + 1):
            rhs = F.copy()
            if D is not None:
                rhs -= D @ x
            wbar = FEFunction(V, x[:n_v])
            C = asm.assemble_convection(V, wbar, K)
            rhs[:n_v] -= C @ x[:n_v]
            x_new = self._lu.solve(rhs, prescribed)
            inc = _product_norm(self.norms_v, self.norms_p, x_new - x, n_v)
            scale = max(_product_norm(self.norms_v, self.norms_p, x_new, n_v), 1e-30)
            if prev_inc is not None and prev_inc > 0:
                report.increment_ratios.append(inc / prev_inc)
            prev_inc = inc
            x = x_new
            report.iterations = it
            # nonlinear residual from the pieces already assembled: the
            # operator at x is M_I + D + C(x), and C must be refreshed
            # since the advector moved
            C = asm.assemble_convection(V, FEFunction(V, x[:n_v]), K)
            r = self._M_I @ x - F
            if D is not None:
                r += D @ x
            r[:n_v] += C @ x[:n_v]
            r[self._lu.cdofs] = 0.0
            report.residual_history.append(
                float(np.linalg.norm(r)) / max(float(np.linalg.norm(F)), 1.0)
            )
            if inc / scale <= tol:
                report.converged = True
                break
        if not report.converged:
            raise ConvergenceError(
                f"Picard did not converge in {max_iter} iterations "
                f"(last ratio {report.increment_ratios[-1]:.3f})"
                if report.increment_ratios else "Picard did not converge",
                report,
            )
        state = FluidState(FEFunction(V, x[:n_v]), FEFunction(Q, x[n_v:]))
        return state, report


def solve_navier_stokes(mesh, fields=None, g=None, f=None, f2=None, f3=None,
                        nu=1.0, tol=1e-10, max_iter=50):
    """One-shot nonlinear solve; see :class:`PicardSolver`."""
    V, Q = fluid_spaces(mesh)
    solver = PicardSolver(V, Q, nu)
    return solver.solve(fields, g, f, f2, f3, tol=tol, max_iter=max_iter)


def linearized_system(vspace, pspace, fields, base_w, nu) -> SaddleSystem:
    """Full linearized operator at base_w: viscous + both convection
    linearizations + pressure/divergence, all with the given coefficients."""
    return asm.transformed_oseen_system(
        vspace, pspace, fields, nu, advector=base_w, reaction_with=base_w
    )


def solve_linearized(vspace, pspace, fields, base_w, dg=None, f=None, f2=None,
                     f3=None, rhs_extra=None, nu=1.0, mode="direct",
                     tol=1e-12, max_iter=200):
    """Linearized transformed solver around the state base_w.

    mode "direct" assembles the linearized operator and solves once.
    mode "T-iteration" runs the constant-coefficient fixed point

        M_lin(I) x = F - (M_lin(A,K) - M_lin(I)) x_bar

    where M_lin(I) is the linearized operator with identity coefficients,
    and reports the observed contraction ratios.  ``dg`` is the inflow
    Dirichlet data of the linearized problem; ``rhs_extra`` is an optional
    preassembled load (used for coefficient-derivative right-hand sides).
    """
    n_v = vspace.ndof
    F = asm.assemble_rhs(vspace, pspace, f, f2, f3)
    if rhs_extra is not None:
        F = F + rhs_extra

    if mode == "direct":
        system = linearized_system(vspace, pspace, fields, base_w, nu)
        system.rhs_v[:] = F[:n_v]
        system.rhs_p[:] = F[n_v:]
        x = solve_sparse(apply_dirichlet(system, dirichlet_sets(vspace, dg)))
        report = SolverReport(iterations=1, converged=True, mode="direct")
        return FEFunction(vspace, x[:n_v]), FEFunction(pspace, x[n_v:]), report

    if mode != "T-iteration":
        raise ValueError(f"unknown mode {mode!r}")

    M_I = linearized_system(vspace, pspace, None, base_w, nu).full_matrix()
    lu = FrozenFactorization(M_I, dirichlet_dofs(vspace))
    M_full = linearized_system(vspace, pspace, fields, base_w, nu).full_matrix()
    D = (M_full - M_I).tocsr()
    prescribed = dirichlet_vector(vspace, pspace, dg)

    norms_v = asm.NormSet(vspace)
    norms_p = asm.NormSet(pspace)
    report = SolverReport(mode="T-iteration")
    x = np.zeros(n_v + pspace.ndof)
    prev_inc = None
    for it in range(1, max_iter + 1):
        x_new = lu.solve(F - D @ x, prescribed)
        inc = _product_norm(norms_v, norms_p, x_new - x, n_v)
        scale = max(_product_norm(norms_v, norms_p, x_new, n_v), 1e-30)
        if prev_inc is not None and prev_inc > 0:
            report.increment_ratios.append(inc / prev_inc)
        prev_inc = inc
        x = x_new
        report.iterations = it
        r = M_full @ x - F
        r[lu.cdofs] = 0.0
        report.residual_history.append(
            float(np.linalg.norm(r)) / max(float(np.linalg.norm(F)), 1.0)
        )
        if inc / scale <= tol:
            report.converged = True
            break
    if not report.converged:
        raise ConvergenceError("T-iteration did not converge", report)
    return FEFunction(vspace, x[:n_v]), FEFunction(pspace, x[n_v:]), report
