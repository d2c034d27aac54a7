"""Directional derivatives of the coupled control-to-state map.

For the map g -> (u, w, p) (inflow profile to coupled state) the derivative
in a direction dg solves the linearized coupled fixed point du = S(dt[du]):
the fluid state is differentiated with respect to both the inflow data and
the flow-map displacement, the traction by the product rule, and the
elastic solve is its own derivative (it is linear).

The map reads du only through its interface trace tau, so the fixed point
is eliminated exactly: with explicit operators for the lift, the
flow-map derivative of the fluid residual, the traction derivative and the
elastic response, the dense interface matrix T is formed once per base
state, and (I - T) tau = c(dg) is solved directly.  The solution exists
wherever I - T is invertible, also where the fixed point would not
contract.  One matrix-free coupled step at the result gives the
fixed-point residual, an a-posteriori check on every solve; the derivative
is validated externally by Taylor-remainder tests.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import assembly as asm
from .elasticity import interface_trace
from .fluid import (
    ConvergenceError,
    SolverReport,
    dirichlet_dofs,
    dirichlet_vector,
    linearized_system,
)
from .fsi import FSISolver, FSIState, MeshTangledError, OuterDivergenceError
from .geomap import TangledMeshError, TransformFields, transform_derivatives
from .linsolve import FrozenFactorization
from .quadrature import TRI_POINTS
from .spaces import FEFunction


@dataclass
class SensitivityState:
    du: FEFunction
    dw: FEFunction
    dp: FEFunction
    report: SolverReport


@dataclass
class TaylorReport:
    hs: list
    remainders_u: list
    remainders_w: list
    remainders_p: list
    slope_u: float = float("nan")
    slope_w: float = float("nan")
    slope_p: float = float("nan")
    dropped: list = field(default_factory=list)  # h whose solve failed

    def rows(self):
        return list(zip(self.hs, self.remainders_u, self.remainders_w,
                        self.remainders_p))


def coefficient_rhs(vspace, pspace, derivs, w_hat, p_hat):
    """Right-hand side of the flow-map-direction linearized system.

    The coefficients (A, K) of the discrete residual are differentiated in
    the given direction and applied to the base state, negated: this is
    exactly -d/ds R(x_hat; A + s dA, K + s dK) at s = 0, the operator
    action with the derivative coefficients (the residual is linear in
    them), so the do-nothing outflow treatment of the nonlinear residual is
    differentiated consistently without any surface assembly.  The
    viscosity is folded into dA by the caller.
    """
    x_hat = np.concatenate([w_hat.coefficients, p_hat.coefficients])
    return -asm.oseen_action(vspace, pspace, x_hat, derivs.dA, derivs.dK, 1.0)


# the four unit lift gradients E_jl, index 2 j + l
_UNIT_GRADIENTS = np.eye(4).reshape(4, 2, 2)
# interface positions (two columns each) per linearized block solve of the
# Schur complement: the block bounds the dense temporaries, and SuperLU is
# no faster per column for wider blocks
SCHUR_BLOCK = 8


def lift_operator(vspace, pspace, fields, w_hat, p_hat, nu):
    """Sparse B with B @ dext = coefficient_rhs in the lift direction dext
    (viscosity folded in), assembled element-locally from the coefficient
    derivatives of the four unit lift gradients."""
    def unit(b):
        """(nu dA, dK) of the unit lift gradients on the elements b."""
        f = [a[b, :, None] for a in (fields.DPhi, fields.J, fields.K, fields.A)]
        d = transform_derivatives(TransformFields(*f), _UNIT_GRADIENTS)
        return nu * d.dA, d.dK  # viscosity enters only the viscous term

    return asm.assemble_lift_derivative(vspace, pspace, unit, w_hat, p_hat)


class SensitivitySolver:
    """Derivative solves around one converged coupled state.

    The linearized fluid operator at the base state is factorized once and
    reused.  The interface Schur complement T is formed on the first solve
    and reused by every further direction, which then costs two linearized
    solves, one dense solve of the interface size and the check step.
    """

    def __init__(self, solver: FSISolver, base: FSIState):
        self.solver = solver
        self.base = base
        V, Q = solver.vspace, solver.pspace
        self.nu = solver.nu
        A = linearized_system(V, Q, base.fields, base.fluid.w, solver.nu)
        self._lu = FrozenFactorization(A, dirichlet_dofs(V))

    def _linearized(self, dg=None, rhs_extra=None):
        """(dw, dp) of the linearized fluid problem at the base state."""
        V, Q = self.solver.vspace, self.solver.pspace
        F = np.zeros(V.ndof + Q.ndof) if rhs_extra is None else rhs_extra
        x = self._lu.solve(F, dirichlet_vector(V, Q, dg))
        return FEFunction(V, x[:V.ndof]), FEFunction(Q, x[V.ndof:])

    def _derivs_of(self, du: FEFunction):
        """Transform-coefficient derivatives for a solid direction du."""
        dext = self.solver.extender.extend(interface_trace(du))
        derivs = transform_derivatives(
            self.base.fields, dext.gradients_at(TRI_POINTS)
        )
        return dext, derivs

    def _scaled_rhs(self, derivs):
        # viscosity enters only the viscous coefficient
        nu_derivs = type(derivs)(
            derivs.dDPhi, derivs.dJ, derivs.dK, self.nu * derivs.dA
        )
        return coefficient_rhs(
            self.solver.vspace, self.solver.pspace, nu_derivs,
            self.base.fluid.w, self.base.fluid.p,
        )

    def linearized_wrt_g(self, dg):
        return self._linearized(dg=dg)

    def linearized_wrt_u(self, du: FEFunction):
        _, derivs = self._derivs_of(du)
        return self._linearized(rhs_extra=self._scaled_rhs(derivs))

    def _traction_derivative(self, dext, dp):
        """d(p K n) in a flow-map direction: dp K n + p_hat dK n, nodal,
        projected on the normal if the base state was."""
        base = self.base
        return self.solver.tractor.derivative(
            base.extension, base.fluid.p, dext.coefficients, dp.coefficients,
            base.projected)

    @cached_property
    def _schur(self):
        """(U, T): the solid responses to the unit interface traces and the
        trace matrix T of the coupling map."""
        solver, base = self.solver, self.base
        V, Q = solver.vspace, solver.pspace
        B = lift_operator(V, Q, base.fields, base.fluid.w, base.fluid.p, self.nu)
        n_if = len(solver.solid.iface)
        dt = []
        for m in range(0, n_if, SCHUR_BLOCK):
            E = solver.extender.lift_columns(np.arange(m, min(m + SCHUR_BLOCK, n_if)))
            dp = self._lu.solve(B @ E)[V.ndof:]
            dt.append(solver.tractor.derivative(
                base.extension, base.fluid.p, E, dp, base.projected))
        U = solver.solid.solve_tractions(
            np.concatenate(dt, axis=-1).reshape(2 * n_if, -1))
        return U, U[solver.solid.iface_vdofs]

    @property
    def coupling_matrix(self):
        """T: the coupling map du -> S(0, dt[du]) acting on interface
        traces, (2 n_interface, 2 n_interface), rows and columns 2 m + c."""
        return self._schur[1]

    def solve(self, dg, tol=1e-10) -> SensitivityState:
        """Derivative of the coupled map in direction dg by one solve of
        (I - T) tau = c(dg) for the interface trace tau of du.  One coupled
        step at du gives the fluid derivatives (dw, dp) and the relative
        fixed-point residual; ConvergenceError if that exceeds tol."""
        solver = self.solver
        U, T = self._schur
        _, dp = self._linearized(dg=dg)
        dt = self._traction_derivative(FEFunction.zeros(solver.vspace), dp)
        u_g = solver.solid.solve(traction=dt).coefficients
        tau = np.linalg.solve(np.eye(len(T)) - T, u_g[solver.solid.iface_vdofs])
        du = FEFunction(solver.sspace, u_g + U @ tau)

        du_check, dw, dp = self._coupled_step(du, dg)
        du_check = du_check.coefficients
        norm = solver.norms_u.h1_norm
        inc = norm(du_check - du.coefficients)
        residual = inc / max(norm(du_check), 1e-30)
        report = SolverReport(iterations=1, residual_history=[residual],
                              increments=[inc], converged=residual <= tol,
                              mode="schur")
        if not report.converged:
            raise ConvergenceError(
                f"schur: fixed-point residual {residual:.3e} of the direct "
                f"derivative exceeds {tol:.1e}", report)
        return SensitivityState(du, dw, dp, report)

    def _coupled_step(self, du: FEFunction, dg):
        """du -> S(dg, dt[du]) with its linearized fluid state: (du, dw, dp)."""
        dext, derivs = self._derivs_of(du)
        dw, dp = self._linearized(dg=dg, rhs_extra=self._scaled_rhs(derivs))
        dt = self._traction_derivative(dext, dp)
        return self.solver.solid.solve(traction=dt), dw, dp

    def apply_coupling_map(self, du: FEFunction) -> FEFunction:
        """One application of the interface map du -> S(0, dt[du]) with
        dg = 0: the operator whose spectral radius governs contraction."""
        return self._coupled_step(du, None)[0]


def solve_fsi_sensitivity(solver: FSISolver, base: FSIState, dg,
                          tol=1e-10) -> SensitivityState:
    return SensitivitySolver(solver, base).solve(dg, tol=tol)


def contraction_probe(solver: FSISolver, base: FSIState, n_samples=3,
                      iters=12, seed=0):
    """Power-iteration estimate of the interface coupling-map norm."""
    sens = SensitivitySolver(solver, base)
    rng = np.random.default_rng(seed)
    S = solver.sspace
    norms = solver.norms_u
    estimates = []
    for _ in range(n_samples):
        v = rng.standard_normal(S.ndof)
        v[solver.solid.clamped] = 0.0
        n0 = norms.h1_norm(v)
        if n0 == 0:
            continue
        v /= n0
        est = 0.0
        for _ in range(iters):
            w = sens.apply_coupling_map(FEFunction(S, v)).coefficients
            nw = norms.h1_norm(w)
            if nw == 0:
                est = 0.0
                break
            est = nw
            v = w / nw
        estimates.append(est)
    return estimates


def taylor_test(solver: FSISolver, g_of, dg_of, h_list, opts=None,
                base: FSIState | None = None) -> TaylorReport:
    """Taylor-remainder test of the coupled derivative.

    ``g_of(m)`` must return the inflow profile at magnitude offset m, built
    so that g_of(h) == g + h * dg pointwise; ``dg_of`` is the direction.
    Remainders use H1 norms for u and w and the L2 norm for p.
    """
    base = base or solver.solve(g_of(0.0), opts)
    sens = solve_fsi_sensitivity(solver, base, dg_of)
    norms_w = solver.fluid.norms_v
    norms_p = solver.fluid.norms_p
    norms_u = solver.norms_u
    hs, ru, rw, rp, dropped = [], [], [], [], []
    for h in h_list:
        try:
            state_h = solver.solve(g_of(h), opts)
        except (ConvergenceError, OuterDivergenceError, MeshTangledError,
                TangledMeshError):
            dropped.append(h)
            continue
        hs.append(h)
        ru.append(norms_u.h1_norm(
            state_h.u.coefficients - base.u.coefficients
            - h * sens.du.coefficients))
        rw.append(norms_w.h1_norm(
            state_h.fluid.w.coefficients - base.fluid.w.coefficients
            - h * sens.dw.coefficients))
        rp.append(norms_p.l2(
            state_h.fluid.p.coefficients - base.fluid.p.coefficients
            - h * sens.dp.coefficients))
    if len(hs) < 3:
        raise ConvergenceError("fewer than 3 valid h values in taylor_test",
                               None)
    report = TaylorReport(hs, ru, rw, rp, dropped=dropped)
    from .verification import fit_rate

    report.slope_u = fit_rate(hs, ru)
    report.slope_w = fit_rate(hs, rw)
    report.slope_p = fit_rate(hs, rp)
    return report

