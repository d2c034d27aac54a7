"""Directional derivatives of the coupled control-to-state map.

For the map g -> (u, w, p) (inflow profile to coupled state) the derivative
in a direction dg solves the linearized coupled fixed point du = S(dt[du]):
the fluid state is differentiated with respect to both the inflow data and
the flow-map displacement, the traction by the product rule, and the
elastic solve is its own derivative (it is linear).

The map reads du only through its interface trace tau, so the fixed point
is the interface equation (I - T) tau = c(dg), with T the linearized
coupling map on traces.  It is solved by unrestarted GMRES (Saad & Schultz
1986), whose only access to T is one matrix-free coupled step per product:
lift, transform-coefficient derivatives, one linearized fluid solve, the
traction derivative and one elastic solve.  The solution exists wherever
I - T is invertible, also where the fixed point would not contract.  One
more coupled step at the result gives the fixed-point residual, a check on
every solve.  The same Arnoldi loop, run on T from a random trace,
estimates rho(T) (Saad 2011), the plain coupling iteration's contraction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .fluid import ConvergenceError, LinearizedSolver, SolverReport
from .fsi import FSISolver, FSIState
from .geomap import transform_derivatives
from .linsolve import SolverError
from .spaces import FEFunction
from .verification import fit_rate


@dataclass
class SensitivityState:
    du: FEFunction
    dw: FEFunction
    dp: FEFunction
    report: SolverReport
    # largest |Ritz value| of T on the Krylov space of c(dg), 0 without a
    # product; a mirror-symmetric dg reads T's second eigenvalue (README)
    ritz_radius: float = 0.0


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


def coefficient_rhs(vspace, pspace, derivs, x_hat, nu):
    """Right-hand side of the flow-map-direction linearized system.

    The coefficients (A, K) of the discrete residual are differentiated in
    the given direction and applied to the stacked base state ``x_hat`` =
    [w; p], negated: this is exactly -d/ds R(x_hat; A + s dA, K + s dK) at
    s = 0, the operator action with the derivative coefficients (the
    residual is linear in them), so the do-nothing outflow treatment of the
    nonlinear residual is differentiated consistently without any surface
    assembly.
    """
    coefficients = asm.action_coefficients(vspace, derivs.dA, derivs.dK, nu)
    return -asm.oseen_action(vspace, pspace, x_hat, coefficients)


# relative 2-norm residual of the interface equation at which GMRES stops
KRYLOV_TOL = 1e-13
# relative residual of the dominant Ritz pair at which the rho(T) estimate
# stops (its Ritz value is not monotone, so a fixed count reads worse)
RITZ_TOL = 1e-4


def arnoldi(operator, v0):
    """Arnoldi with modified Gram-Schmidt from v0, ``operator(k, v)`` the
    k-th product: yields H[:k+2, :k+1] after each of at most len(v0)
    products and returns after an exact breakdown."""
    m = len(v0)
    # one block each for the basis here and its images in gmres: per-product
    # arrays that outlive the product fragment the heap (+10 % RSS at level 1)
    H, V = np.zeros((m + 1, m)), np.empty((m + 1, m))
    V[0] = v0 / np.linalg.norm(v0)
    for k in range(m):
        w = operator(k, V[k])
        for j in range(k + 1):
            H[j, k] = V[j] @ w
            w -= H[j, k] * V[j]
        H[k + 1, k] = np.linalg.norm(w)
        yield H[:k + 2, :k + 1]
        if H[k + 1, k] == 0.0:
            return
        V[k + 1] = w / H[k + 1, k]


def gmres(image, iface, c, n_image):
    """Unrestarted GMRES for (I - T) tau = c with T v = image(v)[iface].

    ``image(v)`` is the full solid response (length ``n_image``) to the
    trace v; keeping it for every Arnoldi vector gives the response to the
    solution V y as U y without a further product.  Stops at KRYLOV_TOL, on
    an exact breakdown or after len(c) products.  Returns (U y, the
    relative residual after each product, the largest |Ritz value| of T).
    """
    beta = np.linalg.norm(c)
    U = np.empty((len(c), n_image))

    def operator(k, v):
        U[k] = image(v)
        return v - U[k, iface]

    residuals = []
    for H in arnoldi(operator, c):
        e1 = beta * np.eye(len(H))[0]
        y = np.linalg.lstsq(H, e1, rcond=None)[0]
        residuals.append(float(np.linalg.norm(e1 - H @ y) / beta))
        if residuals[-1] <= KRYLOV_TOL:
            break
    # H[:-1] is I - T on the Krylov space
    ritz = np.abs(1.0 - np.linalg.eigvals(H[:-1])).max()
    return y @ U[:len(y)], residuals, float(ritz)


class SensitivitySolver:
    """Derivative solves around one converged coupled state.

    ``linearized`` holds the linearized fluid operator at the base state,
    factorized once; the base state's stacked [w; p] and its traction
    sample are taken once too.  Each coupled step (the inflow part, each
    GMRES product and the check) costs one solve on ``linearized``.
    """

    def __init__(self, solver: FSISolver, base: FSIState):
        self.solver = solver
        self.base = base
        self.linearized = LinearizedSolver(solver.vspace, solver.pspace,
                                           base.fields, base.fluid.w, solver.nu)
        self._x_hat = base.fluid.stacked()
        self._sample = solver.tractor.sample(base.extension, base.fluid.p)

    def _lift(self, trace):
        """Lift of an interface trace, shape (n_interface, 2), and the
        linearized right-hand side of its transform-coefficient derivatives
        (``None`` for the zero trace of the inflow part, which has no load)."""
        solver = self.solver
        if not trace.any():
            return FEFunction.zeros(solver.vspace), None
        dext = solver.extender.extend(trace)
        derivs = transform_derivatives(self.base.fields, dext.gradients_at())
        return dext, coefficient_rhs(solver.vspace, solver.pspace, derivs,
                                     self._x_hat, solver.nu)

    def solve(self, dg, tol=1e-10) -> SensitivityState:
        """Derivative of the coupled map in direction dg by GMRES on
        (I - T) tau = c(dg) for the interface trace tau of du.  One coupled
        step at du gives the fluid derivatives (dw, dp) and the relative
        fixed-point residual; ConvergenceError if that exceeds tol.  The
        report counts the coupled-step products, the check included, and
        holds the GMRES residuals followed by the check residual."""
        solid, iface = self.solver.solid, self.solver.solid.iface_vdofs
        u_g, dw, dp = self._coupled_step(np.zeros(len(iface)), dg)
        c = u_g.coefficients[iface]
        if not c.any():  # tau = 0, so du = u_g and the residual is exactly 0
            report = SolverReport(iterations=0, residual_history=[0.0],
                                  converged=True, mode="krylov")
            return SensitivityState(u_g, dw, dp, report)

        U_y, history, ritz = gmres(self._response, iface, c, solid.space.ndof)
        du = FEFunction(solid.space, u_g.coefficients + U_y)

        du_check, dw, dp = self._coupled_step(du.coefficients[iface], dg)
        du_check = du_check.coefficients
        norm = self.solver.norms_u.h1_norm
        history.append(
            norm(du_check - du.coefficients) / max(norm(du_check), 1e-30))
        ratios = [b / max(a, 1e-30) for a, b in zip(history, history[1:])]
        report = SolverReport(
            iterations=len(history), residual_history=history,
            increment_ratios=ratios, converged=history[-1] <= tol,
            mode="krylov")
        if not report.converged:
            raise ConvergenceError(
                f"krylov: fixed-point residual {history[-1]:.3e} of the "
                f"derivative exceeds {tol:.1e}", report)
        return SensitivityState(du, dw, dp, report, ritz)

    def coupling_spectral_radius(self, seed=0):
        """(rho(T), products) by Arnoldi on T from a seeded random trace,
        which excites T's dominant mode (a mirror-symmetric c(dg) does not),
        until the dominant Ritz pair (theta, y) has |h_{k+1,k} y_k| / |theta|
        <= RITZ_TOL; at T = 0 the first product breaks down exactly."""
        iface = self.solver.solid.iface_vdofs
        v0 = np.random.default_rng(seed).standard_normal(len(iface))
        for H in arnoldi(lambda k, v: self._response(v)[iface], v0):
            theta, Y = np.linalg.eig(H[:-1])
            i = np.abs(theta).argmax()
            if abs(H[-1, -1] * Y[-1, i]) <= RITZ_TOL * abs(theta[i]):
                break
        return float(abs(theta[i])), H.shape[1]

    def _response(self, v):
        """Full solid response S(0, dt[v]) to the interface trace v."""
        return self._coupled_step(v, None)[0].coefficients

    def _coupled_step(self, trace, dg):
        """Interface trace -> S(dg, dt[trace]) with its linearized fluid
        state: (du, dw, dp).  The traction derivative dp K n + p_hat dK n
        is nodal, projected on the normal if the base state was."""
        dext, rhs = self._lift(trace.reshape(-1, 2))
        dw, dp = self.linearized.solve(dg, rhs)
        dt = self.solver.tractor.derivative(
            self._sample, dext.coefficients, dp.coefficients, self.base.projected)
        return self.solver.solid.solve(traction=dt), dw, dp


def solve_fsi_sensitivity(solver: FSISolver, base: FSIState, dg,
                          tol=1e-10) -> SensitivityState:
    return SensitivitySolver(solver, base).solve(dg, tol=tol)


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
        except SolverError:
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
        raise ConvergenceError("fewer than 3 valid h values in taylor_test")
    return TaylorReport(hs, ru, rw, rp, fit_rate(hs, ru), fit_rate(hs, rw),
                        fit_rate(hs, rp), dropped)

