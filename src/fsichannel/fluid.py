"""Transformed Navier-Stokes solver and its linearization.

The fluid problem lives on the reference channel and carries the geometry
through the coefficient fields (A, K) of a flow map.  The nonlinear solve
is a defect correction on a single factorized identity-coefficient Stokes
operator: each step evaluates the transformed operator with its lagged
convection matrix-free at the iterate and corrects by the Stokes solve of
the defect, so the fixed point solves the fully transformed system and no
matrix is assembled per solve.  The linearized solver supports a one-shot
direct mode and the analogous constant-coefficient fixed-point mode for
contraction probing.
"""

from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .linsolve import COLUMN_MIN_DEGREE, FrozenFactorization, SolverError
from .mesh import FLUID, TAG_INFLOW, TAG_INTERFACE, TAG_WALL
from .spaces import FEFunction, Space, make_space


class ConvergenceError(SolverError):
    """A fixed point stopped without converging."""


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
    increments: list = field(default_factory=list)
    converged: bool = False
    mode: str = "picard"

    def rows(self):
        """(step index from 0, residual, ratio to the previous increment)."""
        ratios = [""] + self.increment_ratios
        return [(k, r, ratios[k]) for k, r in enumerate(self.residual_history)]


# consecutive increment ratios >= 1 after which a fixed point is abandoned
DIVERGENCE_STREAK = 5
# an inner solve inside an outer fixed point stops at FORCING times the
# outer relative increment (Eisenstat & Walker 1996), never below its own tol
FORCING = 0.1


def fixed_point(step, x0, norm, tol, max_iter, mode, error=ConvergenceError):
    """Iterate ``x, dx, residual = step(x, rel)`` until the relative
    increment rel = norm(dx) / norm(x) <= tol; the step gets the previous
    step's rel (``None`` at the first) and owns its arithmetic.  The driver
    records each increment, its ratio to the previous positive one, and
    ``residual`` (rel if ``None``); it raises ``error(message, report)``
    after DIVERGENCE_STREAK ratios >= 1 in a row, on a non-finite increment,
    or after ``max_iter`` steps; a :class:`SolverError` of the step without a
    report leaves with this one.  Returns ``(x, SolverReport)``.
    """
    report = SolverReport(mode=mode)
    x, prev_inc, bad_streak, rel = x0, None, 0, None
    for it in range(1, max_iter + 1):
        try:
            x, dx, residual = step(x, rel)
        except SolverError as exc:
            exc.report = exc.report or report
            raise
        inc = norm(dx)
        rel = inc / max(norm(x), 1e-30)
        if prev_inc is not None and prev_inc > 0:
            report.increment_ratios.append(inc / prev_inc)
            bad_streak = bad_streak + 1 if inc / prev_inc >= 1.0 else 0
        prev_inc = inc
        report.iterations = it
        report.increments.append(inc)
        report.residual_history.append(rel if residual is None else residual)
        if not np.isfinite(inc):
            raise error(f"{mode}: non-finite increment at iteration {it}", report)
        if rel <= tol:
            report.converged = True
            return x, report
        if bad_streak >= DIVERGENCE_STREAK:
            raise error(f"{mode} is not contracting: last ratios "
                        f"{report.increment_ratios[-DIVERGENCE_STREAK:]}", report)
    raise error(f"{mode} did not converge in {max_iter} iterations", report)


class InflowProfile:
    """Horizontal inflow g(y) = (m * 4/H^2 * y (H - y), 0).

    Parabolic, vanishing at both endpoints of the inflow boundary; the
    magnitude m is the peak horizontal velocity at mid-height.  Called on
    coordinate arrays of shape S it returns S + (2,).
    """

    def __init__(self, magnitude, height):
        self.magnitude = float(magnitude)
        self.height = float(height)

    def __call__(self, x, y):
        m, H = self.magnitude, self.height
        u = m * 4.0 / H**2 * y * (H - y)
        return np.stack([u, np.zeros_like(u)], axis=-1)


def fluid_spaces(mesh):
    return (
        make_space(mesh, order=2, arity=2, subdomain=FLUID),
        make_space(mesh, order=1, arity=1, subdomain=FLUID),
    )


def dirichlet_dofs(vspace):
    """Sorted velocity dofs constrained on the inflow, walls and interface.

    Each tag keeps only its exclusive dofs, so the three groups are
    disjoint; the sorted order fixes the column order of the LU."""
    groups = [vspace.boundary_dofs(TAG_INFLOW, exclusive=True)]
    groups += [vspace.boundary_dofs(tag, exclusive=True)
               for tag in (TAG_WALL, TAG_INTERFACE)
               if len(vspace.mesh.edges_with_tag(tag))]
    return np.unique(np.concatenate(groups))


def dirichlet_vector(vspace, pspace, g):
    """Full-length [v; p] vector holding the inflow data g, zero elsewhere."""
    sdofs = vspace.boundary_scalar_dofs(TAG_INFLOW, exclusive=True)
    by_dof = np.zeros(vspace.ndof + pspace.ndof)
    by_dof[2 * sdofs[:, None] + np.arange(2)] = asm.data_at(
        g, vspace.dof_coords[sdofs], (2,))
    return by_dof


def _split(vspace, pspace, x):
    """(velocity, pressure) functions of a stacked [v; p] vector."""
    return FEFunction(vspace, x[:vspace.ndof]), FEFunction(pspace, x[vspace.ndof:])


def _product_norm(norms_v, norms_p, n_v):
    """H1 x L2 norm of a stacked [v; p] vector."""
    return lambda x: float(np.hypot(norms_v.h1_norm(x[:n_v]), norms_p.l2(x[n_v:])))


def fluid_coefficients(vspace, fields, nu):
    """:func:`assembly.action_coefficients` of the transform fields
    (``None``: the identity)."""
    if fields is None:
        return asm.action_coefficients(vspace, nu=nu)
    return asm.action_coefficients(vspace, fields.A, fields.K, nu)


def _weak_residual(r, cdofs, F):
    """Free-dof norm of the weak residual ``r``, relative to the load ``F``."""
    r[cdofs] = 0.0
    return float(np.linalg.norm(r)) / max(float(np.linalg.norm(F)), 1.0)


class PicardSolver:
    """Nonlinear transformed Navier-Stokes via a frozen Stokes operator.

    The identity-coefficient Stokes matrix M_I (with the problem's
    Dirichlet dof pattern) is factorized once; with the operator action
    N(x) = M(A, K) x + C(x; K) x each Picard step is the defect correction

        M_I x_new = F - N(x) + M_I x

    so a fixed point satisfies the full transformed system including the
    lagged convection.  N(x_new) gives the step's weak residual and the
    next step's action, so an n-step solve makes n + 1 evaluations (n from
    a cold start, where N(0) = 0) and assembles no matrix.  The
    factorization is reusable across different coefficient fields (e.g.
    along a coupled-iteration trajectory).
    """

    def __init__(self, vspace: Space, pspace: Space, nu=1.0):
        self.vspace = vspace
        self.pspace = pspace
        self.nu = float(nu)
        self.norms_v = asm.NormSet(vspace)
        self.norms_p = asm.NormSet(pspace)
        self._M_I = asm.transformed_oseen_system(
            vspace, pspace, asm.action_coefficients(vspace, nu=nu))
        self._lu = FrozenFactorization(self._M_I, dirichlet_dofs(vspace),
                                       options=COLUMN_MIN_DEGREE)

    def residual(self, x, fields):
        """Free-dof norm of the nonlinear weak-form residual at x without
        load."""
        N = asm.oseen_action(self.vspace, self.pspace, x,
                             fluid_coefficients(self.vspace, fields, self.nu))
        return _weak_residual(N, self._lu.cdofs, np.zeros_like(x))

    def solve(self, fields=None, g=None, rhs=None, tol=1e-10, max_iter=50,
              initial=None):
        """(FluidState, SolverReport) for the coefficient fields, the inflow
        Dirichlet data ``g`` and the load ``rhs`` (zero if ``None``; see
        :func:`assembly.assemble_rhs`), from ``initial`` or zero."""
        V, Q = self.vspace, self.pspace
        F = np.zeros(V.ndof + Q.ndof) if rhs is None else rhs
        prescribed = dirichlet_vector(V, Q, g)
        coefficients = fluid_coefficients(V, fields, self.nu)  # fixed for the solve
        x0 = np.zeros(V.ndof + Q.ndof) if initial is None else initial
        N = np.zeros_like(x0) if initial is None else asm.oseen_action(V, Q, x0, coefficients)

        def step(x, _):
            nonlocal N
            x_new = self._lu.solve(F - N + self._M_I @ x, prescribed)
            N = asm.oseen_action(V, Q, x_new, coefficients)
            return x_new, x_new - x, _weak_residual(N - F, self._lu.cdofs, F)

        norm = _product_norm(self.norms_v, self.norms_p, V.ndof)
        x, report = fixed_point(step, x0, norm, tol, max_iter, "picard")
        return FluidState(*_split(V, Q, x)), report


def solve_navier_stokes(mesh, g=None, nu=1.0, tol=1e-10, max_iter=50):
    """One-shot nonlinear solve on the reference domain without load; see
    :class:`PicardSolver`."""
    V, Q = fluid_spaces(mesh)
    return PicardSolver(V, Q, nu).solve(None, g, tol=tol, max_iter=max_iter)


# stopping tolerance and step limit of the T-iteration
T_ITERATION_TOL = 1e-12
T_ITERATION_MAX_ITER = 200


class LinearizedSolver:
    """Linearized transformed Navier-Stokes at the state ``base_w``.

    The operator M_lin(A, K) (viscous, both convection linearizations and
    pressure/divergence, all with the fields' coefficients) is assembled and
    factorized once; :meth:`solve` is one direct solve on it and
    :meth:`t_iteration` the constant-coefficient fixed point

        M_lin(I) x_new = F - M_lin(A, K) x + M_lin(I) x

    with M_lin(I) the linearized operator with identity coefficients,
    which reports the observed contraction ratios.  Both read M_lin(A, K) x
    only on the free rows, which the factorization's blocks give.
    """

    def __init__(self, vspace, pspace, fields, base_w, nu):
        self.vspace, self.pspace, self.base_w, self.nu = vspace, pspace, base_w, nu
        M = asm.transformed_oseen_system(
            vspace, pspace, fluid_coefficients(vspace, fields, nu),
            advector=base_w, reaction_with=base_w)
        self._lu = FrozenFactorization(M, dirichlet_dofs(vspace),
                                       options=COLUMN_MIN_DEGREE)

    def solve(self, dg=None, rhs=None):
        """(dw, dp) for the inflow Dirichlet data ``dg`` and the load
        ``rhs`` (zero if ``None``)."""
        V, Q = self.vspace, self.pspace
        F = np.zeros(V.ndof + Q.ndof) if rhs is None else rhs
        return _split(V, Q, self._lu.solve(F, dirichlet_vector(V, Q, dg)))

    def t_iteration(self, dg):
        """(dw, dp, report) of the T-iteration for the inflow data ``dg``."""
        V, Q = self.vspace, self.pspace
        M_I = asm.transformed_oseen_system(
            V, Q, asm.action_coefficients(V, nu=self.nu),
            advector=self.base_w, reaction_with=self.base_w)
        lu = FrozenFactorization(M_I, self._lu.cdofs, options=COLUMN_MIN_DEGREE)
        F = np.zeros(V.ndof + Q.ndof)
        prescribed = dirichlet_vector(V, Q, dg)
        Mx = np.zeros_like(F)  # M_lin(A, K) x at x = 0

        def step(x, _):
            nonlocal Mx
            x_new = lu.solve(F - Mx + M_I @ x, prescribed)
            Mx = self._lu.product(x_new)
            return x_new, x_new - x, _weak_residual(Mx - F, lu.cdofs, F)

        norm = _product_norm(asm.NormSet(V), asm.NormSet(Q), V.ndof)
        x, report = fixed_point(step, np.zeros_like(F), norm, T_ITERATION_TOL,
                                T_ITERATION_MAX_ITER, "T-iteration")
        return (*_split(V, Q, x), report)
