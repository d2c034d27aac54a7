"""Transformed Navier-Stokes solver and its linearization.

The fluid problem lives on the reference channel and carries the geometry
through the coefficient fields (A, K) of a flow map.  Both fluid fixed
points are one defect correction x_new = x + P^-1 (F - N(x)) with a
factorization P built once and an operator action N: the nonlinear solve
corrects by the Stokes operator and evaluates the transformed one with its
lagged convection matrix-free, so no matrix is assembled per solve; the
T-iteration corrects by the identity-coefficient linearized operator.  Every
fluid LU is a :class:`LinearizedSolver`'s.
"""

from dataclasses import dataclass, field
from functools import partial

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


def fixed_point(step, x0, norm, tol, max_iter, mode):
    """Iterate ``x, dx, residual = step(x, rel)`` until the relative
    increment rel = norm(dx) / norm(x) <= tol; the step gets the previous
    step's rel (``None`` at the first) and owns its arithmetic.  The driver
    records each increment, its ratio to the previous positive one, and
    ``residual`` (rel if ``None``); every loop, the FSI outer one included,
    raises ``ConvergenceError(message, report)`` after DIVERGENCE_STREAK
    ratios >= 1 in a row, on a non-finite increment, or after ``max_iter``
    steps; a :class:`SolverError` of the step without a report leaves with
    this one.  Returns ``(x, SolverReport)``.
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
            raise ConvergenceError(f"{mode}: non-finite increment at iteration {it}", report)
        if rel <= tol:
            report.converged = True
            return x, report
        if bad_streak >= DIVERGENCE_STREAK:
            raise ConvergenceError(f"{mode} is not contracting: last ratios "
                                   f"{report.increment_ratios[-DIVERGENCE_STREAK:]}",
                                   report)
    raise ConvergenceError(f"{mode} did not converge in {max_iter} iterations", report)


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


def defect_correction(lu, action, F, prescribed, x0, N0, norm, tol, max_iter,
                      mode):
    """:func:`fixed_point` of the defect correction x_new = x + P^-1 (F - N(x))
    with P the :class:`FrozenFactorization` ``lu`` and N(x) = ``action(x)``;
    each step sets the ``prescribed`` values at ``lu.cdofs`` bit-exactly and
    evaluates N at its new iterate, which gives its weak residual and the
    next step's defect.  ``N0`` is N(x0), ``None`` for N(x0) = 0.  A fixed
    point solves N(x) = F on the free rows."""
    N = np.zeros_like(x0) if N0 is None else N0

    def step(x, _):
        nonlocal N
        x_new = x + lu.solve(F - N, prescribed - x)
        x_new[lu.cdofs] = prescribed[lu.cdofs]
        N = action(x_new)
        return x_new, x_new - x, _weak_residual(N - F, lu.cdofs, F)

    return fixed_point(step, x0, norm, tol, max_iter, mode)


class PicardSolver:
    """Nonlinear transformed Navier-Stokes via a frozen Stokes operator.

    The preconditioner P, the identity-coefficient Stokes operator with the
    problem's Dirichlet dofs (a :class:`LinearizedSolver` without base
    state), is factorized once.  With N(x) = M(A, K) x + C(x; K) x each
    Picard step is the :func:`defect_correction` x_new = x + P^-1 (F - N(x)),
    so a fixed point solves the full transformed system including the lagged
    convection.  An n-step solve evaluates N n + 1 times (n from a cold
    start, where N(0) = 0) and assembles no matrix; P serves any coefficient
    fields (e.g. along a coupled-iteration trajectory).
    """

    def __init__(self, vspace: Space, pspace: Space, nu=1.0):
        self.vspace, self.pspace, self.nu = vspace, pspace, float(nu)
        self.norms_v, self.norms_p = asm.NormSet(vspace), asm.NormSet(pspace)
        self._lu = LinearizedSolver(vspace, pspace, None, None, nu)._lu

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
        action = partial(asm.oseen_action, V, Q,  # coefficients fixed for the solve
                         coefficients=fluid_coefficients(V, fields, self.nu))
        x, report = defect_correction(
            self._lu, action, F, dirichlet_vector(V, Q, g),
            np.zeros_like(F) if initial is None else initial,
            None if initial is None else action(initial),
            _product_norm(self.norms_v, self.norms_p, V.ndof), tol, max_iter,
            "picard")
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

    The operator M_lin(A, K) (viscous, both convection linearizations at
    ``base_w`` unless it is ``None``, and pressure/divergence, all with the
    fields' coefficients) is assembled and factorized once; every fluid LU
    is built here.  :meth:`solve` is one direct solve on it and
    :meth:`t_iteration` the constant-coefficient :func:`defect_correction`
    x_new = x + M_lin(I)^-1 (F - M_lin(A, K) x), with M_lin(I) the
    linearized operator with identity coefficients, which reports the
    observed contraction ratios; M_lin(A, K) x is the LU's free-row product.
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
        zero = np.zeros(V.ndof + Q.ndof)
        x, report = defect_correction(
            LinearizedSolver(V, Q, None, self.base_w, self.nu)._lu,
            self._lu.product, zero, dirichlet_vector(V, Q, dg), zero, None,
            _product_norm(asm.NormSet(V), asm.NormSet(Q), V.ndof),
            T_ITERATION_TOL, T_ITERATION_MAX_ITER, "T-iteration")
        return (*_split(V, Q, x), report)
