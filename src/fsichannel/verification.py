"""Manufactured-solution convergence study for the fluid solver.

An exact velocity/pressure pair is substituted into the strong form of the
(untransformed) steady Navier-Stokes equations on the straight channel to
produce volume forcing f, divergence data f2 and an outflow load f3.  The
velocity is built so it vanishes on the channel walls (the solver's
homogeneous Dirichlet tags) and the inflow trace is used as Dirichlet data.
Errors are measured by quadrature against the exact callables and rates by
a least-squares fit in log-log coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_rhs, data_at
from .fluid import PicardSolver, fluid_spaces
from .mesh import build_channel_mesh, refine_uniform, straight_channel


def _lambdify_pair(w1, w2, p, nu):
    """Forcing and boundary data callables from sympy expressions."""
    import sympy as sym  # here: importing the package need not load sympy
    x, y = sym.symbols("x y", real=True)
    w = sym.Matrix([w1, w2])
    f = sym.Matrix([
        -nu * (sym.diff(w[i], x, 2) + sym.diff(w[i], y, 2))
        + w[0] * sym.diff(w[i], x) + w[1] * sym.diff(w[i], y)
        for i in range(2)
    ])
    f[0] += sym.diff(p, x)
    f[1] += sym.diff(p, y)
    f2 = sym.diff(w[0], x) + sym.diff(w[1], y)
    # outflow load: the do-nothing functional of the exact pair, moved to
    # the right-hand side (outward normal is +e_x on the outflow)
    f3 = sym.Matrix([nu * sym.diff(w[0], x) - p, nu * sym.diff(w[1], x)])
    grads = sym.Matrix([[sym.diff(w[i], v) for v in (x, y)] for i in range(2)])

    def field(expr, shape=()):
        """expr's entries on coordinate arrays of shape S as S + shape; a
        constant entry is broadcast."""
        fn = sym.lambdify((x, y), list(expr) if shape else [expr], "numpy")

        def call(xx, yy):
            S = np.broadcast_shapes(np.shape(xx), np.shape(yy))
            entries = [np.broadcast_to(np.asarray(v, dtype=float), S)
                       for v in fn(xx, yy)]
            return np.stack(entries, axis=-1).reshape(S + shape)
        return call

    return {"w": field(w, (2,)), "p": field(p), "grad_w": field(grads, (2, 2)),
            "f": field(f, (2,)), "f2": field(f2), "f3": field(f3, (2,))}


def exact_pair(kind, nu=1.0, height=1.0):
    """Named exact solutions: "polynomial" sits inside the P2/P1 space,
    "trig" is a smooth stream-function pair for asymptotic rates."""
    import sympy as sym
    x, y = sym.symbols("x y", real=True)
    if kind == "polynomial":
        w1 = y * (height - y)
        w2 = 2 * y * (height - y)
        p = 1 + 2 * x - 3 * y
    elif kind == "trig":
        # divergence-free: w = curl of psi
        psi = sym.Rational(1, 4) * sym.sin(sym.pi * y / height) ** 2 * sym.sin(x / 2)
        w1 = sym.diff(psi, y)
        w2 = -sym.diff(psi, x)
        p = sym.cos(x) * sym.sin(sym.pi * y / height)
    else:
        raise ValueError(f"unknown exact pair {kind!r}")
    return _lambdify_pair(w1, w2, p, nu)


def _errors(state, exact):
    """Quadrature H1 velocity and L2 pressure errors against callables."""
    wdet = state.w.space.wdet
    xy = state.w.space.quad_points
    dw = state.w.values_at() - data_at(exact["w"], xy, (2,))
    dg = state.w.gradients_at() - data_at(exact["grad_w"], xy, (2, 2))
    dp = state.p.values_at()[..., 0] - data_at(exact["p"], xy)
    h1_sq = np.einsum("eq,eq->", wdet, np.einsum("eqi,eqi->eq", dw, dw))
    h1_sq += np.einsum("eq,eq->", wdet, np.einsum("eqil,eqil->eq", dg, dg))
    l2p_sq = np.einsum("eq,eq->", wdet, dp * dp)
    return float(np.sqrt(h1_sq)), float(np.sqrt(l2p_sq))


def fit_rate(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    A = np.column_stack([np.log(hs), np.ones(len(hs))])
    slope, _ = np.linalg.lstsq(A, np.log(errs), rcond=None)[0]
    return float(slope)


@dataclass
class RateTable:
    hs: list
    h1_velocity: list
    l2_pressure: list
    rate_velocity: float
    rate_pressure: float

    def rows(self):
        return list(zip(self.hs, self.h1_velocity, self.l2_pressure))


def mms_convergence_study(kind="trig", levels=3, h0=0.2, nu=1.0):
    """Solve on a sequence of uniformly refined straight channels and
    report errors and fitted rates."""
    geo = straight_channel(h=h0)
    exact = exact_pair(kind, nu=nu, height=geo.channel_height)
    mesh = build_channel_mesh(geo)
    hs, ev, ep = [], [], []
    for lvl in range(levels):
        V, Q = fluid_spaces(mesh)
        solver = PicardSolver(V, Q, nu=nu)
        rhs = assemble_rhs(V, Q, exact["f"], exact["f2"], exact["f3"])
        # an exact pair's errors are the solve's own: 1e-12 keeps them below 1e-10
        state, _ = solver.solve(None, exact["w"], rhs=rhs, tol=1e-12)
        e_v, e_p = _errors(state, exact)
        hs.append(h0 / 2**lvl)
        ev.append(e_v)
        ep.append(e_p)
        if lvl + 1 < levels:
            mesh = refine_uniform(mesh)
    rv = fit_rate(hs[-2:], ev[-2:]) if levels > 1 else float("nan")
    rp = fit_rate(hs[-2:], ep[-2:]) if levels > 1 else float("nan")
    return RateTable(hs, ev, ep, rv, rp)
