import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from oracles import fit_loglog

from fsichannel.assembly import assemble_rhs
from fsichannel.fluid import PicardSolver, fluid_spaces
from fsichannel.mesh import straight_channel
from fsichannel.verification import (
    RateTable,
    exact_pair,
    fit_rate,
    mms_convergence_study,
)


def test_polynomial_manufactured_solution_exact(straight_mesh):
    # quadratic velocity / affine pressure lie in the Taylor-Hood space,
    # so the discrete solution must reproduce them to solver tolerance
    ex = exact_pair("polynomial", height=straight_mesh.geometry.channel_height)
    V, Q = fluid_spaces(straight_mesh)
    rhs = assemble_rhs(V, Q, ex["f"], ex["f2"], ex["f3"])
    state, _ = PicardSolver(V, Q, nu=1.0).solve(None, ex["w"], rhs=rhs, tol=1e-13)
    wex = np.array([ex["w"](x, y) for x, y in V.dof_coords]).ravel()
    pex = np.array([ex["p"](x, y) for x, y in Q.dof_coords])
    assert np.abs(state.w.coefficients - wex).max() <= 1e-10
    assert np.abs(state.p.coefficients - pex).max() <= 1e-10


@pytest.mark.parametrize("kind", ["polynomial", "trig"])
def test_exact_pair_follows_the_data_rule(kind):
    # on coordinate arrays of shape S every callable returns S + its value
    # shape, entry by entry the scalar call (constant entries broadcast);
    # numpy's array and scalar transcendentals may round an ulp apart
    ex = exact_pair(kind, height=1.0)
    x = np.linspace(0.1, 3.9, 12).reshape(3, 4)
    y = np.linspace(0.9, 0.05, 12).reshape(3, 4)
    tails = {"w": (2,), "p": (), "grad_w": (2, 2), "f": (2,), "f2": (), "f3": (2,)}
    for name, tail in tails.items():
        vals = ex[name](x, y)
        assert vals.shape == (3, 4) + tail, name
        for i, j in np.ndindex(3, 4):
            np.testing.assert_allclose(vals[i, j], ex[name](x[i, j], y[i, j]),
                                       rtol=1e-15, atol=1e-15, err_msg=name)


def test_trig_solution_satisfies_divergence_constraint():
    # the manufactured velocity comes from a stream function, so its
    # divergence is identically zero at sampled points
    ex = exact_pair("trig", height=1.0)
    rng = np.random.default_rng(3)
    for x, y in rng.uniform(0.05, 0.95, size=(20, 2)):
        G = ex["grad_w"](x, y)
        assert abs(G[0, 0] + G[1, 1]) <= 1e-12


def test_trig_convergence_rates():
    table = mms_convergence_study(kind="trig", levels=3, h0=0.2, nu=1.0)
    assert table.rate_velocity >= 1.7
    assert table.rate_pressure >= 1.7
    # errors must actually decrease level to level
    assert all(b < a for a, b in zip(table.h1_velocity, table.h1_velocity[1:]))
    assert all(b < a for a, b in zip(table.l2_pressure, table.l2_pressure[1:]))


def test_fit_rate_matches_independent_fit():
    hs = [0.2, 0.1, 0.05, 0.025]
    errs = [3.1 * h**2.04 for h in hs]
    assert abs(fit_rate(hs, errs) - fit_loglog(hs, errs)) <= 1e-12
    assert abs(fit_rate(hs, errs) - 2.04) <= 1e-10


def test_unknown_exact_pair_rejected():
    with pytest.raises(ValueError):
        exact_pair("nonexistent")


def test_importing_the_derivative_leaves_sympy_unloaded():
    # sympy is needed only to build the manufactured pairs, and costs
    # about a second to import
    res = subprocess.run(
        [sys.executable, "-c", "import sys, fsichannel.sensitivity; "
         "print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=child_env({}))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
