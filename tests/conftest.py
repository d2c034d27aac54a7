import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fsichannel
from fsichannel import cli
from fsichannel.fluid import InflowProfile
from fsichannel.fsi import CouplingOptions, FSISolver
from fsichannel.mesh import build_channel_mesh, straight_channel

OPERATING_MAGNITUDE = 0.05
LAME = (1.0, 50.0)
NU = 1.0


def default_geometry(h=0.1):
    """The default config's channel geometry at target edge length h."""
    return cli.geometry_from_config(cli.resolve_config({"target_edge_length": h}))


def child_env(extra):
    """Environment for a ``python -m fsichannel...`` child process.

    Copies ``os.environ``, applies ``extra`` and prepends the absolute
    directory holding the imported ``fsichannel`` package to
    ``PYTHONPATH`` (earlier entries are kept), so the child imports the
    same package as this process whatever its working directory and
    whether or not the package is installed.
    """
    env = dict(os.environ, **extra)
    root = str(Path(fsichannel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def default_mesh():
    return build_channel_mesh(default_geometry(0.1))


@pytest.fixture(scope="session")
def coarse_mesh():
    return build_channel_mesh(default_geometry(0.18))


@pytest.fixture(scope="session")
def straight_mesh():
    return build_channel_mesh(straight_channel())


@pytest.fixture(scope="session")
def fsi_solver(default_mesh):
    return FSISolver(default_mesh, LAME, NU)


@pytest.fixture(scope="session")
def operating_inflow(default_mesh):
    return InflowProfile(OPERATING_MAGNITUDE, default_mesh.geometry.channel_height)


@pytest.fixture(scope="session")
def fsi_base(fsi_solver, operating_inflow):
    return fsi_solver.solve(
        operating_inflow, CouplingOptions(tol=1e-11, fluid_tol=1e-12)
    )


@pytest.fixture(scope="session")
def fsi_plain_base(fsi_solver, operating_inflow):
    """The operating point by the plain relaxed map, whose increment ratios
    measure its contraction."""
    return fsi_solver.solve(
        operating_inflow,
        CouplingOptions(tol=1e-11, fluid_tol=1e-12, quasi_newton=False)
    )


def mirror_dof_error(space, coefs, height, arity):
    """Max deviation from mirror symmetry about the channel mid-line:
    x-components even, y-components odd under y -> H - y."""
    key = {(round(x, 9), round(y, 9)): i
           for i, (x, y) in enumerate(space.dof_coords)}
    cm = np.asarray(coefs).reshape(-1, arity)
    err = 0.0
    for i, (x, y) in enumerate(space.dof_coords):
        j = key[(round(x, 9), round(height - y, 9))]
        if arity == 2:
            err = max(err, abs(cm[i, 0] - cm[j, 0]), abs(cm[i, 1] + cm[j, 1]))
        else:
            err = max(err, abs(cm[i, 0] - cm[j, 0]))
    return err
