"""Direct sparse solves with symmetric Dirichlet elimination."""

from types import MappingProxyType

import numpy as np
import scipy.sparse.linalg as spla


# bound on the free-row relative residual of every direct solve
RESIDUAL_RTOL = 1e-10

# SuperLU options per matrix kind (Li 2005).  Without options SuperLU
# orders by COLAMD and pivots on the largest entry.
#
# The Laplacian of the harmonic extension (symmetric positive definite):
# minimum degree on the pattern of A^T + A (Amestoy, Davis & Duff 1996),
# pivoting on the diagonal unless it is below 1 % of its column's largest
# entry, without relaxed supernodes, which slow this ordering down 6x on 24k
# dofs.
SYMMETRIC_MIN_DEGREE = MappingProxyType(
    {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.01, "relax": 0})
# The Stokes and the linearized Navier-Stokes operators, whose free dofs the
# caller passes in a node-blocked symmetric order (fluid.elimination_order):
# SuperLU keeps it (NATURAL) and pivots on the diagonal unless it is below
# 0.1 % of its column's largest entry.  That takes only diagonal pivots at
# mesh levels 0-2 and halves COLAMD's fill at level 2 (9.7 M against 18.5 M
# nnz).  A 1 % threshold takes 22 off-diagonal pivots at level 1 already,
# and their fill cascades at level 2; the 0.1 % one still refuses a tiny
# diagonal pivot.  Relaxed supernodes slow the level-2 factorization down
# 12x (6.4 s against 0.52 s).
NODE_ORDER = MappingProxyType(
    {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.001, "relax": 0})


class SolverError(RuntimeError):
    """A solve failed on its data; ``report`` is its loop's, if any."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularSystemError(SolverError):
    """A direct solve failed: singular factorization, non-finite result or
    residual above ``RESIDUAL_RTOL``."""


class FrozenFactorization:
    """Reusable LU of a square system after symmetric Dirichlet elimination.

    The rows and columns of the constrained dofs ``cdofs`` are removed and
    the free block is factorized once with the SuperLU ``options``
    (SuperLU's defaults if ``None``), its rows and columns alike in the
    order of ``free``: the other dofs, ascending if ``None`` (``ValueError``
    if they are not exactly the other dofs).  Every solve returns the full
    vector with the prescribed values set bit-exactly.  A solve of finite
    data raises :class:`SingularSystemError` if the free-row result is
    non-finite or its relative residual exceeds ``RESIDUAL_RTOL``.
    """

    def __init__(self, A, cdofs, options=None, free=None):
        A = A.tocsc()
        self.n = A.shape[0]
        self.cdofs = np.asarray(cdofs, dtype=np.int64)
        mask = np.ones(self.n, dtype=bool)
        mask[self.cdofs] = False
        self.free = np.flatnonzero(mask)
        if free is not None:
            free = np.asarray(free, dtype=np.int64)
            if not np.array_equal(np.sort(free), self.free):
                raise ValueError("free dofs are not the complement of the constrained dofs")
            self.free = free
        rows = A[self.free]
        self.A_fc = rows[:, self.cdofs]
        self.A_ff = rows[:, self.free]
        try:
            self.lu = spla.splu(self.A_ff, **(options or {}))
        except RuntimeError as exc:  # SuperLU reports exact singularity here
            raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    def product(self, x):
        """A x on the free rows, zeros on the constrained ones."""
        y = np.zeros(self.n)
        y[self.free] = self.A_ff @ x[self.free] + self.A_fc @ x[self.cdofs]
        return y

    def solve(self, rhs, prescribed=None):
        """Solve with the full-length ``rhs``; the optional full-length
        ``prescribed`` holds the values at ``cdofs`` (zeros if ``None``).  An
        (n, k) ``rhs`` and ``prescribed`` solve k systems at once, and each
        column is checked on its own."""
        x = np.zeros(rhs.shape)
        cols = x.reshape(self.n, -1)  # a view, one column per system
        if prescribed is not None:
            cols[self.cdofs] = np.reshape(prescribed, cols.shape)[self.cdofs]
        b = rhs.reshape(cols.shape)[self.free] - self.A_fc @ cols[self.cdofs]
        cols[self.free] = xf = self.lu.solve(b)
        # non-finite data comes from a diverging caller, whose own loop
        # reports it; only the columns of finite data are checked
        finite = np.all(np.isfinite(b), axis=0)
        b, xf = b[:, finite], xf[:, finite]
        if not np.all(np.isfinite(xf)):
            raise SingularSystemError("sparse solve produced non-finite values")
        res = np.linalg.norm(self.A_ff @ xf - b, axis=0)
        bnorm = np.linalg.norm(b, axis=0)
        if np.any(res > RESIDUAL_RTOL * bnorm):
            raise SingularSystemError(
                f"sparse solve residual {np.max(res / bnorm):.3e} exceeds {RESIDUAL_RTOL:.1e}"
            )
        return x
