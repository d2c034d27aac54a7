"""Direct sparse solves with symmetric Dirichlet elimination."""

import numpy as np
import scipy.sparse.linalg as spla


# bound on the free-row relative residual of every direct solve
RESIDUAL_RTOL = 1e-10


class SingularSystemError(RuntimeError):
    """A direct solve failed: singular factorization, non-finite result or
    residual above ``RESIDUAL_RTOL``."""


class FrozenFactorization:
    """Reusable LU of a square system after symmetric Dirichlet elimination.

    The rows and columns of the constrained dofs ``cdofs`` are removed and
    the free block is factorized once.  ``cvals`` are the default prescribed
    values (zeros if ``None``).  Every solve returns the full vector with the
    prescribed values set bit-exactly.  A solve of finite data raises
    :class:`SingularSystemError` if the free-row result is non-finite or its
    relative residual exceeds ``RESIDUAL_RTOL``.
    """

    def __init__(self, A, cdofs, cvals=None):
        A = A.tocsc()
        self.n = A.shape[0]
        self.cdofs = np.asarray(cdofs, dtype=np.int64)
        if cvals is None:
            cvals = np.zeros(len(self.cdofs))
        self.cvals = np.asarray(cvals, dtype=float)
        mask = np.ones(self.n, dtype=bool)
        mask[self.cdofs] = False
        self.free = np.flatnonzero(mask)
        rows = A[self.free]
        self.A_fc = rows[:, self.cdofs]
        self.A_ff = rows[:, self.free]
        try:
            self.lu = spla.splu(self.A_ff)
        except RuntimeError as exc:  # SuperLU reports exact singularity here
            raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs, prescribed=None):
        """Solve with the full-length ``rhs``; ``prescribed`` is an optional
        full-length vector whose entries at ``cdofs`` replace ``cvals``.  An
        (n, k) ``rhs`` and ``prescribed`` solve k systems at once, and each
        column is checked on its own."""
        x = np.zeros(rhs.shape)
        cols = x.reshape(self.n, -1)  # a view, one column per system
        cols[self.cdofs] = (self.cvals[:, None] if prescribed is None
                            else np.reshape(prescribed, cols.shape)[self.cdofs])
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
