"""Saddle-point system container, Dirichlet elimination, and direct solves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# bound on the free-row relative residual of every direct solve
RESIDUAL_RTOL = 1e-10


class SingularSystemError(RuntimeError):
    """A direct solve failed: singular factorization, non-finite result or
    residual above ``RESIDUAL_RTOL``."""


class DirichletConflictError(ValueError):
    """Two prescriptions at a shared dof disagree."""


@dataclass
class SaddleSystem:
    """Block system [[A_vv, A_vp], [A_pv, A_pp]] x = [rhs_v; rhs_p].

    Constraints are (dof, value) records in the stacked [v; p] numbering and
    are eliminated symmetrically at solve time.  ``A_pp`` and off-diagonal
    blocks may be ``None`` (zero).
    """

    A_vv: sp.spmatrix
    A_vp: sp.spmatrix | None
    A_pv: sp.spmatrix | None
    A_pp: sp.spmatrix | None
    rhs_v: np.ndarray
    rhs_p: np.ndarray | None
    constrained_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    constrained_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_v(self):
        return self.A_vv.shape[0]

    @property
    def n_p(self):
        if self.A_vp is not None:
            return self.A_vp.shape[1]
        if self.A_pv is not None:
            return self.A_pv.shape[0]
        return 0

    @property
    def size(self):
        return self.n_v + self.n_p

    def full_matrix(self):
        nv, np_ = self.n_v, self.n_p
        if np_ == 0:
            return self.A_vv.tocsr()
        blocks = [
            [self.A_vv, self.A_vp],
            [self.A_pv, self.A_pp if self.A_pp is not None else sp.csr_matrix((np_, np_))],
        ]
        return sp.bmat(blocks, format="csr")

    def full_rhs(self):
        if self.n_p == 0:
            return self.rhs_v.copy()
        rp = self.rhs_p if self.rhs_p is not None else np.zeros(self.n_p)
        return np.concatenate([self.rhs_v, rp])

    def copy(self):
        return SaddleSystem(
            self.A_vv.copy(),
            None if self.A_vp is None else self.A_vp.copy(),
            None if self.A_pv is None else self.A_pv.copy(),
            None if self.A_pp is None else self.A_pp.copy(),
            self.rhs_v.copy(),
            None if self.rhs_p is None else self.rhs_p.copy(),
            self.constrained_dofs.copy(),
            self.constrained_values.copy(),
        )


def apply_dirichlet(system: SaddleSystem, assignments) -> SaddleSystem:
    """Record Dirichlet constraints on the system.

    ``assignments`` is an iterable of (dofs, values) pairs in the stacked
    [v; p] dof numbering; values may be a scalar or an array matching dofs.
    Conflicting values at a shared dof raise :class:`DirichletConflictError`.
    """
    out = system.copy()
    seen = {int(d): float(v) for d, v in zip(out.constrained_dofs, out.constrained_values)}
    for dofs, values in assignments:
        dofs = np.asarray(dofs, dtype=np.int64)
        values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape)
        for d, v in zip(dofs, values):
            d, v = int(d), float(v)
            if d in seen and seen[d] != v:
                raise DirichletConflictError(
                    f"dof {d} prescribed both {seen[d]!r} and {v!r}"
                )
            seen[d] = v
    dofs = np.fromiter(sorted(seen), dtype=np.int64, count=len(seen))
    out.constrained_dofs = dofs
    out.constrained_values = np.asarray([seen[int(d)] for d in dofs])
    return out


def solve_sparse(system: SaddleSystem):
    """Direct sparse solve of a constrained system; see :class:`FrozenFactorization`."""
    return FrozenFactorization(
        system.full_matrix(), system.constrained_dofs, system.constrained_values
    ).solve(system.full_rhs())


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
