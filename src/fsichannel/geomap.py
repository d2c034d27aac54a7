"""Flow map machinery: harmonic extension, transform fields, derivatives.

The interface displacement trace is lifted into the fluid domain by a
componentwise harmonic extension with zero exterior data; the flow map is
the identity plus that lift.  The transform fields (Jacobian determinant,
cofactor matrix, diffusion matrix) are cached per quadrature point; the
diffusion matrix is rational in the lift's gradient, so quadrature-point
storage avoids any projection error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_scalar_stiffness
from .linsolve import SYMMETRIC_MIN_DEGREE, FrozenFactorization, SolverError
from .mesh import ALL_TAGS
from .spaces import FEFunction, Space


class TangledMeshError(SolverError):
    """The displaced flow map is not orientation preserving."""

    def __init__(self, element_id, value):
        super().__init__(f"J = {value:.6e} <= 0 in element {element_id}")


class EllipticityError(SolverError):
    """The diffusion matrix dropped below the admissibility floor."""


def cof2(M):
    """Cofactor of a 2x2 matrix field (... , 2, 2); linear in M."""
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 0, 1] = -M[..., 1, 0]
    out[..., 1, 0] = -M[..., 0, 1]
    out[..., 1, 1] = M[..., 0, 0]
    return out


def det2(M):
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def sym_eig_min(A):
    """Smallest eigenvalue of a symmetric 2x2 field."""
    tr2 = 0.5 * (A[..., 0, 0] + A[..., 1, 1])
    dev = 0.5 * (A[..., 0, 0] - A[..., 1, 1])
    rad = np.sqrt(dev * dev + A[..., 0, 1] * A[..., 1, 0])
    return tr2 - rad


@dataclass
class TransformFields:
    """Per-quadrature-point flow map data on the fluid elements."""

    J: np.ndarray  # (T, q), det DPhi with DPhi[i, l] = d_l Phi_i
    K: np.ndarray  # (T, q, 2, 2), cofactor of DPhi
    A: np.ndarray  # (T, q, 2, 2), J^-1 K K^T

    def min_eig_A(self):
        return sym_eig_min(self.A)


@dataclass
class TransformDerivatives:
    """Directional derivatives of the transform fields (same layout)."""

    dJ: np.ndarray
    dK: np.ndarray
    dA: np.ndarray


def interior_laplacian(vspace: Space):
    """LU of the scalar stiffness of ``vspace`` with every node on a tagged
    edge constrained, factorized once per space: the harmonic extension
    solves with it, and its ``lu.perm_c`` ranks the interior nodes for
    :func:`fluid.elimination_order`."""
    if "laplacian" not in vspace.orderings:
        bdofs = [vspace.boundary_scalar_dofs(tag) for tag in ALL_TAGS]
        vspace.orderings["laplacian"] = FrozenFactorization(
            assemble_scalar_stiffness(vspace), np.unique(np.concatenate(bdofs)),
            options=SYMMETRIC_MIN_DEGREE)
    return vspace.orderings["laplacian"]


class HarmonicExtender:
    """Componentwise Laplace solver for interface lifts on the
    :func:`interior_laplacian` of the space.

    Dirichlet data: the trace on the interface, zero on the remaining
    boundary of the fluid subdomain.
    """

    def __init__(self, vspace: Space):
        self.vspace = vspace
        self.iface = vspace.interface_dofs
        self._fact = interior_laplacian(vspace)
        self._zero_rhs = np.zeros((vspace.n_scalar, 2))

    def extend(self, trace_values):
        """Lift (n_int, 2) interface values; returns a vector FEFunction.
        Both components are one block solve."""
        by_dof = np.zeros((self.vspace.n_scalar, 2))
        by_dof[self.iface] = trace_values
        coeffs = self._fact.solve(self._zero_rhs, by_dof)
        return FEFunction(self.vspace, coeffs.reshape(-1))


def transform_fields(vspace: Space, extension: FEFunction) -> TransformFields:
    """Evaluate (J, K, A) at all quadrature points of the fluid mesh.

    Raises :class:`TangledMeshError` if the map is not orientation
    preserving anywhere.
    """
    G = extension.gradients_at()  # (T, q, i, l) of the lift
    DPhi = G + np.eye(2)[None, None, :, :]
    J = det2(DPhi)
    if np.any(J <= 0.0):
        e, q = np.unravel_index(np.argmin(J), J.shape)
        raise TangledMeshError(vspace.tri_ids[e], J[e, q])
    K = cof2(DPhi)
    A = np.einsum("eqij,eqkj->eqik", K, K) / J[..., None, None]
    return TransformFields(J, K, A)


def transform_derivatives(fields: TransformFields, dgrad) -> TransformDerivatives:
    """Directional derivatives for a lift perturbation with gradient ``dgrad``.

    Uses Jacobi's formula for the determinant and the exact linearity of the
    2D cofactor; the diffusion matrix derivative follows by the product rule,
    dA = (dK K^T + K dK^T - dJ A) / J.  The 2 x 2 products are written out
    elementwise, which is much faster than batched einsum or matmul here.
    """
    dDPhi = np.asarray(dgrad)
    K = fields.K
    dJ = np.sum(K * dDPhi, axis=(-2, -1))
    dK = cof2(dDPhi)
    dKKt = np.sum(dK[..., :, None, :] * K[..., None, :, :], axis=-1)
    dA = (dKKt + dKKt.swapaxes(-1, -2) - dJ[..., None, None] * fields.A) \
        / fields.J[..., None, None]
    return TransformDerivatives(dJ, dK, dA)
