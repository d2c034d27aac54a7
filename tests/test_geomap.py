import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    assemble_scalar_p2_stiffness,
    check_admissibility,
    piola_divergence,
)

from fsichannel.geomap import (
    EllipticityError,
    HarmonicExtender,
    TangledMeshError,
    cof2,
    transform_derivatives,
    transform_fields,
)
from fsichannel.mesh import FLUID
from fsichannel.spaces import FEFunction, make_space


@pytest.fixture(scope="module")
def vspace(default_mesh):
    return make_space(default_mesh, order=2, arity=2, subdomain=FLUID)


@pytest.fixture(scope="module")
def extender(vspace):
    return HarmonicExtender(vspace)


def smooth_trace(vspace, amplitude, k=0):
    iface = vspace.interface_dofs
    xy = vspace.dof_coords[iface]
    return amplitude * np.column_stack([
        np.sin((2 + k) * xy[:, 0]), np.cos((3 + k) * xy[:, 1]),
    ])


def test_zero_extension_gives_identity(vspace):
    fields = transform_fields(vspace, FEFunction.zeros(vspace))
    eye = np.broadcast_to(np.eye(2), fields.K.shape)
    assert np.array_equal(fields.J, np.ones(fields.J.shape))
    assert np.array_equal(fields.A, eye)
    assert np.array_equal(fields.K, eye)
    assert np.all(fields.J == 1.0)


def test_harmonic_extension_against_dense_laplace(coarse_mesh):
    V = make_space(coarse_mesh, order=2, arity=2, subdomain=FLUID)
    trace = smooth_trace(V, 0.05)
    ext = HarmonicExtender(V).extend(trace)

    tris = coarse_mesh.triangles[coarse_mesh.tri_subdomain == FLUID]
    A_oracle, odofs = assemble_scalar_p2_stiffness(coarse_mesh.nodes, tris)
    key = {tuple(np.round(c, 12)): i for i, c in enumerate(odofs.coords)}
    perm = np.array([key[tuple(np.round(c, 12))] for c in V.dof_coords])

    iface = V.interface_dofs
    boundary = set()
    for tag in ("inflow", "wall", "outflow", "interface"):
        boundary |= set(int(d) for d in V.boundary_scalar_dofs(tag))
    for comp in range(2):
        rhs = np.zeros(odofs.n_p2)
        x = np.zeros(odofs.n_p2)
        fixed = {}
        for d in boundary:
            fixed[perm[d]] = 0.0
        for d, val in zip(iface, trace[:, comp]):
            fixed[perm[int(d)]] = val
        cdofs = np.array(sorted(fixed))
        cvals = np.array([fixed[d] for d in cdofs])
        free = np.setdiff1d(np.arange(odofs.n_p2), cdofs)
        x[cdofs] = cvals
        x[free] = np.linalg.solve(
            A_oracle[np.ix_(free, free)],
            -A_oracle[np.ix_(free, cdofs)] @ cvals,
        )
        mine = ext.component_matrix()[:, comp]
        assert np.abs(mine - x[perm]).max() <= 1e-10


def test_cofactor_algebra_identity():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 3, 2, 2))
    K = cof2(M)
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    prod = np.einsum("eqij,eqkj->eqik", K, M)
    assert np.allclose(prod, det[..., None, None] * np.eye(2), atol=1e-13)


def test_cofactor_affinity(vspace, extender):
    # K[alpha u] - I = alpha (K[u] - I) for the 2x2 cofactor
    trace = smooth_trace(vspace, 0.02)
    I = np.eye(2)
    for alpha in (0.25, 0.5, 2.0):
        Ka = transform_fields(
            vspace, extender.extend(alpha * trace)).K
        K1 = transform_fields(vspace, extender.extend(trace)).K
        assert np.abs((Ka - I) - alpha * (K1 - I)).max() <= 1e-13


def test_piola_identity_random_displacements(vspace, extender):
    rng = np.random.default_rng(9)
    worst = 0.0
    for k in range(20):
        amp = rng.uniform(0.005, 0.03)
        trace = smooth_trace(vspace, amp, k=k % 5)
        ext = extender.extend(trace)
        check_admissibility(transform_fields(vspace, ext), beta=0.25)
        worst = max(worst, float(np.abs(piola_divergence(vspace, ext)).max()))
    assert worst <= 1e-10


def test_transform_derivatives_fd(vspace, extender):
    trace = smooth_trace(vspace, 0.02)
    ext = extender.extend(trace)
    fields = transform_fields(vspace, ext)
    dext = extender.extend(smooth_trace(vspace, 1.0, k=2))
    derivs = transform_derivatives(fields, dext.gradients_at())
    out = {}
    for eps in (1e-5, 1e-6):
        fp = transform_fields(vspace, FEFunction(
            vspace, ext.coefficients + eps * dext.coefficients))
        fm = transform_fields(vspace, FEFunction(
            vspace, ext.coefficients - eps * dext.coefficients))
        out[eps] = (
            np.abs(derivs.dJ - (fp.J - fm.J) / (2 * eps)).max(),
            np.abs(derivs.dK - (fp.K - fm.K) / (2 * eps)).max(),
            np.abs(derivs.dA - (fp.A - fm.A) / (2 * eps)).max(),
        )
    assert out[1e-5][0] <= 1e-8 and out[1e-5][1] <= 1e-8
    # dA error falls roughly quadratically with eps (truncation dominated,
    # with a roundoff floor near 1e-10/eps)
    assert out[1e-6][2] <= 0.05 * out[1e-5][2]


def test_dJ_and_dK_linear_exact(vspace, extender):
    # J and K are polynomial in the displacement gradient, so scaled
    # directions scale the derivative exactly
    ext = extender.extend(smooth_trace(vspace, 0.02))
    fields = transform_fields(vspace, ext)
    dext = extender.extend(smooth_trace(vspace, 1.0, k=1))
    d1 = transform_derivatives(fields, dext.gradients_at())
    d2 = transform_derivatives(fields, 2.0 * dext.gradients_at())
    assert np.abs(d2.dJ - 2 * d1.dJ).max() <= 1e-13
    assert np.abs(d2.dK - 2 * d1.dK).max() <= 1e-13


def test_tangling_detected(vspace, extender):
    iface = vspace.interface_dofs
    rng = np.random.default_rng(3)
    trace = 0.2 * rng.standard_normal((len(iface), 2))
    with pytest.raises(TangledMeshError):
        transform_fields(vspace, extender.extend(trace))


def test_ellipticity_floor_enforced(vspace, extender):
    trace = smooth_trace(vspace, 0.05)
    fields = transform_fields(vspace, extender.extend(trace))
    with pytest.raises(EllipticityError):
        check_admissibility(fields, beta=0.999)


def test_extender_matches_one_shot(vspace, extender):
    trace = smooth_trace(vspace, 0.01)
    # a fresh extender and the module's shared, reused one
    a = HarmonicExtender(vspace).extend(trace)
    b = extender.extend(trace)
    assert np.array_equal(a.coefficients, b.coefficients)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(-2, 2, allow_nan=False),
       beta=st.floats(-2, 2, allow_nan=False))
def test_extension_linearity(vspace, extender, alpha, beta):
    t1 = smooth_trace(vspace, 0.01)
    t2 = smooth_trace(vspace, 0.01, k=3)
    ext = extender.extend(alpha * t1 + beta * t2)
    combo = (alpha * extender.extend(t1).coefficients
             + beta * extender.extend(t2).coefficients)
    assert np.abs(ext.coefficients - combo).max() <= 1e-11
