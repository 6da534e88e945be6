"""Curvature endomorphism against hand-derived warped-product formulas.

For L = -(v0)^2 + a(x0)^2 |v_s|^2 the curvature endomorphism at v is

    R^0_0 = a a'' S             R^0_j = -a a'' v^0 v^j
    R^i_0 = (a''/a) v^0 v^i     R^i_j = [-(v0)^2 a''/a + a'^2 S] d_ij - a'^2 v^i v^j

with S = |v_s|^2, giving Ric = a a'' S - n (a''/a) (v0)^2 + (n-1) a'^2 S.
The exponential scale factor is the constant-flag case (K = -H^2 on all
flags); the static round universe carries K = (gamma beta / R)^2 on
flags tangent to the sphere and orthogonal to the motion.
"""

import numpy as np
import pytest

from lfgeom.connection import eval_connection
from lfgeom.curvature import (
    flag_curvature,
    ricci,
    ricci_weighted,
    riemann_matrix,
    weight_along,
)
from lfgeom.geodesics import integrate_geodesic
from lfgeom.models import lorentz_norm, model_library, weight


def flrw_R_oracle(a, adot, addot, v):
    d = len(v)
    S = float(np.sum(v[1:] ** 2))
    R = np.zeros((d, d))
    R[0, 0] = a * addot * S
    R[0, 1:] = -a * addot * v[0] * v[1:]
    R[1:, 0] = (addot / a) * v[0] * v[1:]
    R[1:, 1:] = (-(v[0] ** 2) * (addot / a) + adot**2 * S) * np.eye(d - 1) \
        - adot**2 * np.outer(v[1:], v[1:])
    return R


def gs_frame(g, v):
    """g-orthonormal spacelike frame orthogonal to timelike v."""
    d = len(v)
    L = v @ g @ v
    frame = []
    for k in range(1, d):
        w = np.eye(d)[k] .copy()
        w -= (v @ g @ w) / L * v
        for e in frame:
            w -= (e @ g @ w) * e
        frame.append(w / np.sqrt(w @ g @ w))
    return frame


@pytest.mark.parametrize(
    "kwargs,a_of,da,dda",
    [
        ({"scale": "exp", "H": 0.5}, lambda t: np.exp(0.5 * t),
         lambda t: 0.5 * np.exp(0.5 * t), lambda t: 0.25 * np.exp(0.5 * t)),
        ({"scale": "cosh", "omega": 0.8}, lambda t: np.cosh(0.8 * t),
         lambda t: 0.8 * np.sinh(0.8 * t), lambda t: 0.64 * np.cosh(0.8 * t)),
        ({"scale": "affine", "a0": 1.2, "q": 0.3}, lambda t: 1.2 + 0.3 * t,
         lambda t: 0.3, lambda t: 0.0),
    ],
)
def test_warped_product_curvature_matrix(kwargs, a_of, da, dda):
    m = model_library("flrw", n=2, **kwargs)
    t0 = 0.35
    x = np.array([t0, -0.2, 0.6])
    v = np.array([1.1, 0.3, -0.2])
    data = riemann_matrix(m, x, v)
    want = flrw_R_oracle(a_of(t0), da(t0), dda(t0), v)
    assert np.allclose(data.R, want, rtol=0.0, atol=1e-14)
    n = 2
    ric_want = (a_of(t0) * dda(t0) * np.sum(v[1:] ** 2)
                - n * dda(t0) / a_of(t0) * v[0] ** 2
                + (n - 1) * da(t0) ** 2 * np.sum(v[1:] ** 2))
    assert abs(ricci(m, x, v, data=data) - ric_want) < 1e-14


def test_riemann_matrix_makes_one_connection_call(monkeypatch):
    import lfgeom.curvature as curvature

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("order", args[3] if len(args) > 3 else None))
        return eval_connection(*args, **kwargs)

    monkeypatch.setattr(curvature, "eval_connection", counting)
    m = model_library("quartic_flrw", n=3, eps=0.3, H=0.4)
    x = np.array([0.15, 0.2, -0.1, 0.3])
    V = np.array([[1.2, 0.3, -0.25, 0.1], [1.1, -0.2, 0.1, 0.05]])
    data = riemann_matrix(m, x, V)
    assert calls == [5]
    assert data.R.shape == (2, 4, 4)


def test_flat_and_position_independent_models_have_zero_curvature():
    x3 = np.array([0.1, -0.4, 0.2, 0.5])
    v3 = np.array([1.2, 0.3, -0.1, 0.2])
    for name, kw in [("minkowski", {}), ("quartic_finsler", {"eps": 0.4})]:
        m = model_library(name, n=3, **kw)
        data = riemann_matrix(m, x3, v3)
        assert np.max(np.abs(data.R)) < 1e-10


def test_constant_flag_curvature_of_exponential_warping():
    H = 0.6
    m = model_library("flrw", n=2, scale="exp", H=H)
    x = np.array([0.2, 0.4, -0.3])
    v = np.array([1.3, 0.25, -0.1])
    v = v / lorentz_norm(m, x, v)
    data = riemann_matrix(m, x, v)
    for w in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.3, -1.1]),
              np.array([0.5, 1.0, 0.7])):
        K = flag_curvature(m, x, v, w, data=data)
        assert abs(K + H**2) < 1e-7
    # scale invariance in the flagpole
    assert abs(flag_curvature(m, x, 3.0 * v, w) + H**2) < 1e-7


def test_static_sphere_tangential_flag():
    R0, beta, r0 = 1.0, 0.6, 0.5
    m = model_library("einstein_static", n=2, radius=R0)
    gamma = 1.0 / np.sqrt(1 - beta**2)
    conf = 2 * R0**2 / (R0**2 + r0**2)
    x = np.array([0.0, r0, 0.0])
    v = np.array([gamma, 0.0, gamma * beta / conf])
    w = np.array([0.0, 1.0 / conf, 0.0])
    K = flag_curvature(m, x, v, w)
    assert abs(K - (gamma * beta / R0) ** 2) < 1e-7


def test_flagpole_identities_on_anisotropic_model():
    m = model_library("quartic_flrw", n=3, eps=0.3, H=0.4)
    x = np.array([0.15, 0.2, -0.1, 0.3])
    v = np.array([1.2, 0.3, -0.25, 0.1])
    data = riemann_matrix(m, x, v)
    scale = 1.0 + np.max(np.abs(data.R))
    # flagpole is annihilated
    assert np.max(np.abs(data.R @ v)) < 1e-7 * scale
    # self-adjointness with respect to g_v
    gR = data.center.g @ data.R
    assert np.max(np.abs(gR - gR.T)) < 1e-7 * scale
    # flagpole shift invariance
    w = np.array([0.2, 1.0, 0.4, -0.3])
    K1 = flag_curvature(m, x, v, w, data=data)
    K2 = flag_curvature(m, x, v, w + 3.0 * v, data=data)
    assert abs(K1 - K2) < 1e-8 * (1 + abs(K1))
    # curvature scales quadratically in the reference vector
    data2 = riemann_matrix(m, x, 2.0 * v)
    assert np.allclose(data2.R, 4.0 * data.R, rtol=1e-6, atol=1e-8)


def test_ricci_is_sum_of_frame_flags():
    m = model_library("quartic_flrw", n=3, eps=0.3, H=0.4)
    x = np.array([0.15, 0.2, -0.1, 0.3])
    v = np.array([1.2, 0.3, -0.25, 0.1])
    v = v / lorentz_norm(m, x, v)
    data = riemann_matrix(m, x, v)
    frame = gs_frame(data.center.g, v)
    Ks = [flag_curvature(m, x, v, e, data=data) for e in frame]
    assert abs(ricci(m, x, v, data=data) - sum(Ks)) < 1e-7


WEIGHT = [("const", 0.2), ("linear_x0", 0.8), ("boost_ratio", 0.45)]


def test_weight_derivatives_match_fd_along_geodesic():
    m = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    x0 = np.array([0.2, 0.0, 0.0])
    v0 = np.array([1.3, 0.4, -0.25])
    seg = integrate_geodesic(m, x0, v0, 2.5)

    def psi_of_t(t):
        xs, vs = seg.state(np.atleast_1d(t))
        return weight(m, xs, vs)[0]

    t1 = 1.0
    h = 1e-3
    d1 = (8 * (psi_of_t(t1 + h / 2) - psi_of_t(t1 - h / 2))
          - (psi_of_t(t1 + h) - psi_of_t(t1 - h))) / (6 * h)
    d2 = (16 * (psi_of_t(t1 + h / 2) + psi_of_t(t1 - h / 2) - 2 * psi_of_t(t1))
          - (psi_of_t(t1 + h) + psi_of_t(t1 - h) - 2 * psi_of_t(t1))) / (3 * h**2)
    x1, v1 = seg.state(t1)
    psi, dpsi, d2psi = weight_along(m, x1, v1)
    assert abs(psi - psi_of_t(t1)) < 1e-12
    assert abs(dpsi - d1) < 1e-7
    assert abs(d2psi - d2) < 1e-6


def test_weighted_ricci_family():
    m = model_library("flrw", n=2, scale="exp", H=0.5, weight=WEIGHT)
    x = np.array([0.1, 0.3, -0.2])
    v = np.array([1.2, 0.3, 0.1])
    data = riemann_matrix(m, x, v)
    ric = ricci(m, x, v, data=data)
    psi, dpsi, d2psi = weight_along(m, x, v, conn=data.center)
    assert abs(dpsi) > 1e-3  # weight genuinely varies along this geodesic
    for N in (2.5, 4.0, 17.0):
        want = ric + d2psi - dpsi**2 / (N - 2)
        assert abs(ricci_weighted(m, x, v, N, data=data) - want) < 1e-12
    assert abs(ricci_weighted(m, x, v, np.inf, data=data) - (ric + d2psi)) < 1e-12
    assert ricci_weighted(m, x, v, 2.0, data=data) == -np.inf
    # the formula extends below n, including the N < 0 range used by the
    # density inequality
    for N in (-3.0, 1.5):
        want = ric + d2psi - dpsi**2 / (N - 2)
        assert abs(ricci_weighted(m, x, v, N, data=data) - want) < 1e-12

    m0 = model_library("flrw", n=2, scale="exp", H=0.5)
    d0 = riemann_matrix(m0, x, v)
    assert np.allclose(ricci_weighted(m0, x, v, 7.0, data=d0), ricci(m0, x, v, data=d0))
    # unweighted N = n is allowed: psi' vanishes identically
    assert np.isfinite(ricci_weighted(m0, x, v, 2.0, data=d0))


def test_weighted_ricci_monotone_in_N():
    m = model_library("flrw", n=2, scale="exp", H=0.5, weight=WEIGHT)
    x = np.array([0.1, 0.3, -0.2])
    v = np.array([1.2, 0.3, 0.1])
    data = riemann_matrix(m, x, v)
    vals = [ricci_weighted(m, x, v, N, data=data) for N in (2.3, 3.0, 5.0, 40.0, np.inf)]
    assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))
