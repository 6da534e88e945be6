"""Jacobi paths against closed forms and the exponential-map oracle.

Closed-form anchors:
  * Minkowski: A(t) = t I exactly.
  * exponential warping (constant flag -H^2): A(t) = sinh(Ht)/H I.
  * static round universe, boosted circular observer: the two frame flags
    are K0 = (gamma beta / R)^2 and 0, so det A = t sin(sqrt(K0) t)/sqrt(K0).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfgeom.connection import DegenerateMetricError
from lfgeom.geodesics import CONJUGATE_POINT, integrate_geodesic, radial_flow
from lfgeom.jacobi import (
    CURVATURE_NODES,
    JacobiPath,
    _lobatto_interpolant,
    build_frame,
    check_concavity,
    check_eq_sc,
    check_hric,
    check_riccati,
    frame_gram_det,
    gunther_f,
    jacobi_curvature,
    jacobi_variational,
    monotone_ratio_check,
    riccati_quantities,
    s_kappa,
    s_kappa_prime,
    sample_grid,
    scalars_for_paths,
    variational_paths,
    weighted_density,
)
from lfgeom.models import fundamental_tensor, lorentz_norm, model_library


def unit(m, x, v):
    return np.asarray(v, dtype=float) / lorentz_norm(m, x, np.asarray(v, float))


def boosted_circle():
    R0, beta, r0 = 1.0, 0.6, 0.5
    m = model_library("einstein_static", n=2, radius=R0)
    gamma = 1.0 / np.sqrt(1 - beta**2)
    conf = 2 * R0**2 / (R0**2 + r0**2)
    x0 = np.array([0.0, r0, 0.0])
    v0 = np.array([gamma, 0.0, gamma * beta / conf])
    return m, x0, v0, (gamma * beta / R0) ** 2


def test_build_frame_minkowski_rest():
    m = model_library("minkowski", n=3)
    x = np.zeros(4)
    E = build_frame(m, x, np.array([1.0, 0, 0, 0]))
    assert np.allclose(E, np.eye(4)[1:], atol=1e-14)
    assert abs(frame_gram_det(m, x, np.array([1.0, 0, 0, 0]), E) + 1.0) < 1e-12


@pytest.mark.parametrize("name,kw", [
    ("flrw", {"scale": "cosh", "omega": 0.8}),
    ("quartic_finsler", {"eps": 0.4}),
])
def test_frame_gram_is_minkowski(name, kw):
    m = model_library(name, n=2, **kw)
    x = np.array([0.3, -0.1, 0.4])
    v = unit(m, x, np.array([1.0, 0.35, -0.2]))
    E = build_frame(m, x, v)
    g = fundamental_tensor(m, x, v)
    W = np.vstack([v, E])
    gram = W @ g @ W.T
    assert np.allclose(gram, np.diag([-1.0, 1.0, 1.0]), atol=1e-10)
    assert abs(frame_gram_det(m, x, v, E) + 1.0) < 1e-10
    with pytest.raises(ValueError):
        build_frame(m, x, 2.0 * v)


@pytest.mark.parametrize("route", ["variational", "curvature"])
def test_minkowski_path_is_linear(route):
    m = model_library("minkowski", n=2)
    x0 = np.zeros(3)
    v0 = unit(m, x0, np.array([1.0, 0.3, -0.2]))
    make = jacobi_variational if route == "variational" else jacobi_curvature
    path = make(m, x0, v0, 4.0)
    ts = np.array([0.5, 1.7, 3.2, 4.0])
    s = path.sample(ts)
    want = ts[:, None, None] * np.eye(2)
    assert np.max(np.abs(s.A - want)) < 1e-8
    assert np.max(np.abs(s.Adot - np.eye(2))) < 1e-8
    assert np.allclose(s.detA, ts**2, atol=1e-8)


@pytest.mark.parametrize("route", ["variational", "curvature"])
def test_degenerate_base_point_is_named_before_any_frame(route):
    # a = 1 - x0/2 vanishes at the apex, where no g-orthonormal frame exists
    m = model_library("flrw", n=1, scale="affine", a0=1.0, q=-0.5)
    make = jacobi_variational if route == "variational" else jacobi_curvature
    with pytest.raises(DegenerateMetricError, match="conditioning margin .* at the base point"):
        make(m, np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0)


def test_constant_flag_closed_form_both_routes():
    H = 0.5
    m = model_library("flrw", n=2, scale="exp", H=H)
    x0 = np.array([0.2, 0.1, -0.3])
    v0 = unit(m, x0, np.array([1.0, 0.25, 0.1]))
    ts = np.linspace(0.2, 2.0, 7)
    want = (np.sinh(H * ts) / H)[:, None, None] * np.eye(2)
    for make in (jacobi_variational, jacobi_curvature):
        s = make(m, x0, v0, 2.0).sample(ts)
        assert np.max(np.abs(s.A - want)) < 1e-7
        assert np.max(np.abs(s.Adot - np.cosh(H * ts)[:, None, None] * np.eye(2))) < 1e-7


def test_lobatto_interpolant_matches_scipy_barycentric():
    from scipy.interpolate import BarycentricInterpolator
    t_end = 2.3
    t_nodes = 0.5 * t_end * (1.0 - np.cos(np.linspace(0.0, np.pi, CURVATURE_NODES)))
    values = np.stack([np.cos(1.7 * t_nodes), np.exp(-t_nodes), t_nodes ** 3 - t_nodes,
                       1.0 / (1.0 + t_nodes ** 2)], axis=1)
    ours = _lobatto_interpolant(t_nodes, values)
    ref = BarycentricInterpolator(t_nodes, values)
    for t in np.linspace(0.0, t_end, 997):
        assert np.max(np.abs(ours(t) - ref(t))) <= 1e-13 * np.max(np.abs(ref(t)))
    for j, t in enumerate(t_nodes):
        assert np.array_equal(ours(t), values[j])


def test_route_agreement_on_anisotropic_model():
    m = model_library("quartic_flrw", n=2, eps=0.25, H=0.35)
    x0 = np.array([0.1, 0.2, -0.1])
    v0 = unit(m, x0, np.array([1.0, 0.3, 0.15]))
    ts = np.linspace(0.1, 1.0, 10)
    sv = jacobi_variational(m, x0, v0, 1.0).sample(ts)
    curv = jacobi_curvature(m, x0, v0, 1.0)
    sc = curv.sample(ts)
    assert np.max(np.abs(sv.A - sc.A)) < 1e-5
    assert np.max(np.abs(sv.Adot - sc.Adot)) < 1e-5
    with pytest.raises(ValueError, match="variational path"):   # its flow has no Jacobi rows
        riccati_quantities(curv, ts)


def test_boosted_circle_determinant_and_conjugate_zero():
    m, x0, v0, K0 = boosted_circle()
    # the variational flow stops at its located conjugate point, t* = pi / sqrt(K0)
    E = build_frame(m, x0, v0)
    flow = radial_flow(m, x0, v0[None], 4.6, frames=E[None],
                       jac_seeds=(np.zeros((1, 3, 2)), E.T[None].copy()), post_scan=True)
    assert flow.exit_reason == [CONJUGATE_POINT]
    t_star = flow.t_reached[0]
    assert abs(t_star - np.pi / np.sqrt(K0)) < 1e-6
    path = JacobiPath(model=m, x0=x0, v0=v0, frame0=E, t_end=t_star,
                      route="variational", flow=flow)
    ts = np.linspace(0.3, t_star, 15)
    want = ts * np.sin(np.sqrt(K0) * ts) / np.sqrt(K0)
    assert np.max(np.abs(path.sample(ts).detA - want)) < 1e-6
    # determinant vanishes at the conjugate time, A' covers the kernel
    s = path.sample(np.array([t_star]))
    assert abs(s.detA[0]) < 1e-5
    stacked = np.concatenate([s.A[0], s.Adot[0]], axis=0)
    assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-3


def test_dexp_identity_against_finite_differences():
    m = model_library("flrw", n=2, scale="cosh", omega=0.8)
    x0 = np.array([0.1, -0.2, 0.3])
    v0 = unit(m, x0, np.array([1.0, 0.3, -0.1]))
    t1 = 1.7
    path = jacobi_variational(m, x0, v0, t1)
    s = path.sample(np.array([t1]))

    def dexp(seed):
        def diff(eps):
            return (integrate_geodesic(m, x0, v0 + eps * seed, t1).position(t1)
                    - integrate_geodesic(m, x0, v0 - eps * seed, t1).position(t1)) / (2 * eps)
        d1, d2 = diff(1e-5), diff(5e-6)
        return (4 * d2 - d1) / 3  # = (d exp)_{t1 v}(t1 seed)

    g = fundamental_tensor(m, s.x[0], s.v[0])
    A_fd = np.array([[s.E[0, k] @ g @ dexp(e) for e in path.frame0]
                     for k in range(2)])
    assert np.max(np.abs(A_fd - s.A[0])) < 1e-5
    assert abs(t1**-2 * np.linalg.det(A_fd) - t1**-2 * s.detA[0]) < 1e-5


def test_parallel_frame_gram_drift_small():
    m = model_library("quartic_flrw", n=2, eps=0.25, H=0.35)
    x0 = np.array([0.1, 0.2, -0.1])
    v0 = unit(m, x0, np.array([1.0, 0.3, 0.15]))
    path = jacobi_variational(m, x0, v0, 1.5)
    assert path.gram_drift(np.linspace(0.0, 1.5, 20)) < 1e-8


def test_frame_gram_of_jacobi_columns():
    m = model_library("quartic_flrw", n=2, eps=0.25, H=0.35)
    x0 = np.array([0.1, 0.2, -0.1])
    v0 = unit(m, x0, np.array([1.0, 0.3, 0.15]))
    path = jacobi_variational(m, x0, v0, 1.5)
    ts = np.linspace(0.2, 1.5, 6)
    s = path.sample(ts)
    st = path.flow.eval(0, ts)
    g = fundamental_tensor(m, s.x, s.v)
    B_frame = np.swapaxes(s.A, -1, -2) @ s.A
    B_coord = np.einsum("...di,...de,...ej->...ij", st["J"], g, st["J"])
    assert np.max(np.abs(B_frame - B_coord)) < 1e-8
    assert np.max(np.abs(B_frame - np.swapaxes(B_frame, -1, -2))) < 1e-12


def test_s_kappa_anchor_values_and_ode():
    assert s_kappa(0.0, 2.0) == 2.0
    assert abs(s_kappa(1.0, np.pi / 2) - 1.0) < 1e-15
    assert abs(s_kappa(-1.0, 1.0) - np.sinh(1.0)) < 1e-12
    for kappa in (2.0, -3.0, 1e-12):
        t = np.linspace(0.05, 1.5, 200)
        h = t[1] - t[0]
        s = s_kappa(kappa, t)
        d2 = (s[2:] - 2 * s[1:-1] + s[:-2]) / h**2
        # O(h^2 kappa^2 s) stencil bias
        tol = 1e-5 * max(1.0, kappa**2 * float(np.max(np.abs(s))))
        assert np.max(np.abs(d2 + kappa * s[1:-1])) < tol
        d1 = (s[2:] - s[:-2]) / (2 * h)
        assert np.max(np.abs(d1 - s_kappa_prime(kappa, t[1:-1]))) < tol * 20
    # tiny argument: series branch stays on the curve
    assert abs(s_kappa(1e-9, 3e-3) - 3e-3) < 1e-15


WEIGHT = [("linear_x0", 0.6), ("boost_ratio", 0.3)]


def scalars_on(m, x0_raw, v_raw, t_end, npts=160):
    x0 = np.asarray(x0_raw, dtype=float)
    v0 = unit(m, x0, np.asarray(v_raw, dtype=float))
    path = jacobi_variational(m, x0, v0, t_end)
    ts = sample_grid(t_end, npts)
    return riccati_quantities(path, ts)


def test_riccati_inequality_and_derivative_identity():
    m = model_library("quartic_flrw", n=2, eps=0.25, H=0.35, weight=WEIGHT)
    scal = scalars_on(m, [0.1, 0.2, -0.1], [1.0, 0.3, 0.15], 1.4)
    assert check_riccati(scal) <= 1e-10
    # lam' identity vs finite differences of lam on the uniform tail
    ts = np.linspace(0.7, 1.4, 141)
    path = jacobi_variational(m, np.array([0.1, 0.2, -0.1]),
                              unit(m, [0.1, 0.2, -0.1], [1.0, 0.3, 0.15]), 1.4)
    sc = riccati_quantities(path, ts)
    fd = np.gradient(sc.lam, ts)
    assert np.max(np.abs(fd[2:-2] - sc.lam_prime[2:-2])) < 5e-4
    # Minkowski saturates the trace inequality exactly
    m0 = model_library("minkowski", n=2)
    scal0 = scalars_on(m0, [0.0, 0.0, 0.0], [1.0, 0.2, -0.3], 3.0)
    assert np.max(np.abs(scal0.lam - 2.0 / scal0.ts)) < 1e-8
    assert abs(check_riccati(scal0)) < 1e-10


def test_weighted_density_identities():
    m = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    scal = scalars_on(m, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2], 2.0)
    for N in (5.0, -3.0):
        h, h1, h2 = weighted_density(scal, N)
        assert np.all(np.isfinite(h)) and np.all(h > 0)
        assert np.max(np.abs(h**N - np.exp(-scal.psi) * scal.detA)) < 1e-10
        # derivative paths against finite differences on a uniform grid
        ts = np.linspace(0.9, 1.9, 201)
        path = jacobi_variational(m, np.array([0.2, 0.0, 0.1]),
                                  unit(m, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2]), 2.0)
        su = riccati_quantities(path, ts)
        hu, hu1, hu2 = weighted_density(su, N)
        assert np.max(np.abs(np.gradient(hu, ts)[2:-2] - hu1[2:-2])) < 2e-5
        assert np.max(np.abs(np.gradient(hu1, ts)[2:-2] - hu2[2:-2])) < 2e-4
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            weighted_density(scal, bad)


def test_density_inequality_and_negative_control():
    m = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    scal = scalars_on(m, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2], 2.0)
    for N in (5.0, -3.0):
        ric_N = scal.ric + scal.d2psi - scal.dpsi**2 / (N - 2)
        c = float(np.min(ric_N))
        assert check_hric(scal, c, N) <= 1e-8
        # exact threshold: residual flips sign just above it
        h, _, h2 = weighted_density(scal, N)
        c_star = float(np.max(-N * h2 / h))
        assert check_hric(scal, c_star + 0.01 * (1 + abs(c_star)), N) > 0
    # unweighted straight line: h = t^{n/N} is concave for N > n, c = 0
    m0 = model_library("minkowski", n=2)
    scal0 = scalars_on(m0, [0.0, 0.0, 0.0], [1.0, 0.2, -0.3], 3.0)
    assert check_hric(scal0, 0.0, 5.0) <= 1e-12


def test_sc_comparison_inequality():
    # unweighted: residual of [s_c^2 (lam - lam_c)]' <= s_c^2 psi'' with
    # c from the sampled Ricci bound
    m = model_library("flrw", n=2, scale="cosh", omega=0.7)
    scal = scalars_on(m, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2], 2.0)
    c = float(np.min(scal.ric + scal.d2psi)) / 2
    assert check_eq_sc(scal, c) <= 1e-8
    # weighted variant
    mw = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    sw = scalars_on(mw, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2], 2.0)
    cw = float(np.min(sw.ric + sw.d2psi)) / 2
    assert check_eq_sc(sw, cw) <= 1e-8
    # Minkowski unweighted with c = 0: lam = lam_c = n/t identically
    m0 = model_library("minkowski", n=2)
    s0 = scalars_on(m0, [0.0, 0.0, 0.0], [1.0, 0.2, -0.3], 3.0)
    assert abs(check_eq_sc(s0, 0.0)) < 1e-9
    with pytest.raises(ValueError):
        check_eq_sc(s0, (np.pi / 3.0) ** 2)  # range crosses the zero of s_c


def test_concavity_check_used_by_ball_bound():
    m = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    scal = scalars_on(m, [0.2, 0.0, 0.1], [1.0, 0.4, -0.2], 2.0)
    c = float(np.min(scal.ric + scal.d2psi))
    assert check_concavity(scal, c) <= 1e-8
    # inflating c past the exact threshold must break the check
    c_star = float(np.max(scal.d2psi - scal.lam_prime))
    assert check_concavity(scal, c_star + 0.3) > 0.29


def test_gunther_density_ratio():
    # constant-flag model: K = -H^2 exactly, so f = det A / s_{H^2-flag...}
    H = 0.5
    m = model_library("flrw", n=2, scale="exp", H=H)
    scal = scalars_on(m, [0.2, 0.1, -0.3], [1.0, 0.25, 0.1], 2.0)
    f = gunther_f(scal, H**2)
    assert np.max(np.abs(f - 1.0)) < 1e-7
    assert np.min(f) >= 1.0 - 1e-6
    # positive tangential flags: c = 0 bound must fail (detA < t^n)
    mb, x0, v0, K0 = boosted_circle()
    pb = jacobi_variational(mb, x0, v0, 3.0)
    sb = riccati_quantities(pb, sample_grid(3.0, 120))
    assert np.min(gunther_f(sb, 0.0)) < 1.0 - 1e-3
    with pytest.raises(ValueError):
        gunther_f(sb, -1.0)


def test_monotone_ratio_check_basics():
    ts = np.linspace(0.1, 2.0, 50)
    same = monotone_ratio_check(ts, ts**2, ts**2)
    assert same["pointwise_ok"] and same["integral_ok"]
    dec = monotone_ratio_check(ts, ts**0.5, ts)  # ratio t^{-1/2} decreasing
    assert dec["pointwise_ok"] and dec["integral_ok"]
    inc = monotone_ratio_check(ts, ts**2, ts)
    assert not inc["pointwise_ok"] and not inc["integral_ok"]
    # a stack of rows is checked at once: the per-row verdicts and/or-ed, the
    # per-row worst steps maxed, bit for bit
    rows = [ts**0.5, ts**2, ts**0.25]
    fan = monotone_ratio_check(ts, np.stack(rows), ts)
    each = [monotone_ratio_check(ts, r, ts) for r in rows]
    for key in ("pointwise_ok", "integral_ok"):
        assert fan[key] is all(e[key] for e in each)
    for key in ("max_step", "max_integral_step"):
        assert fan[key] == max(e[key] for e in each)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=25),
       st.lists(st.floats(0.0, 0.5), min_size=3, max_size=25))
def test_integral_ratio_inherits_monotonicity(gs, drops):
    k = min(len(gs), len(drops))
    ts = np.linspace(0.1, 1.0, k)
    g = np.array(gs[:k])
    ratio = np.cumprod(1.0 - np.array(drops[:k]) / 2)  # non-increasing, positive
    f = ratio * g
    out = monotone_ratio_check(ts, f, g)
    assert out["pointwise_ok"] and out["integral_ok"]


def test_batched_scalars_match_per_path():
    m = model_library("flrw", n=2, scale="cosh", omega=0.7, weight=WEIGHT)
    x0 = np.array([0.2, 0.0, 0.1])
    dirs = np.array([unit(m, x0, [1.0, 0.4, -0.2]), unit(m, x0, [1.0, -0.3, 0.1])])
    paths = variational_paths(m, x0, dirs, 2.0)
    ts = sample_grid(2.0, 60)
    batched = scalars_for_paths(paths[0].flow, np.arange(len(paths)), ts)
    assert batched.detA.shape == (len(paths), ts.size) and batched.flag_min.shape == (len(paths),)
    for i, p in enumerate(paths):
        single = riccati_quantities(p, ts)
        for field in ("detA", "lam", "trC2", "psi", "dpsi", "d2psi"):
            assert np.allclose(getattr(single, field), getattr(batched, field)[i],
                               rtol=1e-12, atol=1e-12)
        # ric differs at the FD-step level (step scales with the batch)
        for field in ("ric", "lam_prime"):
            assert np.allclose(getattr(single, field), getattr(batched, field)[i],
                               rtol=1e-9, atol=1e-9)


def test_validity_violation_is_reported():
    m = model_library("flrw", n=2, scale="affine", a0=1.0, q=-0.25)
    x0 = np.zeros(3)
    v0 = np.array([1.0, 0.0, 0.0])  # metric degenerates at t = 4
    with pytest.raises(ValueError, match="leaves validity"):
        jacobi_variational(m, x0, v0, 8.0)
