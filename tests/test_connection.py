"""Connection pipeline vs hand-derived Christoffels and finite differences.

The warped-product family -(v0)^2 + a(x0)^2 |v_s|^2 has closed-form
connection coefficients

    Gamma~^0_ij = a a' delta_ij,   Gamma~^i_0j = (a'/a) delta_ij,

(all others zero), giving G^0 = a a' |v_s|^2 and G^i = 2 (a'/a) v^0 v^i.
These anchor the jet pipeline; everything else is checked against
central differences with Richardson extrapolation or against identities
(Euler contraction N v = G, homogeneity degrees, quadratic models having
Chern == formal Christoffel).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfgeom import connection, jets
from lfgeom.connection import (
    DegenerateMetricError,
    chern_gamma,
    covariant_derivative,
    eval_connection,
    gamma_tilde,
    ldl_apply,
    ldl_factor,
    nonlinear_connection,
    spray,
)
from lfgeom.models import CausalityError, fundamental_tensor, model_library


def richardson_dir(f, x, e, h):
    """Directional derivative of array-valued f with two-step Richardson."""
    def central(hh):
        return (f(x + hh * e) - f(x - hh * e)) / (2.0 * hh)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def warped_gamma_oracle(a, adot, d):
    out = np.zeros((d, d, d))
    for i in range(1, d):
        out[0, i, i] = a * adot
        out[i, 0, i] = out[i, i, 0] = adot / a
    return out


# ------------------------------------------------------------ LDL^T core


def test_ldl_matches_dense_solve_on_float_batches():
    rng = np.random.default_rng(7)
    B, d = 16, 4
    q, _ = np.linalg.qr(rng.normal(size=(B, d, d)))
    eig = rng.uniform(0.5, 2.0, size=(B, d)) * rng.choice([-1.0, 1.0], size=(B, d))
    A = np.einsum("bij,bj,bkj->bik", q, eig, q)
    rhs = rng.normal(size=(B, d))
    fac = ldl_factor([[A[:, i, j] for j in range(d)] for i in range(d)])
    z = np.stack(ldl_apply(*fac, [rhs[:, i] for i in range(d)]), axis=-1)
    assert np.allclose(z, np.linalg.solve(A, rhs[:, :, None])[:, :, 0], atol=1e-10)


def test_ldl_roundtrip_on_jets():
    rng = np.random.default_rng(11)
    sp = jets.jetspace(2, 2)
    d = 3
    A = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            c = 0.1 * rng.normal(size=sp.ncoef_at[2])
            c[0] = (2.0 + i) if i == j else 0.3 * rng.normal()
            A[i][j] = A[j][i] = jets.Jet(sp, 2, c.copy())
    rhs = [jets.Jet(sp, 2, rng.normal(size=sp.ncoef_at[2])) for _ in range(d)]
    z = ldl_apply(*ldl_factor(A), list(rhs))
    for i in range(d):
        back = A[i][0] * z[0]
        for j in range(1, d):
            back = back + A[i][j] * z[j]
        assert np.allclose(back.coeffs, rhs[i].coeffs, atol=1e-12)


def test_ldl_degenerate_pivot_raises():
    ones = np.ones(())
    with pytest.raises(DegenerateMetricError):
        ldl_factor([[ones, ones], [ones, ones]])
    sp = jets.jetspace(1, 1)
    sing = jets.Jet(sp, 1, np.array([0.0, 1.0]))
    one = jets.constant(sp, 1.0, 1)
    with pytest.raises(DegenerateMetricError):
        ldl_factor([[one, one], [one, sing + one]])


# ------------------------------------------------------ closed-form anchors


def test_minkowski_everything_vanishes():
    m = model_library("minkowski", n=3)
    x = np.array([0.4, -1.0, 2.0, 0.3])
    v = np.array([1.3, 0.2, -0.4, 0.5])
    assert np.max(np.abs(gamma_tilde(m, x, v))) < 1e-14
    assert np.max(np.abs(chern_gamma(m, x, v))) < 1e-14
    c = eval_connection(m, x, v, order=4)
    for arr in (c.G, c.N, nonlinear_connection(m, x, v), c.dG_dx):
        assert np.max(np.abs(arr)) < 1e-14


@pytest.mark.parametrize(
    "kwargs,a_of,adot_of",
    [
        ({"scale": "exp", "H": 0.5}, lambda t: np.exp(0.5 * t), lambda t: 0.5 * np.exp(0.5 * t)),
        ({"scale": "cosh", "omega": 0.8}, lambda t: np.cosh(0.8 * t), lambda t: 0.8 * np.sinh(0.8 * t)),
        ({"scale": "affine", "a0": 1.2, "q": 0.3}, lambda t: 1.2 + 0.3 * t, lambda t: 0.3 * np.ones_like(t)),
    ],
)
def test_flrw_christoffels_match_hand_formula(kwargs, a_of, adot_of):
    m = model_library("flrw", n=2, **kwargs)
    t0 = 0.3
    x = np.array([t0, 0.7, -0.2])
    v = np.array([1.0, 0.2, 0.1])
    got = gamma_tilde(m, x, v)
    want = warped_gamma_oracle(a_of(t0), adot_of(t0), 3)
    assert np.allclose(got, want, atol=1e-10)


def test_flrw_spray_closed_form():
    H = 0.5
    m = model_library("flrw", n=3, scale="exp", H=H)
    x = np.array([0.2, 0.0, 1.0, -0.5])
    v = np.array([1.0, 0.4, -0.1, 0.25])
    S = np.sum(v[1:] ** 2)
    G = spray(m, x, v)
    assert np.allclose(G[0], H * np.exp(2 * H * x[0]) * S, atol=1e-12)
    assert np.allclose(G[1:], 2 * H * v[0] * v[1:], atol=1e-12)


# -------------------------------------------------- finite-difference oracles


def test_gamma_tilde_against_fd_metric_slopes():
    # spatially varying quadratic model; dg/dx probed by central differences
    m = model_library("einstein_static", n=2, radius=1.0)
    x = np.array([0.0, 0.3, -0.2])
    v = np.array([1.0, 0.25, 0.35])
    d = 3
    dgdx = np.stack(
        [richardson_dir(lambda y: fundamental_tensor(m, y, v), x, np.eye(d)[c], 1e-4)
         for c in range(d)])
    g = fundamental_tensor(m, x, v)
    P1 = np.einsum("bdg->dbg", dgdx)
    P2 = np.einsum("gbd->dbg", dgdx)
    want = 0.5 * np.einsum("ad,dbg->abg", np.linalg.inv(g), P1 + P2 - dgdx)
    assert np.allclose(gamma_tilde(m, x, v), want, atol=1e-8)


def test_spray_gradients_against_fd():
    m = model_library("quartic_flrw", n=3, eps=0.3, H=0.4)
    x = np.array([0.15, 0.2, -0.1, 0.3])
    v = np.array([1.2, 0.3, -0.25, 0.1])
    d = 4
    c = eval_connection(m, x, v, order=4)
    fd_dGdx = np.stack(
        [richardson_dir(lambda y: spray(m, y, v), x, np.eye(d)[b], 1e-4) for b in range(d)],
        axis=-1)
    fd_N = 0.5 * np.stack(
        [richardson_dir(lambda w: spray(m, x, w), v, np.eye(d)[b], 1e-4) for b in range(d)],
        axis=-1)
    assert np.allclose(c.dG_dx, fd_dGdx, atol=1e-6)
    assert np.allclose(c.N, fd_N, atol=1e-6)


def test_metric_slopes_against_fd():
    m = model_library("quartic_flrw", n=2, eps=0.25, H=0.3)
    x = np.array([0.1, -0.4, 0.2])
    v = np.array([1.1, 0.3, -0.2])
    d = 3
    c = eval_connection(m, x, v, order=3)
    for b in range(d):
        fd_x = richardson_dir(lambda y: fundamental_tensor(m, y, v), x, np.eye(d)[b], 1e-4)
        fd_v = richardson_dir(lambda w: fundamental_tensor(m, x, w), v, np.eye(d)[b], 1e-4)
        assert np.allclose(c.dg_dx[b], fd_x, atol=1e-8)
        assert np.allclose(c.dg_dv[b], fd_v, atol=1e-8)


# ------------------------------------------------------ structural identities


MODEL_POINTS = [
    (model_library("flrw", n=2, scale="cosh", omega=0.7),
     np.array([0.25, 0.1, -0.3]), np.array([1.4, 0.3, -0.35])),
    (model_library("quartic_finsler", n=2, eps=0.4),
     np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.45, -0.2])),
    (model_library("quartic_flrw", n=3, eps=0.3, H=0.4),
     np.array([0.15, 0.2, -0.1, 0.3]), np.array([1.2, 0.3, -0.25, 0.1])),
    (model_library("einstein_static", n=2, radius=1.3),
     np.array([0.0, 0.3, -0.2]), np.array([1.0, 0.25, 0.35])),
]


@pytest.mark.parametrize("m,x,v", MODEL_POINTS, ids=lambda p: getattr(p, "name", None))
def test_euler_contraction_and_transport_reduction(m, x, v):
    c = eval_connection(m, x, v, order=4)
    scale = 1.0 + np.max(np.abs(c.G))
    assert np.max(np.abs(c.N @ v - c.G)) < 1e-9 * scale
    assert np.max(np.abs(nonlinear_connection(m, x, v) @ v - c.G)) < 1e-9 * scale
    # the Chern transport matrix Gamma^a_bc(v) v^b is N: flows transport with c.N
    full = np.einsum("abg,b->ag", chern_gamma(m, x, v), v)
    assert np.allclose(c.N, full, atol=1e-10 * scale)


@given(lam=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=25, deadline=None)
def test_spray_and_connection_homogeneity(lam):
    m = model_library("quartic_flrw", n=2, eps=0.3, H=0.4)
    x = np.array([0.1, -0.2, 0.4])
    v = np.array([1.1, 0.35, -0.2])
    c1 = eval_connection(m, x, v, order=4)
    c2 = eval_connection(m, x, lam * v, order=4)
    assert np.allclose(c2.G, lam**2 * c1.G, rtol=1e-9, atol=1e-12)
    assert np.allclose(c2.N, lam * c1.N, rtol=1e-9, atol=1e-12)
    assert np.allclose(nonlinear_connection(m, x, lam * v),
                       lam * nonlinear_connection(m, x, v), rtol=1e-9, atol=1e-12)


def test_chern_equals_gamma_tilde_for_quadratic_models():
    for name, kwargs in [("minkowski", {}), ("flrw", {"scale": "exp", "H": 0.6}),
                         ("einstein_static", {"radius": 1.1})]:
        m = model_library(name, n=2, **kwargs)
        x = np.array([0.2, 0.3, -0.1])
        v = np.array([1.2, 0.4, -0.3])
        gt = gamma_tilde(m, x, v)
        ch = chern_gamma(m, x, v)
        assert np.max(np.abs(ch - gt)) < 1e-13 * (1.0 + np.max(np.abs(gt)))


def test_chern_differs_from_gamma_tilde_when_cartan_active():
    m = model_library("quartic_flrw", n=3, eps=0.3, H=0.5)
    x = np.array([0.2, 0.1, -0.3, 0.05])
    v = np.array([1.0, 0.35, -0.2, 0.1])
    gt = gamma_tilde(m, x, v)
    ch = chern_gamma(m, x, v)
    assert np.max(np.abs(ch - gt)) > 1e-4
    assert np.all(np.isfinite(ch))


# ------------------------------------------------- order 5: outer derivatives of N


ORDER5_MODELS = [
    (model_library("minkowski", n=2), np.array([0.4, -1.0, 2.0]), np.array([1.3, 0.2, -0.4])),
    (model_library("flrw", n=2, scale="affine", a0=1.2, q=0.3,
                   weight=[("const", 0.2), ("linear_x0", 0.8), ("boost_ratio", 0.45)]),
     np.array([0.1, 0.3, -0.2]), np.array([1.2, 0.3, 0.1])),
    *MODEL_POINTS,
    (model_library("einstein_static", n=3, radius=1.0),
     np.array([0.1, 0.3, -0.2, 0.25]), np.array([1.0, 0.25, 0.35, -0.1])),
]


@pytest.mark.parametrize("m,x,v", ORDER5_MODELS, ids=lambda p: getattr(p, "name", None))
def test_order5_dN_matches_richardson_of_N(m, x, v):
    d = m.dim
    c = eval_connection(m, x, v, order=5)
    hx = 1e-4 * (1.0 + np.max(np.abs(x)))
    hv = 1e-4 * (1.0 + np.max(np.abs(v)))
    fd_x = np.stack([richardson_dir(lambda y: nonlinear_connection(m, y, v), x, np.eye(d)[k], hx)
                     for k in range(d)])
    fd_v = np.stack([richardson_dir(lambda w: nonlinear_connection(m, x, w), v, np.eye(d)[k], hv)
                     for k in range(d)])
    for got, want in ((c.dN_dx, fd_x), (c.dN_dv, fd_v)):
        assert got.shape == (d, d, d)
        assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(got)))


@pytest.mark.parametrize("m,x,v", ORDER5_MODELS, ids=lambda p: getattr(p, "name", None))
def test_order5_keeps_lower_fields_bit_identical(m, x, v):
    rng = np.random.default_rng(5)
    X = x + 0.05 * rng.uniform(-1.0, 1.0, size=(7, m.dim))
    V = v + 0.05 * rng.uniform(-1.0, 1.0, size=(7, m.dim))
    c4 = eval_connection(m, X, V, order=4)
    c5 = eval_connection(m, X, V, order=5)
    for field in ("L", "g", "ginv", "dg_dx", "dg_dv", "G", "N", "dG_dx"):
        assert np.array_equal(getattr(c4, field), getattr(c5, field)), field
    assert c4.dN_dx is None and c4.dN_dv is None
    # the volumes' route to g, order-2 jets in v alone: a few ulp, since the two
    # recorded programs round in different orders
    g = fundamental_tensor(m, X, V)
    assert np.max(np.abs(g - c4.g)) <= 4 * np.spacing(np.max(np.abs(c4.g)))


def test_order_outside_2_to_5_is_rejected():
    m = model_library("minkowski", n=2)
    x, v = np.zeros(3), np.array([1.0, 0.1, 0.0])
    for order in (1, 2, 6):   # the fundamental tensor alone is models.fundamental_tensor
        with pytest.raises(ValueError):
            eval_connection(m, x, v, order=order)


# -------------------------------------------------------- covariant derivative


def _sample_field(x):
    return [jets.sin(x[1]), x[0] * x[2], jets.exp(0.3 * x[0])]


def test_covariant_derivative_constant_field_is_pure_connection_term():
    m = model_library("einstein_static", n=2, radius=1.0)
    x = np.array([0.0, 0.3, -0.2])
    v = np.array([1.0, 0.25, 0.35])
    w = np.array([1.3, -0.1, 0.2])
    X0 = np.array([0.7, -0.4, 1.1])

    def const_field(xj):
        return [jets.constant(xj[0].space, X0[k], xj[0].order) for k in range(3)]

    got = covariant_derivative(m, const_field, x, v, w)
    want = np.einsum("abg,b,g->a", chern_gamma(m, x, w), v, X0)
    assert np.allclose(got, want, atol=1e-12)


def test_covariant_derivative_against_fd_directional():
    m = model_library("einstein_static", n=2, radius=1.0)
    x = np.array([0.0, 0.3, -0.2])
    v = np.array([1.0, 0.25, 0.35])
    w = np.array([1.3, -0.1, 0.2])

    def field_vals(y):
        return np.stack(_sample_field([y[..., k] for k in range(3)]), axis=-1)

    fd = richardson_dir(field_vals, x, v, 1e-4)
    want = fd + np.einsum("abg,b,g->a", chern_gamma(m, x, w), v, field_vals(x))
    got = covariant_derivative(m, _sample_field, x, v, w)
    assert np.allclose(got, want, atol=1e-8)


# ------------------------------------------------------------- housekeeping


def test_batched_pipeline_matches_single_points():
    m = model_library("quartic_flrw", n=2, eps=0.3, H=0.4)
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.uniform(-0.3, 0.3, size=(2, 3, 2)),
                        rng.uniform(-0.3, 0.3, size=(2, 3, 1))], axis=-1)
    V = np.concatenate([rng.uniform(1.0, 1.5, size=(2, 3, 1)),
                        rng.uniform(-0.3, 0.3, size=(2, 3, 2))], axis=-1)
    cb = eval_connection(m, X, V, order=4)
    for i in range(2):
        for j in range(3):
            cs = eval_connection(m, X[i, j], V[i, j], order=4)
            for field in ("L", "g", "ginv", "dg_dx", "dg_dv", "G", "N", "dG_dx"):
                assert np.allclose(getattr(cb, field)[i, j], getattr(cs, field),
                                   rtol=1e-13, atol=1e-13)


def _count_factorizations(monkeypatch):
    calls = []
    for name in ("ldl_factor", "_ldl"):
        def counting(*args, _name=name, _fn=getattr(connection, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(connection, name, counting)
    return calls


@pytest.mark.parametrize("order", [3, 4, 5])
def test_reading_only_G_never_factors_g(monkeypatch, order):
    m = model_library("flrw", n=2, scale="cosh", omega=0.7)
    x, v = np.array([0.25, 0.1, -0.3]), np.array([[1.4, 0.3, -0.35], [1.1, -0.2, 0.1]])
    eval_connection(m, x, v, order)  # records the program
    calls = _count_factorizations(monkeypatch)
    c = eval_connection(m, x, v, order, validate=False)
    assert c.G.shape == (2, 3)
    assert calls == []
    # ginv: computed on first read, once
    ginv, N = c.ginv, c.N
    assert calls == ["_ldl"]
    assert c.ginv is ginv and c.N is N and calls == ["_ldl"]
    assert np.allclose(ginv @ c.g, np.eye(3), atol=1e-12)


def test_pipeline_rejects_non_timelike_reference():
    m = model_library("minkowski", n=2)
    x = np.zeros(3)
    with pytest.raises(CausalityError):
        eval_connection(m, x, np.array([0.3, 1.0, 0.0]))
    with pytest.raises(CausalityError):
        eval_connection(m, x, np.array([-1.0, 0.1, 0.0]))
