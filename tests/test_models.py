"""Metric-layer checks: Hessian oracle, homogeneity, causal classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfgeom.models import (
    CausalityError,
    classify,
    fundamental_tensor,
    lagrangian,
    lorentz_norm,
    make_weight,
    model_library,
    signature_check,
    weight,
    WEIGHT_TERMS,
)

RNG = np.random.default_rng(42)


def fd_hessian(f, v, h=1e-4):
    """Central-difference Hessian with one Richardson step."""
    d = len(v)

    def hess(step):
        H = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                ea = np.eye(d)[a] * step
                eb = np.eye(d)[b] * step
                H[a, b] = (
                    f(v + ea + eb) - f(v + ea - eb) - f(v - ea + eb) + f(v - ea - eb)
                ) / (4 * step * step)
        return H

    return (4 * hess(h / 2) - hess(h)) / 3


def random_future_timelike(m, batch=1, speed=0.8):
    v = RNG.uniform(-1, 1, size=(batch, m.dim))
    v[:, 0] = 1.0
    v[:, 1:] *= speed / np.maximum(np.linalg.norm(v[:, 1:], axis=1, keepdims=True), 1e-12)
    v[:, 1:] *= RNG.uniform(0.1, 1.0, size=(batch, 1))
    return v


# ------------------------------------------------------------------ tensor


def test_minkowski_tensor_is_eta():
    m = model_library("minkowski", n=3)
    v = np.array([1.0, 0.2, -0.3, 0.1])
    g = fundamental_tensor(m, np.zeros(4), v)
    assert np.allclose(g, np.diag([-1.0, 1, 1, 1]), atol=1e-14)


def test_quartic_tensor_matches_fd_hessian():
    m = model_library("quartic_finsler", n=2, eps=0.05)
    x = np.zeros(3)
    for _ in range(5):
        v = random_future_timelike(m)[0]
        g = fundamental_tensor(m, x, v)
        H = 0.5 * fd_hessian(lambda u: lagrangian(m, x, u), v)
        assert np.allclose(g, H, atol=1e-6)
        assert np.allclose(g, g.T, atol=1e-14)


def test_tensor_contract_recovers_lagrangian():
    # g_v(v, v) = L(v) for 2-homogeneous L
    for name, kw in [
        ("minkowski", {}),
        ("flrw", {"scale": "exp", "H": 0.1}),
        ("quartic_finsler", {"eps": 0.05}),
        ("quartic_flrw", {"eps": 0.05, "H": 0.1}),
        ("einstein_static", {"radius": 1.0}),
    ]:
        m = model_library(name, n=2, **kw)
        x = RNG.uniform(-0.5, 0.5, size=(40, 3))
        v = random_future_timelike(m, batch=40)
        g = fundamental_tensor(m, x, v)
        got = np.einsum("bij,bi,bj->b", g, v, v)
        assert np.allclose(got, lagrangian(m, x, v), atol=1e-10)


def test_tensor_zero_homogeneous_in_v():
    m = model_library("quartic_finsler", n=2, eps=0.05)
    x = np.zeros(3)
    v = random_future_timelike(m, batch=20)
    c = RNG.uniform(0.5, 3.0, size=(20, 1))
    assert np.allclose(
        fundamental_tensor(m, x, v), fundamental_tensor(m, x, c * v), atol=1e-10
    )


def test_quartic_tensor_direction_dependent():
    m = model_library("quartic_finsler", n=2, eps=0.05)
    x = np.zeros(3)
    g1 = fundamental_tensor(m, x, np.array([1.0, 0.5, 0.0]))
    g2 = fundamental_tensor(m, x, np.array([1.0, 0.0, 0.5]))
    assert not np.allclose(g1, g2, atol=1e-6)


def test_flrw_tensor_position_dependent():
    m = model_library("flrw", n=2, scale="exp", H=0.1)
    v = np.array([1.0, 0.3, 0.0])
    g0 = fundamental_tensor(m, np.zeros(3), v)
    g1 = fundamental_tensor(m, np.array([1.0, 0.0, 0.0]), v)
    assert np.allclose(g0, np.diag([-1.0, 1.0, 1.0]), atol=1e-12)
    assert g1[1, 1] == pytest.approx(np.exp(0.2), rel=1e-12)


# --------------------------------------------------------------- signature


def test_signature_valid_on_small_eps_grid():
    m = model_library("quartic_finsler", n=2, eps=0.05)
    s = np.linspace(0.0, 0.9, 12)
    ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    S, A = np.meshgrid(s, ang)
    V = np.stack([np.ones_like(S), S * np.cos(A), S * np.sin(A)], axis=-1).reshape(-1, 3)
    ok, eig = signature_check(m, np.zeros(3), V)
    assert ok.all()
    assert (eig[:, 0] < 0).all() and (eig[:, 1] > 0).all()


def test_signature_fails_for_large_eps_near_cone():
    m = model_library("quartic_finsler", n=2, eps=4.0)
    th = np.linspace(0.0, np.pi / 2, 200)
    V = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
    ok, _ = signature_check(m, np.zeros(3), V)
    assert not ok.all()
    first = np.argmin(ok)
    # failure shows up in the near-cone sampling region, not deep inside
    assert abs(V[first, 0] - V[first, 1]) < 0.35


# ------------------------------------------------------------------ causal


def test_classify_examples():
    m = model_library("minkowski", n=3)
    x = np.zeros(4)
    assert classify(m, x, np.array([1.0, 0, 0, 0])) == "future-timelike"
    assert classify(m, x, np.array([-2.0, 0, 0, 0])) == "past-timelike"
    assert classify(m, x, np.array([1.0, 1.0, 0, 0])) == "future-lightlike"
    assert classify(m, x, np.array([0.5, 1.0, 0, 0])) == "spacelike"


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-3, 1e3), i=st.integers(0, 3))
def test_classify_scale_invariant(c, i):
    m = model_library("quartic_finsler", n=2, eps=0.05)
    x = np.zeros(3)
    vs = [
        np.array([1.0, 0.3, -0.2]),
        np.array([-1.0, 0.5, 0.1]),
        np.array([0.2, 1.0, 0.7]),
        np.array([1.0, 0.9, 0.43]),
    ]
    v = vs[i]
    assert classify(m, x, c * v) == classify(m, x, v)


def test_classify_rejects_zero():
    m = model_library("minkowski", n=2)
    with pytest.raises(ValueError):
        classify(m, np.zeros(3), np.zeros(3))


def test_lorentz_norm():
    m = model_library("minkowski", n=3)
    x = np.zeros(4)
    assert lorentz_norm(m, x, np.array([2.0, 1.0, 0, 0])) == pytest.approx(np.sqrt(3.0))
    v = np.array([1.0, 0.4, 0.1, -0.2])
    c = 2.7
    assert lorentz_norm(m, x, c * v) == pytest.approx(c * lorentz_norm(m, x, v), rel=1e-12)
    assert lorentz_norm(m, x, np.array([1.0, 1.0, 0, 0])) == 0.0
    with pytest.raises(CausalityError):
        lorentz_norm(m, x, np.array([0.1, 1.0, 0, 0]))


# ----------------------------------------------------------------- weights


def test_weight_terms():
    m = model_library(
        "minkowski", n=2, weight=[("const", 0.3), ("linear_x0", 0.5), ("boost_ratio", -0.2)]
    )
    x = np.array([2.0, 0.0, 0.0])
    v = np.array([1.0, 0.4, 0.0])
    assert weight(m, x, v) == pytest.approx(0.3 + 1.0 - 0.08)
    # zero-homogeneity in v
    assert weight(m, x, 3.7 * v) == pytest.approx(weight(m, x, v), rel=1e-14)


@pytest.mark.parametrize("terms", [None, *([(kind, 0.3)] for kind in WEIGHT_TERMS)])
def test_weight_has_the_batch_shape_for_every_kind(terms):
    # a constant weight too: one value per point, as a blocked reader concatenates them
    m = model_library("minkowski", n=2, weight=terms)
    x = RNG.uniform(-1.0, 1.0, size=(5, 3))
    v = np.column_stack([np.full(5, 2.0), RNG.uniform(-1.0, 1.0, size=(5, 2))])
    for xs, vs, shape in [(x, v, (5,)), (x[0], v, (5,)), (x[:, None], v, (5, 5)),
                          (x[0], v[0], ())]:
        psi = weight(m, xs, vs)
        assert isinstance(psi, np.ndarray) and psi.shape == shape
    psi = weight(m, x, v)
    assert all(psi[i] == weight(m, x[i], v[i]) for i in range(5))


def test_weight_defaults_to_zero():
    m = model_library("flrw", n=2, scale="cosh")
    assert weight(m, np.zeros(3), np.array([1.0, 0, 0])) == 0.0


def test_unknown_weight_term():
    with pytest.raises(ValueError):
        make_weight([("mystery", 1.0)])


# ----------------------------------------------------------------- library


def test_unknown_model_name():
    with pytest.raises(ValueError):
        model_library("schwarzschild", n=3)


def test_unused_params_rejected():
    with pytest.raises(ValueError):
        model_library("minkowski", n=2, bogus=3)


def test_euler_identity_library_wide():
    # v . dL/dv = 2 L for every library model at random future samples
    from lfgeom.jets import jetspace, lift, gradient
    from lfgeom.models import components

    for name, kw in [
        ("minkowski", {}),
        ("flrw", {"scale": "affine", "a0": 1.0, "q": 0.3}),
        ("quartic_finsler", {"eps": 0.05}),
        ("einstein_static", {"radius": 1.0}),
    ]:
        m = model_library(name, n=2, **kw)
        x = RNG.uniform(-0.4, 0.4, size=(30, 3))
        v = random_future_timelike(m, batch=30)
        sp = jetspace(m.dim, 1)
        vj = lift(sp, components(v, m.dim), active=[0, 1, 2])
        Lj = m.L_fn(components(x, m.dim), vj)
        dL = gradient(Lj)
        assert np.allclose(np.einsum("ib,bi->b", dL, v), 2 * Lj.value, atol=1e-9)
