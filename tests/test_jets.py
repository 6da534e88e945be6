"""Jet arithmetic against independent oracles.

The polynomial oracle differentiates monomial sums exactly (falling
factorials), the transcendental oracle uses Richardson-extrapolated
central differences.  Neither touches the jet tables.
"""

import math
import types
from itertools import product as iproduct

import numpy as np
import pytest
from scipy.sparse import csr_matrix as sp_csr
from hypothesis import given, settings
from hypothesis import strategies as st

from lfgeom import jets
from lfgeom.jets import (
    Jet,
    JetDomainError,
    OrderExceededError,
    constant,
    jet_derivative,
    jetspace,
    lift,
    partial,
)

RNG = np.random.default_rng(20260813)


# ---------------------------------------------------------------- oracles


def poly_eval(terms, x):
    """terms: list of (coeff, multi-index)."""
    return sum(c * np.prod([xi ** mi for xi, mi in zip(x, m)]) for c, m in terms)


def poly_partial_exact(terms, alpha, x):
    """Exact mixed partial of a monomial sum at x."""
    total = 0.0
    for c, m in terms:
        if any(mi < ai for mi, ai in zip(m, alpha)):
            continue
        factor = c
        for mi, ai in zip(m, alpha):
            factor *= math.perm(mi, ai)
        total += factor * np.prod([xi ** (mi - ai) for xi, mi, ai in zip(x, m, alpha)])
    return total


def fd_partial(f, x, alpha, h=1e-2):
    """Richardson-extrapolated central differences, one axis at a time."""

    def diff_once(g, axis, step):
        def d(pt):
            ep = np.zeros_like(pt)
            ep[axis] = step
            return (g(pt + ep) - g(pt - ep)) / (2 * step)

        return d

    g = f
    for axis, k in enumerate(alpha):
        for _ in range(k):
            g_h = diff_once(g, axis, h)
            g_h2 = diff_once(g, axis, h / 2)
            g = (lambda gh, gh2: lambda pt: (4 * gh2(pt) - gh(pt)) / 3)(g_h, g_h2)
    return g(np.asarray(x, dtype=float))


def random_poly(dim, deg, n_terms):
    terms = []
    for _ in range(n_terms):
        total = int(RNG.integers(0, deg + 1))
        m = [0] * dim
        for _ in range(total):
            m[int(RNG.integers(0, dim))] += 1
        terms.append((float(RNG.normal()), tuple(m)))
    return terms


def eval_poly_on_jets(terms, xs):
    acc = None
    for c, m in terms:
        term = c
        for xi, mi in zip(xs, m):
            for _ in range(mi):
                term = term * xi
        acc = term if acc is None else acc + term
    return acc


# ------------------------------------------------------------ polynomial


def test_polynomial_partials_match_exact_oracle():
    order = 4
    for _ in range(30):
        dim = int(RNG.integers(1, 7))
        sp = jetspace(dim, order)
        terms = random_poly(dim, order, n_terms=int(RNG.integers(1, 9)))
        x0 = RNG.uniform(-1.5, 1.5, size=dim)
        xs = lift(sp, x0, active=list(range(dim)))
        val = eval_poly_on_jets(terms, xs)
        if not isinstance(val, Jet):  # all-constant degenerate draw
            continue
        for alpha in sp.mindex:
            got = partial(val, alpha)
            want = poly_partial_exact(terms, alpha, x0)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_lift_seed_structure():
    sp = jetspace(2, 4)
    x, y = lift(sp, [2.0, 3.0], active=[0, 1])
    p = (x + y) * (x + y)
    assert partial(p, (0, 0)) == pytest.approx(25.0)
    assert partial(p, (1, 0)) == pytest.approx(10.0)
    assert partial(p, (1, 1)) == pytest.approx(2.0)
    assert partial(p, (2, 0)) == pytest.approx(2.0)
    assert partial(p, (3, 0)) == 0.0


def test_inactive_variables_stay_constant():
    sp = jetspace(1, 3)
    x, c = lift(sp, [1.5, 7.0], active=[0])
    f = x * c
    assert partial(f, (1,)) == pytest.approx(7.0)
    assert partial(f, (2,)) == 0.0


# -------------------------------------------------------- transcendental


def composite_a(x):
    return np.exp(np.sin(x[0] * x[1]) + 0.3 * x[2] ** 2)


def composite_a_jets(xs):
    return jets.exp(jets.sin(xs[0] * xs[1]) + 0.3 * xs[2] * xs[2])


def composite_b(x):
    return np.sqrt(1.0 + x[0] ** 2 + np.cosh(x[1])) / (2.0 + np.cos(x[0]))


def composite_b_jets(xs):
    return jets.sqrt(1.0 + xs[0] * xs[0] + jets.cosh(xs[1])) / (2.0 + jets.cos(xs[0]))


def composite_c(x):
    return np.sqrt(2.0 + np.exp(x[0]) * x[1]) * np.cosh(x[1])


def composite_c_jets(xs):
    return jets.sqrt(2.0 + jets.exp(xs[0]) * xs[1]) * jets.cosh(xs[1])


@pytest.mark.parametrize(
    "f, fj, dim, point",
    [
        (composite_a, composite_a_jets, 3, [0.4, -0.7, 0.9]),
        (composite_b, composite_b_jets, 2, [0.3, 0.8]),
        (composite_c, composite_c_jets, 2, [-0.2, 1.1]),
    ],
)
def test_transcendental_partials_match_fd(f, fj, dim, point):
    sp = jetspace(dim, 4)
    xs = lift(sp, point, active=list(range(dim)))
    val = fj(xs)
    for alpha in sp.mindex:
        if sum(alpha) > 3:  # FD noise grows with order; contract is 1e-6 relative
            continue
        got = partial(val, alpha)
        want = fd_partial(f, point, alpha)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


# ------------------------------------------------------------ identities


def test_algebraic_identities():
    sp = jetspace(3, 4)
    xs = lift(sp, [0.7, -0.4, 1.2], active=[0, 1, 2])
    s, c = jets.sin(xs[0]), jets.cos(xs[0])
    one = s * s + c * c
    assert np.allclose(one.coeffs[0], 1.0)
    assert np.allclose(one.coeffs[1:], 0.0, atol=1e-14)

    x = 2.0 + xs[1]
    assert np.allclose((jets.sqrt(jets.exp(2.0 * x)) - jets.exp(x)).coeffs, 0.0, atol=1e-13)
    assert np.allclose((jets.sqrt(x) * jets.sqrt(x) - x).coeffs, 0.0, atol=1e-13)

    a = xs[0] * xs[2] + 3.0
    b = 1.0 + xs[1] * xs[1]
    assert np.allclose(((a / b) * b - a).coeffs, 0.0, atol=1e-12)


def test_jet_derivative_consistency():
    sp = jetspace(2, 4)
    xs = lift(sp, [0.5, 1.3], active=[0, 1])
    f = jets.exp(xs[0] * xs[1])
    df = jet_derivative(f, 0)
    assert df.order == 3
    for alpha in jetspace(2, 3).mindex:
        lifted = (alpha[0] + 1, alpha[1])
        assert partial(df, alpha) == pytest.approx(partial(f, lifted), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    b=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    x0=st.floats(-1, 1),
)
def test_product_rule_property(a, b, x0):
    sp = jetspace(1, 4)
    (x,) = lift(sp, [x0], active=[0])
    p = a[0] + a[1] * x + a[2] * x * x
    q = b[0] + b[1] * x + b[2] * x * x
    lhs = partial(p * q, (1,))
    rhs = partial(p, (1,)) * partial(q, (0,)) + partial(p, (0,)) * partial(q, (1,))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_truncation_consistency():
    sp = jetspace(2, 4)
    xs = lift(sp, [0.9, -0.3], active=[0, 1])
    f = jets.exp(xs[0]) * jets.cos(xports := xs[1]) + xs[0] * xports
    g = jets.cosh(xs[0] * xports)
    full = f * g
    low = f.truncated(2) * g.truncated(2)
    assert np.allclose(full.coeffs[: sp.ncoef_at[2]], low.coeffs)


def test_batched_coefficients_broadcast():
    sp = jetspace(2, 3)
    x0 = np.array([0.1, 0.5, 0.9])
    y0 = np.array([1.0, 2.0, 3.0])
    xs = lift(sp, [x0, y0], active=[0, 1])
    f = jets.exp(xs[0]) * xs[1]
    for i in range(3):
        single = lift(sp, [x0[i], y0[i]], active=[0, 1])
        fs = jets.exp(single[0]) * single[1]
        assert np.allclose(f.coeffs[:, i], fs.coeffs)


# ---------------------------------------------------------------- tables


def reference_multi_indices(dim, order):
    """Graded lexicographic multi-indices by filtering the full grid."""
    out = []
    for deg in range(order + 1):
        block = [m for m in iproduct(range(deg + 1), repeat=dim) if sum(m) == deg]
        block.sort()
        out.extend(block)
    return out


def reference_mult_table(mindex, out_order):
    """Product tables by looping over every coefficient pair."""
    index_of = {m: i for i, m in enumerate(mindex)}
    nc = sum(1 for m in mindex if sum(m) <= out_order)
    I, J, K = [], [], []
    for i, mi in enumerate(mindex[:nc]):
        for j, mj in enumerate(mindex[:nc]):
            if sum(mi) + sum(mj) <= out_order:
                I.append(i)
                J.append(j)
                K.append(index_of[tuple(a + b for a, b in zip(mi, mj))])
    return tuple(np.array(t, dtype=np.int64) for t in (I, J, K))


@pytest.mark.parametrize("dim", range(1, 9))
def test_tables_match_loop_reference(dim):
    for order in range(6):
        space = jets.JetSpace(dim, order)
        mindex = reference_multi_indices(dim, order)
        assert space.mindex == mindex
        for out_order in range(order + 1):
            # K, with the pair order of (I, J), fixes the scatter matrix exactly
            I, J, K = space.mult_table(out_order)
            I_ref, J_ref, K_ref = reference_mult_table(mindex, out_order)
            assert np.array_equal(I, I_ref) and np.array_equal(J, J_ref)
            assert np.array_equal(K, K_ref)
        nc_out = space.ncoef_at[order - 1] if order >= 1 else 0
        for var in range(dim):
            src, mult = space.deriv_table(var)
            lifted = [tuple(mi + (q == var) for q, mi in enumerate(m)) for m in mindex[:nc_out]]
            assert src.tolist() == [mindex.index(m) for m in lifted]
            assert mult.tolist() == [m[var] + 1 for m in mindex[:nc_out]]


@pytest.mark.parametrize("dim", range(1, 9))
def test_mult_table_matches_the_degree_mask(dim):
    # the prefix-length construction gives the arrays, dtype included, of the
    # dense (ncoef x ncoef) degree mask it replaces
    for order in range(6):
        space = jets.JetSpace(dim, order)
        for out_order in range(order + 1):
            deg = space.degrees[:space.ncoef_at[out_order]]
            I_mask, J_mask = np.nonzero(deg[:, None] + deg[None, :] <= out_order)
            I, J, _ = space.mult_table(out_order)
            assert I.dtype == I_mask.dtype and J.dtype == J_mask.dtype
            assert np.array_equal(I, I_mask) and np.array_equal(J, J_mask)


def test_mult_table_builds_without_a_dense_temporary():
    # the (1287 x 1287) int64 degree mask of the order-5 table in 8 variables
    # alone took 14.9 MB
    import tracemalloc
    space = jets.JetSpace(8, 5)
    tracemalloc.start()
    try:
        space.mult_table(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def same_bits(a, b):
    """Equal values, infinities and signed zeros, and nans at the same places.

    The sign of a nan that two nans make is not compared: IEEE 754 leaves it
    open, numpy's and scipy's loops pick it differently, and no report can
    show it."""
    real = ~np.isnan(b)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), ~real)
            and np.array_equal(a[real], b[real])
            and np.array_equal(np.signbit(a[real]), np.signbit(b[real])))


def special_coeffs(rng, shape):
    """Normal draws with signed zeros, infinities and nans mixed in."""
    c = rng.normal(size=shape)
    pick = rng.random(shape)
    c[pick < 0.15] = 0.0
    c[(pick >= 0.15) & (pick < 0.3)] = -0.0
    c[(pick >= 0.3) & (pick < 0.33)] = np.inf
    c[(pick >= 0.33) & (pick < 0.36)] = -np.inf
    c[(pick >= 0.36) & (pick < 0.38)] = np.nan
    return c


@pytest.mark.parametrize("dim", range(1, 9))
@np.errstate(all="ignore")
def test_pair_sum_kernel_matches_csr_matvec(dim):
    # both kernels add each row's pairs from +0 in pair order, as scipy's
    # CSR matvec does: the replay kernel by columns of pairs, the trace
    # kernel (run once per recorded product) by ``np.add.at``
    rng = np.random.default_rng(100 + dim)
    for order in range(6):
        space = jets.jetspace(dim, order)
        I, J, K = space.mult_table(order)
        nc = space.ncoef_at[order]
        for density in (0.1, 0.5, 1.0):
            keep = rng.random(len(I)) < density
            Ik, Jk, Kk = I[keep], J[keep], K[keep]
            a, b = special_coeffs(rng, (nc, 5)), special_coeffs(rng, (nc, 5))
            S = sp_csr((np.ones(len(Kk)), (Kk, np.arange(len(Kk)))), shape=(nc, len(Kk)))
            want = S @ (a[Ik] * b[Jk])
            assert same_bits(jets._pair_sum(Ik, Jk, Kk, nc)(a, b), want)
            assert same_bits(jets._trace_product(a, b, Ik, Jk, Kk, nc), want)
            out = np.empty_like(want)
            assert jets._pair_sum(Ik, Jk, Kk, nc)(a, b, out) is out and same_bits(out, want)
            # a subset of output rows, numbered compactly, as a replay holds them
            rows = np.flatnonzero(rng.random(nc) < 0.5)
            sel = np.isin(Kk, rows)
            got = jets._pair_sum(Ik[sel], Jk[sel], np.searchsorted(rows, Kk[sel]), len(rows))(a, b)
            assert same_bits(got, want[rows])


def test_jets_holds_no_scipy_module():
    assert not [name for name, value in vars(jets).items()
                if isinstance(value, types.ModuleType) and value.__name__.startswith("scipy")]


# ---------------------------------------------------------------- errors


def test_division_by_zero_constant_raises():
    sp = jetspace(1, 3)
    (x,) = lift(sp, [0.0], active=[0])
    with pytest.raises(JetDomainError):
        _ = 1.0 / x
    with pytest.raises(JetDomainError):
        _ = x / (x * x)


def test_domain_errors():
    sp = jetspace(1, 3)
    (x,) = lift(sp, [-2.0], active=[0])
    with pytest.raises(JetDomainError):
        jets.sqrt(x)


def test_order_exceeded():
    sp = jetspace(2, 2)
    xs = lift(sp, [1.0, 1.0], active=[0, 1])
    with pytest.raises(OrderExceededError):
        partial(xs[0] * xs[1], (2, 1))


def test_mixed_space_rejected():
    (x,) = lift(jetspace(1, 2), [1.0], active=[0])
    (y,) = lift(jetspace(1, 3), [1.0], active=[0])
    with pytest.raises(ValueError):
        _ = x + y
