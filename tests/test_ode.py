"""lfgeom.ode against the SciPy code it ports.

With SciPy 1.17, the version the port was taken from, every result must
be equal bit for bit: step times and states, status, the times of every
rhs call, event times, dense output, roots and every point brentq
evaluates, minima and every point fminbound evaluates, quadratures.  With
any other SciPy the results must agree to 1e-9 relative.
"""

import math

import numpy as np
import pytest
import scipy
from scipy.integrate import cumulative_trapezoid as sp_cumulative_trapezoid
from scipy.integrate import simpson as sp_simpson
from scipy.integrate import solve_ivp as sp_solve_ivp
from scipy.optimize import brentq as sp_brentq
from scipy.optimize import minimize_scalar as sp_minimize_scalar

from lfgeom import geodesics, ode
from lfgeom.models import lagrangian, model_library

EXACT = scipy.__version__.startswith("1.17")
EPS = np.finfo(float).eps


def agree(a, b):
    """Bit-equal under SciPy 1.17, else equal to 1e-9 relative."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    if EXACT:
        return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return np.allclose(a, b, rtol=1e-9, atol=1e-9 * scale, equal_nan=True)


def counting(fun):
    """fun, and the list of times it is called at."""
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)
    return counted, calls


def assert_same_run(fun, t_span, y0, rtol, atol, event=None):
    if event is not None:
        event.terminal = True
    rhs, ref_calls = counting(fun)
    ref = sp_solve_ivp(rhs, t_span, y0, method="DOP853", dense_output=True,
                       rtol=rtol, atol=atol, events=event)
    rhs, calls = counting(fun)
    got = ode.solve_ivp(rhs, t_span, y0, rtol=rtol, atol=atol, event=event)
    assert got.status == ref.status and got.success == ref.success
    assert got.message == ref.message
    if ref.status == 1:  # the event time ends the run
        assert agree(got.t[-1], ref.t_events[0][0])
    assert agree(got.t[-1], ref.t[-1]) and agree(got.y[:, -1], ref.y[:, -1])
    if EXACT:
        assert agree(calls, ref_calls)  # the same rhs calls, at the same times
        assert agree(got.t, ref.t) and agree(got.y, ref.y)
        assert agree(got.sol.ts, ref.sol.ts)
    # dense output: 200 points per step, as one array and one by one
    ts = got.sol.ts
    grid = np.concatenate([np.linspace(lo, hi, 200) for lo, hi in zip(ts[:-1], ts[1:])])
    if grid.size:
        assert agree(got.sol(grid), ref.sol(grid))
        for t in grid[::97]:
            assert agree(got.sol(t), ref.sol(t))
    return got


def test_coefficient_tables_equal_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(ode, name), getattr(ref, name)), name


# ------------------------------------------------------ fused radial flows


def captured_flows(monkeypatch, m, ps, t_target):
    """The (rhs, span, state, options) of every solve radial_flow makes on
    the fan of unit directions through the spatial offsets ps at the origin."""
    calls = []
    solve = geodesics.solve_ivp

    def spy(fun, t_span, y0, **kw):
        calls.append((fun, t_span, y0.copy(), kw))
        return solve(fun, t_span, y0, **kw)

    monkeypatch.setattr(geodesics, "solve_ivp", spy)
    apex = np.zeros(m.dim)
    w = np.concatenate([np.ones((len(ps), 1)), np.asarray(ps, dtype=float)], axis=1)
    F = np.sqrt(-lagrangian(m, np.broadcast_to(apex, w.shape), w))
    flow = geodesics.radial_flow(m, apex, w / F[:, None], t_target)
    return flow, calls


FANS = {
    "minkowski": (("minkowski", 2, {}), [[0.1, 0.0], [0.0, 0.2], [-0.2, 0.1]], 1.0),
    "flrw-cosh": (("flrw", 1, {"scale": "cosh"}), [[0.1], [-0.2]], 1.0),
    "einstein-static": (("einstein_static", 2, {"radius": 1.0}), [[0.1, 0.0], [0.0, 0.2]], 1.0),
}


@pytest.mark.parametrize("box", [10.0, 0.4], ids=["no-exit", "chart-exit"])
@pytest.mark.parametrize("fan", sorted(FANS))
def test_fused_flow_matches_scipy(monkeypatch, fan, box):
    (name, n, params), ps, t_target = FANS[fan]
    m = model_library(name, n, chart_half_width=box, **params)
    flow, calls = captured_flows(monkeypatch, m, ps, t_target)
    assert (flow.exit_reason[0] is not None) == (box < 1.0)
    for fun, t_span, y0, kw in calls:
        assert_same_run(fun, t_span, y0, kw["rtol"], kw["atol"], kw["event"])
        assert_same_run(fun, t_span, y0, kw["rtol"], kw["atol"])


def test_collapse_fan_matches_scipy(monkeypatch):
    # the reject workload's FLRW collapse: the fan stops on a chart exit
    m = model_library("flrw", 1, scale="affine", a0=1.0, q=-0.4)
    flow, calls = captured_flows(monkeypatch, m, [[0.0], [0.2]], 3.0)
    assert "chart-exit" in flow.exit_reason
    fun, t_span, y0, kw = calls[0]
    got = assert_same_run(fun, t_span, y0, kw["rtol"], kw["atol"], kw["event"])
    assert got.status == 1


def test_dense_rows_are_the_full_call_rows_bit_for_bit(monkeypatch):
    # the post-scan reads only some components of a fused flow's dense output
    m = model_library("einstein_static", 2, radius=1.0)
    flow, _ = captured_flows(monkeypatch, m, [[0.1, 0.0], [0.0, 0.2]], 2.0)
    sol = flow.segments[0][2]
    n = sol(0.0).size
    rows = np.array([n - 1, 0, 3, 2, n - 2])
    inside = 0.5 * (sol.ts[:-1] + sol.ts[1:])
    for s in [sol.ts, inside, np.concatenate([inside, sol.ts])[::-1]]:
        assert sol(s, rows).tobytes() == sol(s)[rows].tobytes()
        for si in s[::3]:
            assert sol(si, rows).tobytes() == sol(si)[rows].tobytes()


# ------------------------------------------------------------ scalar ODEs


def decay(t, y):
    return -2.0 * y + np.sin(3.0 * t)


def blow_up(t, y):
    return y * y


def level(value, direction):
    def event(t, y):
        return float(y[0] - value)
    event.direction = direction
    return event


@pytest.mark.parametrize("fun, y0, t_span, event", [
    (decay, [1.0], (0.0, 5.0), None),
    (decay, [1.0], (0.0, 5.0), level(0.2, 0)),
    (decay, [1.0], (0.5, 0.5), None),
    (blow_up, [1.0], (0.0, 0.99), level(10.0, 1)),
    (blow_up, [1.0], (0.0, 2.0), None),
], ids=["decay", "decay-event", "empty-interval", "blow-up-event", "blow-up-fails"])
def test_scalar_odes_match_scipy(fun, y0, t_span, event):
    if t_span[1] == t_span[0]:  # not ported: no caller integrates an empty span
        with pytest.raises(ValueError, match="non-empty"):
            ode.solve_ivp(fun, t_span, np.array(y0), rtol=1e-8, atol=1e-10)
        return
    with np.errstate(all="ignore"):
        assert_same_run(fun, t_span, np.array(y0), 1e-8, 1e-10, event)


def test_event_zero_at_a_step_time_matches_scipy():
    # |t - t1| touches 0 at a step time t1 and rises after it: the root is
    # the start of the next step, which ends the run there
    t1 = ode.solve_ivp(decay, (0.0, 5.0), np.ones(1), rtol=1e-8, atol=1e-10).t[3]

    def touch(t, y):
        return abs(t - t1)
    touch.direction = 1
    got = assert_same_run(decay, (0.0, 5.0), np.ones(1), 1e-8, 1e-10, touch)
    assert got.status == 1 and got.t[-1] == t1 and len(got.sol.interpolants) == 3


def test_backward_integration_is_refused():
    with pytest.raises(ValueError, match="forward"):
        ode.solve_ivp(decay, (1.0, 0.0), np.ones(1))


# ----------------------------------------------------------------- brentq


def outcome(solver, f, a, b, **kw):
    """The root or the error, and every point the solver evaluated."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        return solver(g, a, b, **kw), xs
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), xs


def random_bracket(rng):
    r = float(rng.uniform(-2, 2))
    k = float(rng.uniform(0.1, 10))
    f = [lambda x: math.tanh(k * (x - r)),
         lambda x: (x - r) * (1 + k * (x - r) ** 2),
         lambda x: math.exp(x) - math.exp(r),
         lambda x: (x - r) ** 3,
         lambda x: 1e-170 * math.tanh(k * (x - r)),   # products of values underflow
         lambda x: math.nan if x > r + 0.5 else x - r][rng.integers(6)]
    a, b = r - float(rng.uniform(1e-3, 3)), r + float(rng.uniform(1e-3, 3))
    pick = rng.random()
    if pick < 0.05:
        a = r                     # f(a) = 0 for most families
    elif pick < 0.1:
        a, b = r + 0.5 * (b - r), b   # no sign change
    if rng.random() < 0.5:
        a, b = b, a
    kw = {"xtol": float(rng.choice([2e-12, 1e-12, 4 * EPS, 1e-6, 1e-3, 0.05])),
          "rtol": float(rng.choice([4 * EPS, 1e-10])),
          "maxiter": int(rng.choice([100] * 8 + [4, 0]))}
    return f, a, b, kw


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(20261018)
    seen = set()
    for _ in range(1000):
        f, a, b, kw = random_bracket(rng)
        got, got_xs = outcome(ode.brentq, f, a, b, **kw)
        want, want_xs = outcome(sp_brentq, f, a, b, **kw)
        if isinstance(want, tuple):
            seen.add(want[0].__name__ + want[1].split()[0])
            assert got[0] is want[0]
            assert (got[1], got_xs) == (want[1], want_xs) or not EXACT
        elif EXACT:
            assert type(got) is float and got == want and got_xs == want_xs
        else:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert seen >= {"ValueErrorf(a)", "ValueErrorThe", "RuntimeErrorFailed"}


@pytest.mark.parametrize("kw, message", [
    ({"xtol": 0.0}, "xtol too small"),
    ({"rtol": 1e-17}, "rtol too small"),
    ({"maxiter": -1}, "maxiter must be >= 0"),
])
def test_brentq_argument_errors_match_scipy(kw, message):
    for solver in (ode.brentq, sp_brentq):
        with pytest.raises(ValueError, match=message):
            solver(lambda x: x - 0.3, 0.0, 1.0, **kw)


def test_brentq_tiny_values_of_one_sign_are_a_sign_error():
    # the sign test reads sign bits: a product of the two would underflow to 0
    for solver in (ode.brentq, sp_brentq):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: 1e-200, 0.0, 1.0)


# -------------------------------------------------------------- fminbound


def random_dip(rng):
    r = float(rng.uniform(-2, 2))
    k = float(rng.uniform(0.1, 10))
    f = [lambda x: k * (x - r) ** 2 + 0.3,
         lambda x: (x - r) ** 2 - 1e-14,            # a margin that only touches zero
         lambda x: math.cos(k * (x - r)),           # several minima in the bracket
         lambda x: (x - r) ** 4,                    # a flat minimum
         lambda x: math.exp(k * x),                 # the minimum is the lower bound
         lambda x: math.sqrt((x - r) ** 2 + 1e-6) + 0.1 * x][rng.integers(6)]
    lo, hi = r - float(rng.uniform(1e-3, 3)), r + float(rng.uniform(1e-3, 3))
    if rng.random() < 0.1:
        lo = r + 0.5 * (hi - r)                     # the bracket misses r
    return f, lo, hi


def fminbound_agrees_with_scipy(rng, runs, maxiter):
    for _ in range(runs):
        f, lo, hi = random_dip(rng)
        got_xs, want_xs = [], []
        x, fx, nfev = ode.fminbound(lambda t: got_xs.append(t) or f(t), lo, hi)
        ref = sp_minimize_scalar(lambda t: want_xs.append(t) or f(t), bounds=(lo, hi),
                                 method="bounded", options={"xatol": 1e-12, "maxiter": maxiter})
        assert agree(x, ref.x) and agree(fx, ref.fun)
        if EXACT:
            assert nfev == ref.nfev and agree(got_xs, want_xs)


def test_fminbound_matches_scipy_on_random_brackets():
    fminbound_agrees_with_scipy(np.random.default_rng(20261020), 500, maxiter=500)


def test_fminbound_stops_at_the_evaluation_cap_as_scipy_does(monkeypatch):
    monkeypatch.setattr(ode, "FMIN_MAXITER", 6)
    fminbound_agrees_with_scipy(np.random.default_rng(20261021), 100, maxiter=6)


# ------------------------------------------------------------- quadrature


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9])
def test_simpson_and_trapezoid_match_scipy(N):
    # ported: Simpson on odd N along any axis, the running trapezoid along
    # the last axis of y over 1-D points x; even N is refused, since no
    # caller needs it
    rng = np.random.default_rng(N)
    y = rng.normal(size=(3, N, 2))
    x = np.cumsum(rng.uniform(0.1, 1.0, size=N))
    y1 = y[0, :, 0]
    for axis, yy in [(1, y), (-1, y1)]:
        if N % 2:
            assert agree(ode.simpson(yy, dx=0.37, axis=axis), sp_simpson(yy, dx=0.37, axis=axis))
        else:
            with pytest.raises(ValueError, match="odd"):
                ode.simpson(yy, dx=0.37, axis=axis)
    yt = np.swapaxes(y, 1, 2)
    for yy in (y1, yt):
        assert agree(ode.cumulative_trapezoid(yy, x), sp_cumulative_trapezoid(yy, x))
    with pytest.raises(ValueError, match="1-D"):
        ode.cumulative_trapezoid(y1, np.stack([x, x]))
