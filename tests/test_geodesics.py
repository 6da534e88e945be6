"""Geodesic and variational flows against closed forms and first integrals.

Anchors used here:
  * Minkowski geodesics are straight lines; no conjugate points.
  * Warped products conserve spatial momentum p_i = a(x0)^2 x_i'.
  * The static spherical universe has boosted great circles as timelike
    geodesics: x0(t) = gamma t, the spatial track is a chart circle, and
    the first conjugate time is pi R / (gamma beta).
  * Parallel transport must preserve g_{eta'}(.,.) pairings exactly.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lfgeom import geodesics
from lfgeom.connection import DegenerateMetricError
from lfgeom.geodesics import (
    STOPPED,
    find_validity_times,
    integrate_geodesic,
    radial_flow,
)
from lfgeom.jacobi import ValidityExit, conjugate_scan, variational_paths
from lfgeom.models import fundamental_tensor, lagrangian, model_library


def richardson_dir(f, x, e, h):
    def central(hh):
        return (f(x + hh * e) - f(x - hh * e)) / (2.0 * hh)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def drift_and_signature(m, seg, x0, v0):
    """max |L - L0| and whether g keeps signature (- + ... +), over the
    segment's accepted step times (read off the clock row of its dense
    output, whose steps are in the clock sigma, not in t)."""
    xs, vs = seg.state(seg.sol(seg.sol.ts)[-1])
    drift = float(np.max(np.abs(lagrangian(m, xs, vs) - lagrangian(m, x0, v0))))
    eig = np.linalg.eigvalsh(fundamental_tensor(m, xs, vs))
    return drift, bool(np.all(eig[:, 0] < 0) and np.all(eig[:, 1:] > 0))


def boosted_circle_setup(R=1.0, beta=0.6, r0=0.5):
    """Great-circle initial data in the stereographic chart at (r0, 0)."""
    m = model_library("einstein_static", n=2, radius=R)
    gamma = 1.0 / np.sqrt(1.0 - beta**2)
    conf = 2.0 * R**2 / (R**2 + r0**2)
    x0 = np.array([0.0, r0, 0.0])
    v0 = np.array([gamma, 0.0, gamma * beta / conf])
    return m, x0, v0, gamma, beta


def test_minkowski_geodesics_are_straight():
    m = model_library("minkowski", n=3)
    x0 = np.array([0.0, 0.2, -0.4, 1.0])
    v = np.array([1.2, 0.3, 0.1, -0.2])
    for t in (0.5, 1.0, 3.0):
        assert np.allclose(integrate_geodesic(m, x0, v, t).position(t), x0 + t * v, atol=1e-10)


def test_comoving_observer_in_expanding_model():
    m = model_library("flrw", n=2, scale="exp", H=0.7)
    x0 = np.array([0.1, 0.4, -0.2])
    v0 = np.array([1.0, 0.0, 0.0])
    seg = integrate_geodesic(m, x0, v0, 5.0)
    ts = np.linspace(0, 5.0, 11)
    pos = seg.position(ts)
    want = x0 + np.outer(ts, v0)
    assert np.allclose(pos, want, atol=1e-9)
    assert seg.status == "completed"
    assert drift_and_signature(m, seg, x0, v0)[0] < 1e-9


def test_warped_product_momentum_first_integral():
    m = model_library("flrw", n=2, scale="cosh", omega=0.8)
    x0 = np.array([0.2, 0.0, 0.0])
    v0 = np.array([1.3, 0.4, -0.25])
    seg = integrate_geodesic(m, x0, v0, 2.5)
    assert seg.t_end == 2.5 and seg.status == "completed"
    ts = np.linspace(0.0, 2.5, 13)
    x, v = seg.state(ts)
    a2 = np.cosh(0.8 * x[:, 0]) ** 2
    p = a2[:, None] * v[:, 1:]
    assert np.max(np.abs(p - p[0])) < 1e-8
    drift, signature_ok = drift_and_signature(m, seg, x0, v0)
    assert drift < 1e-9
    assert signature_ok


def test_boosted_great_circle_track():
    m, x0, v0, gamma, beta = boosted_circle_setup()
    assert abs(lagrangian(m, x0, v0) + 1.0) < 1e-12
    seg = integrate_geodesic(m, x0, v0, 4.0)
    assert seg.status == "completed"
    ts = np.linspace(0.0, 4.0, 17)
    x = seg.position(ts)
    assert np.allclose(x[:, 0], gamma * ts, atol=1e-8)
    # chart image of the great circle: center (-0.75, 0), radius 1.25
    rad = np.hypot(x[:, 1] + 0.75, x[:, 2])
    assert np.max(np.abs(rad - 1.25)) < 1e-8


def test_chart_exit_detected():
    m = model_library("minkowski", n=2)
    seg = integrate_geodesic(m, np.zeros(3), np.array([1.0, 0.3, 0.0]), 50.0)
    assert seg.status == "chart-exit"
    assert abs(seg.t_end - 10.0) < 1e-6
    flow = radial_flow(m, np.zeros(3), np.array([[1.0, 0.3, 0.0]]), 50.0, post_scan=True)
    for read in (lambda: flow.eval(0, 50.0), lambda: seg.position(50.0),
                 lambda: seg.position(-1.0)):
        with pytest.raises(ValueError):   # no state past the exit, nor before the start
            read()


def test_metric_collapse_detected():
    # contracting affine scale factor: a = 1 - t/4 vanishes at t = 4
    m = model_library("flrw", n=2, scale="affine", a0=1.0, q=-0.25)
    seg = integrate_geodesic(m, np.zeros(3), np.array([1.0, 0.0, 0.0]), 10.0)
    assert seg.status == "degenerate-or-cone"
    assert 3.9 < seg.t_end < 4.0 + 1e-9


def test_degenerate_base_point_is_a_numerical_error():
    # a = 1 - x0/2 vanishes at the base point: g_v is degenerate there
    m = model_library("flrw", n=1, scale="affine", a0=1.0, q=-0.5)
    x0, v0 = np.array([2.0, 0.0]), np.array([1.0, 0.0])
    for integrate in (lambda: radial_flow(m, x0, v0[None], 1.0),
                      lambda: find_validity_times(m, x0, v0[None], 1.0),
                      lambda: integrate_geodesic(m, x0, v0, 1.0)):
        with pytest.raises(DegenerateMetricError, match="conditioning margin"):
            integrate()


def test_variational_flow_matches_fd_of_exponential():
    # Jacobi field columns seeded by (delta x, delta v) = (0, e2) and (e1, 0)
    m, x0, v0, *_ = boosted_circle_setup()
    t1 = 2.0
    seeds_dx = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    seeds_dv = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    flow = radial_flow(m, x0, v0[None], t1, jac_seeds=(seeds_dx.T[None], seeds_dv.T[None]))
    st = flow.eval(0, np.array([t1]))
    J = st["J"][0]
    fd_v = richardson_dir(lambda w: integrate_geodesic(m, x0, w, t1).position(t1),
                          v0, seeds_dv[0], 1e-5)
    fd_x = richardson_dir(lambda y: integrate_geodesic(m, y, v0, t1).position(t1),
                          x0, seeds_dx[1], 1e-5)
    assert np.allclose(J[:, 0], fd_v, atol=1e-6)
    assert np.allclose(J[:, 1], fd_x, atol=1e-6)


def test_radial_flow_agrees_with_single_geodesics():
    m, x0, _, *_ = boosted_circle_setup()
    dirs = np.array([[1.25, 0.0, 0.46875],
                     [1.1, 0.2, 0.1],
                     [1.4, -0.3, 0.25]])
    t_target = 2.5
    flow = radial_flow(m, x0, dirs, t_target)
    assert all(r is None for r in flow.exit_reason)
    assert len(flow.segments) == 1
    ts = np.linspace(0.0, t_target, 7)
    every = flow.eval(np.arange(len(dirs)), ts)
    for i in range(3):
        st = flow.eval(i, ts)
        assert np.array_equal(st["eta"], every["eta"][i])
        seg = integrate_geodesic(m, x0, dirs[i], t_target)
        xs, vs = seg.state(ts)
        assert np.allclose(st["eta"], xs, atol=1e-8)
        assert np.allclose(st["etadot"], vs, atol=1e-8)


def test_validity_times_of_heterogeneous_chart_exits():
    m = model_library("minkowski", n=2)
    dirs = np.array([[2.0, 0.2, 0.0], [1.0, 0.5, 0.0], [0.5, 0.1, 0.0]])
    t_valid, reasons = find_validity_times(m, np.zeros(3), dirs, 30.0)
    assert np.allclose(t_valid, [5.0, 10.0, 20.0], atol=1e-6)
    assert reasons == ["chart-exit"] * 3


def test_radial_flow_stops_at_first_exit():
    m = model_library("minkowski", n=2)
    dirs = np.array([[2.0, 0.2, 0.0], [1.0, 0.5, 0.0], [0.5, 0.1, 0.0]])
    flow = radial_flow(m, np.zeros(3), dirs, 30.0)
    assert np.allclose(flow.t_reached, 5.0, atol=1e-6)
    assert flow.exit_reason == ["chart-exit", STOPPED, STOPPED]
    assert len(flow.segments) == 1
    st = flow.eval(2, np.array([0.0, 4.9]))
    assert np.allclose(st["eta"][1], 4.9 * dirs[2], atol=1e-8)
    with pytest.raises(ValueError):
        flow.eval(2, np.array([6.0]))


def test_parallel_transport_preserves_pairings():
    m, x0, v0, *_ = boosted_circle_setup()
    frames = np.array([[[0.3, 1.0, 0.1], [0.5, -0.2, 0.9]]])
    flow = radial_flow(m, x0, v0[None], 3.0, frames=frames)
    ts = np.linspace(0.0, 3.0, 9)
    st = flow.eval(0, ts)
    gs = fundamental_tensor(m, st["eta"], st["etadot"])
    pair = np.einsum("tka,tab,tlb->tkl", st["V"], gs, st["V"])
    mix = np.einsum("tka,tab,tb->tk", st["V"], gs, st["etadot"])
    assert np.max(np.abs(pair - pair[0])) < 1e-8
    assert np.max(np.abs(mix - mix[0])) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_singularity_measure_matches_singular_values(n):
    # sqrt(n) det A / |adj A|_F = sign(det A) sqrt(n / sum sigma^-2): closed forms up to n = 3
    A = np.random.default_rng(n).normal(size=(50, n, n))
    s = np.linalg.svd(A, compute_uv=False)
    want = np.sign(np.linalg.det(A)) * np.sqrt(n / np.sum(s ** -2.0, axis=-1))
    assert np.allclose(geodesics._singularity(A), want, rtol=1e-12, atol=0)
    assert abs(geodesics._singularity(np.eye(n)) - 1.0) < 1e-15


def test_conjugate_time_matches_closed_form():
    m, x0, v0, gamma, beta = boosted_circle_setup()
    # n = 3, on S^3: the two transverse Jacobi fields vanish together, so
    # det A touches zero without changing sign; t* = pi / (spatial speed) ~ 4.18450
    m3 = model_library("einstein_static", n=3, radius=1.0)
    x3 = np.array([0.0, 0.49918, 0.0, 0.0])
    w3 = np.array([1.0, 0.0, 0.375, 0.0])
    v3 = w3 / np.sqrt(-lagrangian(m3, x3, w3))
    speed3 = 2.0 / (1.0 + x3[1] ** 2) * np.linalg.norm(v3[1:])
    for m, x0, v0, t_max, want in [(m, x0, v0, 4.6, np.pi / (gamma * beta)),
                                   (m3, x3, v3, 7.9, np.pi / speed3)]:
        roots = conjugate_scan(m, x0, v0, t_max)
        assert len(roots) == 1
        assert abs(roots[0] - want) < 1e-6


def test_no_conjugate_points_in_flat_and_expanding_models():
    m = model_library("minkowski", n=2)
    assert conjugate_scan(m, np.zeros(3), np.array([1.0, 0.3, 0.0]), 8.0).size == 0
    m2 = model_library("flrw", n=2, scale="exp", H=0.6)
    assert conjugate_scan(m2, np.zeros(3), np.array([1.0, 0.05, 0.0]), 6.0).size == 0


def test_curvature_profile_script_prints_first_conjugate_times(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "curvature_profile.py"
    spec = importlib.util.spec_from_file_location("curvature_profile", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--model", "einstein_static", "--param", "radius=1.0",
                        "--apex", "0", "0.5", "0", "--t-max", "4.5", "--ndir", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[-2:]
    # outward: the chart-exit comes first; inward: the antipode at pi / (spatial speed)
    assert "none < 2.417" in rows[0]
    assert rows[1].split()[-1] == "3.77175"


def unit_fan(m, ps):
    """Unit future directions through the spatial offsets ps at the origin."""
    apex = np.zeros(m.dim)
    w = np.concatenate([np.ones((len(ps), 1)), np.asarray(ps, dtype=float)], axis=1)
    F = np.sqrt(-lagrangian(m, np.broadcast_to(apex, w.shape), w))
    return apex, w / F[:, None]


def test_clock_inverse_is_exact_on_straight_lines():
    m = model_library("minkowski", n=2)
    x0 = np.array([0.1, -0.2, 0.3])
    dirs = np.array([[1.0, 0.0, 0.0], [1.3, 0.4, -0.5], [2.0, -1.2, 1.0]])
    flow = radial_flow(m, x0, dirs, 2.5)
    assert np.all(flow.t_reached == 2.5) and flow.exit_reason == [None] * 3
    rng = np.random.default_rng(7)
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.5, 40)), [2.5]])
    want = x0 + ts[None, :, None] * dirs[:, None, :]
    every = flow.eval(np.arange(len(dirs)), ts)
    assert np.max(np.abs(every["eta"] - want)) < 1e-14
    for i in range(3):
        assert np.max(np.abs(flow.eval(i, ts)["eta"] - want[i])) < 1e-14


def test_clock_row_reproduces_the_requested_times():
    m = model_library("flrw", n=1, scale="cosh")
    apex, dirs = unit_fan(m, [[0.1], [-0.2]])
    flow = radial_flow(m, apex, dirs, 1.5)
    assert flow.t_reached[0] == 1.5 and flow.t_reached[1] == 1.5
    ts = np.concatenate([[0.0], 1.5 * np.geomspace(1e-6, 1.0, 60)])
    sigma = flow.clock.sigma(ts)
    assert sigma[0] == 0.0 and sigma[-1] == flow.segments[0][1]
    back = flow.segments[0][2](sigma)[-1]
    assert np.all(np.abs(back - ts) <= 4 * np.spacing(ts))


def test_collapse_fan_crawls_no_more(monkeypatch):
    # the reject workload's FLRW collapse: a -> 0 blows the coordinate
    # speed up just before the x1 = -10 chart exit at t = 2.04101
    m = model_library("flrw", 1, scale="affine", a0=1.0, q=-0.4)
    apex, dirs = unit_fan(m, [[0.0], [0.2]])
    calls = []
    real = geodesics.eval_connection

    def counted(*args, **kw):
        calls.append(kw["order"])
        return real(*args, **kw)

    monkeypatch.setattr(geodesics, "eval_connection", counted)
    flow = radial_flow(m, apex, dirs, 3.0)
    assert len(calls) <= 450 and set(calls) == {3}
    assert flow.exit_reason == [STOPPED, "chart-exit"]
    calls.clear()
    with pytest.raises(ValidityExit) as exit_:
        variational_paths(m, apex, dirs, 3.0)
    assert len(calls) <= 900 and set(calls) == {4}
    assert (exit_.value.index, exit_.value.reason) == (1, "chart-exit")
    assert f"{exit_.value.t:.6g}" == "2.04101"


# ------------------------------------------------------- blocked post-scan


def seeded_fan(m, x0, center, spread, count, seed):
    """count unit future directions through seeded spatial offsets around center."""
    rng = np.random.default_rng(seed)
    p = np.asarray(center) + rng.uniform(-spread, spread, size=(count, m.dim - 1))
    w = np.concatenate([np.ones((count, 1)), p], axis=1)
    return w / np.sqrt(-lagrangian(m, np.broadcast_to(x0, w.shape), w))[:, None]


def jacobi_seeds(m, x0, dirs):
    """Frames and the (J, J') seeds of variational_paths for a fan."""
    from lfgeom.jacobi import build_frame
    frames = np.array([build_frame(m, x0, v) for v in dirs])
    return {"frames": frames,
            "jac_seeds": (np.zeros(dirs.shape + (m.dim - 1,)), np.swapaxes(frames, -1, -2).copy())}


# one fan per margin part: (model, apex, offset centre, spread, horizon, Jacobi fields)
SCAN_FANS = {
    "minkowski": (("minkowski", 3, {}), [0.0] * 4, [0.0, 0.1, 0.0], 0.3, 2.0, True),
    "conditioning": (("flrw", 2, {"scale": "affine", "a0": 1.0, "q": -0.25}),
                     [0.0] * 3, [0.0, 0.0], 0.2, 8.0, False),
    "conjugate": (("einstein_static", 3, {"radius": 1.0}), [0.0, 0.49918, 0.0, 0.0],
                  [0.0, 0.375, 0.0], 0.05, 4.5, True),
    "chart": (("minkowski", 2, {"chart_half_width": 0.4}), [0.0] * 3, [0.0, 0.0], 0.6, 2.0,
              False),
}


@pytest.mark.parametrize("fan", sorted(SCAN_FANS))
def test_blocked_scan_margins_equal_whole_fan_margins(monkeypatch, fan):
    # the blocked, rows-only scan against _margins on the whole fan state, bit for bit
    (name, n, params), x0, center, spread, t_target, jac = SCAN_FANS[fan]
    m = model_library(name, n, **params)
    x0 = np.asarray(x0)
    dirs = seeded_fan(m, x0, center, spread, 12, seed=len(fan))
    kw = jacobi_seeds(m, x0, dirs) if jac else {}
    seen = []
    real = geodesics._scan_candidates
    monkeypatch.setattr(geodesics, "_scan_candidates", lambda ms: seen.append(ms) or real(ms))
    monkeypatch.setattr(geodesics, "SCAN_BLOCK", 1000)   # several blocks, the last one ragged
    flow = radial_flow(m, x0, dirs, t_target, post_scan=True, **kw)
    (scan,) = seen
    _, s1, dense, _ = flow.segments[0]
    vals = dense(np.linspace(0.0, s1, scan.shape[1] + 1)[1:])
    st = flow.layout.unpack(np.moveaxis(vals[:-1].reshape(len(dirs), flow.layout.width, -1), 1, 2))
    L0 = lagrangian(m, x0, dirs)[:, None]
    assert scan.tobytes() == geodesics._margins(m, st, vals[-1], L0, screen=True).tobytes()
    # the screen moves no margin at or below DIP_THRESHOLD, nor any candidate
    exact = geodesics._margins(m, st, vals[-1], L0)
    low = np.minimum(scan, exact) <= geodesics.DIP_THRESHOLD
    assert np.array_equal(scan[low], exact[low])
    for a, b in zip(geodesics._scan_candidates(scan), geodesics._scan_candidates(exact)):
        assert np.array_equal(a, b)
    assert np.any(exact < geodesics.DIP_THRESHOLD) == (fan != "minkowski")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("lorentzian", [True, False])
def test_conditioning_screen_bound_lies_below_the_eigenvalue_ratio(d, lorentzian):
    # |det g| (d-1)^((d-1)/2) / |g|_F^d <= min|eig| / max|eig|, spread over
    # condition numbers from 1 to 1e8, and the screen reads it only above 2 DIP_THRESHOLD
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.normal(size=(4000, d, d)))
    lam = np.exp(rng.uniform(-9.0, 9.0, size=(4000, d)))
    if lorentzian:
        lam[:, 0] *= -1.0
    g = np.einsum("kij,kj,klj->kil", q, lam, q)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    aeig = np.abs(np.linalg.eigvalsh(g))
    ratio = aeig.min(axis=1) / aeig.max(axis=1)
    bound = (np.abs(np.linalg.det(g)) * (d - 1) ** ((d - 1) / 2)
             / np.linalg.norm(g, axis=(1, 2)) ** d)
    assert np.all(bound <= ratio + 1e-14)    # both carry rounding errors of a few ulp of 1
    screened = geodesics._conditioning(g, screen=True)
    exact = geodesics._conditioning(g)
    read = bound >= 2 * geodesics.DIP_THRESHOLD
    assert 0 < read.sum() < len(g)
    assert np.array_equal(screened[~read], exact[~read])
    assert np.allclose(screened[read], bound[read], rtol=1e-12, atol=0)


def _collapse_input(directory):
    """The seed-0 ``reject-collapse`` input of ``bench/inputs.py``, written into directory."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.write("reject", 0, directory)[0]


def _scans(monkeypatch, run, screen):
    """The sampled margins of every post-scan of run(), with or without the screen."""
    seen, real = [], geodesics._scan_candidates
    monkeypatch.setattr(geodesics, "_scan_candidates", lambda ms: seen.append(ms) or real(ms))
    if not screen:
        margins = geodesics._margins
        monkeypatch.setattr(geodesics, "_margins",
                            lambda *a, screen=False, **k: margins(*a, **k))
    run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("case", ["reject-collapse", "mink2_gunther_weighted"])
def test_conditioning_screen_leaves_scan_candidates_unchanged(monkeypatch, tmp_path, case):
    # the collapse fan runs into a -> 0, where the screen falls back to eigvalsh
    from lfgeom import cli
    if case == "reject-collapse":
        scenario = _collapse_input(tmp_path)
    else:
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / f"{case}.yaml"
    argv = ["gunther", "--scenario", str(scenario), "--out", str(tmp_path)]
    fallback, real = [], geodesics._conditioning

    def conditioning(g, screen=False):
        fallback.append(0 if screen else g.shape[:-2])
        return real(g, screen)

    monkeypatch.setattr(geodesics, "_conditioning", conditioning)
    screened = _scans(monkeypatch, lambda: cli.main(argv), screen=True)
    # each screened call's eigvalsh fallback is the unscreened call right after it
    states = sum(np.prod(s) for tag, s in zip(fallback, fallback[1:]) if tag == 0)
    exact = _scans(monkeypatch, lambda: cli.main(argv), screen=False)
    assert len(screened) == len(exact) > 0
    for a, b in zip(screened, exact):
        for x, y in zip(geodesics._scan_candidates(a), geodesics._scan_candidates(b)):
            assert np.array_equal(x, y)
    assert any(np.any(a != b) for a, b in zip(screened, exact))     # the screen ran
    assert (states > 0) == (case == "reject-collapse")


def test_post_scan_holds_one_block_of_states():
    # a 96-direction order-4 fan (44 state components per direction, as on
    # finsler3d): the whole-fan scan this replaced peaked at 97.6 MB here,
    # the blocked one at 8.2 MB
    import tracemalloc
    m = model_library("minkowski", 3)
    x0 = np.zeros(4)
    dirs = seeded_fan(m, x0, [0.0, 0.0, 0.0], 0.3, 96, seed=0)
    flow = radial_flow(m, x0, dirs, 1.0, **jacobi_seeds(m, x0, dirs))
    assert flow.layout.width == 44
    L0 = lagrangian(m, x0, dirs)
    tracemalloc.start()
    try:
        geodesics._post_scan_flow(m, flow, L0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
