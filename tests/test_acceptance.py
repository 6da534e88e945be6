"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
verdict lines; add ``-s`` to also see the measured numbers.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lfgeom import cli, jets
from lfgeom.comparison import (
    SCLVSpec,
    ball_bound_check,
    bg_infinity_check,
    bishop_gromov_check,
    build_sclv_data,
    coordinate_volume,
    gunther_check,
    sclv_volume,
)
from lfgeom.curvature import riemann_matrix
from lfgeom.geodesics import radial_flow
from lfgeom.jacobi import (
    check_hric,
    check_riccati,
    jacobi_curvature,
    sample_all,
    sample_grid,
    scalars_for_paths,
    variational_paths,
)
from lfgeom.models import fundamental_tensor, lagrangian, model_library, weight

D_GRID = [(round(r, 1), round(R, 1)) for r in (0.1, 0.2, 0.3, 0.4, 0.5)
          for R in (0.6, 0.7, 0.8, 0.9, 1.0)]


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit_fan(m, x0, offsets):
    w = np.concatenate([np.ones((len(offsets), 1)), offsets], axis=1)
    F = np.sqrt(-lagrangian(m, np.broadcast_to(x0, w.shape), w))
    return w / F[:, None]


# ------------------------------------------------------------ shared sweeps


@pytest.fixture(scope="module")
def jacobi_sweep():
    """Criteria 3-5 share this: 20 directions per model, t in [0, 1]."""
    rng = np.random.default_rng(7)
    x0 = np.zeros(3)
    out = {}
    for name, m in [
        ("minkowski", model_library("minkowski", 2)),
        ("flrw", model_library("flrw", 2, scale="exp", H=0.1)),
        ("quartic_finsler", model_library("quartic_finsler", 2, eps=0.05)),
    ]:
        offs = rng.uniform(-1.0, 1.0, (20, 2))
        offs = 0.45 * offs / np.maximum(1.0, np.linalg.norm(offs, axis=1))[:, None]
        dirs = _unit_fan(m, x0, offs)
        paths = variational_paths(m, x0, dirs, 1.0)
        out[name] = (m, x0, dirs, paths)
    return out


@pytest.fixture(scope="module")
def mink2_data():
    """Criteria 7-11 share these flat n=2 star regions (four weights)."""
    spec = SCLVSpec(apex=np.zeros(3), radius=0.5, cut=1.0)
    out = {}
    for key, wt in [
        ("plain", None),
        ("const", [("const", 0.3)]),
        ("decaying", [("const", 0.3), ("linear_x0", -0.2)]),
        ("linear", [("linear_x0", 0.5)]),
    ]:
        m = model_library("minkowski", 2, weight=wt)
        out[key] = (m, spec, build_sclv_data(m, spec, scale=0.5))
    return out


# -------------------------------------------------------------- criterion 1


def test_criterion_01_jet_derivatives():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_poly = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        nterms = int(rng.integers(3, 9))
        exps = [tuple(int(e) for e in
                      rng.multinomial(int(rng.integers(0, 5)), np.ones(dim) / dim))
                for _ in range(nterms)]
        coefs = rng.uniform(-2.0, 2.0, nterms)
        x = rng.uniform(-1.5, 1.5, dim)
        space = jets.jetspace(dim, 4)
        xs = jets.lift(space, list(x), active=list(range(dim)))
        acc = jets.constant(space, 0.0)
        for c, e in zip(coefs, exps):
            term = jets.constant(space, float(c))
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * xs[i]
            acc = acc + term
        for midx in space.mindex:
            sym = 0.0
            for c, e in zip(coefs, exps):
                if all(ei >= ai for ei, ai in zip(e, midx)):
                    val = c
                    for ei, ai, xi in zip(e, midx, x):
                        for q in range(ai):
                            val *= ei - q
                        val *= xi ** (ei - ai)
                    sym += val
            err = abs(float(jets.partial(acc, midx)) - sym) / (1.0 + abs(sym))
            worst_poly = max(worst_poly, err)

    def fcomp(z):
        return (np.exp(np.sin(1.3 * z[0] + z[1] * z[1]))
                + np.sin(z[0] * np.exp(0.7 * z[1])) / (2.0 + np.cos(z[0])))

    worst_fd = 0.0
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 2)
        space = jets.jetspace(2, 2)
        xs = jets.lift(space, list(x), active=[0, 1])
        val = (jets.exp(jets.sin(xs[0] * 1.3 + xs[1] * xs[1]))
               + jets.sin(xs[0] * jets.exp(xs[1] * 0.7)) / (jets.cos(xs[0]) + 2.0))
        for k in range(2):
            e = np.eye(2)[k]

            def d1(h):
                return (fcomp(x + h * e) - fcomp(x - h * e)) / (2 * h)

            fd = (4 * d1(5e-3) - d1(1e-2)) / 3
            worst_fd = max(worst_fd, abs(
                float(jets.partial(val, tuple(int(q) for q in e))) - fd))

        def dxx(h):
            e0 = np.array([1.0, 0.0])
            return (fcomp(x + h * e0) - 2 * fcomp(x) + fcomp(x - h * e0)) / h**2

        fd2 = (4 * dxx(5e-3) - dxx(1e-2)) / 3
        worst_fd = max(worst_fd, abs(float(jets.partial(val, (2, 0))) - fd2))

    dt = time.perf_counter() - t0
    ok = worst_poly < 1e-12 and worst_fd < 1e-6 and dt < 5.0
    _report(1, ok, f"poly rel {worst_poly:.2e} (<1e-12), "
                   f"composite fd {worst_fd:.2e} (<1e-6), {dt:.2f}s (<5s)")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_metric_layer_homogeneity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    B, s = 1000, 1.7
    models = [
        model_library("minkowski", 2,
                      weight=[("boost_ratio", 0.3), ("linear_x0", 0.4)]),
        model_library("flrw", 2, scale="exp", H=0.3),
        model_library("quartic_finsler", 2, eps=0.05),
        model_library("quartic_flrw", 2, eps=0.25, H=0.35),
        model_library("einstein_static", 2, radius=1.0),
    ]
    worst = {}
    for m in models:
        d = m.dim
        x = rng.uniform(-0.5, 0.5, (B, d))
        offs = rng.uniform(-1.0, 1.0, (B, d - 1))
        offs = 0.45 * offs / np.maximum(1.0, np.linalg.norm(offs, axis=1))[:, None]
        v = (rng.uniform(0.5, 2.0, B)[:, None]
             * np.concatenate([np.ones((B, 1)), offs], axis=1))
        X = np.concatenate([x, x])
        V = np.concatenate([v, s * v])
        data = riemann_matrix(m, X, V)
        conn = data.center
        psi = weight(m, X, V)

        def deg(arr, p):
            a, b = np.asarray(arr)[:B], np.asarray(arr)[B:]
            return float(np.max(np.abs(b - s**p * a) / (1.0 + s**p * np.abs(a))))

        gvv = np.einsum("bi,bij,bj->b", V, conn.g, V)
        errs = {"gvv=L": float(np.max(np.abs(gvv - conn.L) / (1.0 + np.abs(conn.L)))),
                "L deg2": deg(conn.L, 2), "psi deg0": deg(psi, 0),
                "g deg0": deg(conn.g, 0), "G deg2": deg(conn.G, 2),
                "N deg1": deg(conn.N, 1), "Ric deg2": deg(data.ric, 2)}
        for k, e in errs.items():
            worst[k] = max(worst.get(k, 0.0), e)
    dt = time.perf_counter() - t0
    bad = {k: e for k, e in worst.items() if e >= 1e-9}
    ok = not bad and dt < 30.0
    _report(2, ok, f"worst identity error {max(worst.values()):.2e} (<1e-9) "
                   f"over {len(models)} models x {B} samples, {dt:.1f}s (<30s)")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_two_route_jacobi(jacobi_sweep):
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 21)[1:]
    worst = 0.0
    for name, (m, x0, dirs, paths) in jacobi_sweep.items():
        svar = sample_all(paths[0].flow, np.arange(len(paths)), ts)
        for i, p in enumerate(paths):
            sc = jacobi_curvature(m, x0, dirs[i], 1.0, frame=p.frame0).sample(ts)
            worst = max(worst, float(np.max(np.abs(svar.A[i] - sc.A))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 120.0
    _report(3, ok, f"max |A_variational - A_curvature| {worst:.2e} (<1e-5) "
                   f"over 3 models x 20 directions, {dt:.1f}s (<2min)")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_radial_density_vs_dexp(jacobi_sweep):
    eps_pair = (1e-5, 5e-6)
    ts_fd = np.array([0.5, 1.0])
    worst = 0.0
    for name, (m, x0, dirs, paths) in jacobi_sweep.items():
        n, d = m.n, m.dim
        frames = np.array([p.frame0 for p in paths])           # (20, n, d)
        # one fused flow for all Richardson stencil geodesics
        pert = (dirs[:, None, None, None, :]
                + np.einsum("e,s,ikd->iksed", np.array(eps_pair),
                            np.array([1.0, -1.0]), frames))     # (20,n,2,2,d)
        W = pert.reshape(-1, d)
        flow = radial_flow(m, x0, W, 1.0)
        eta = flow.eval(np.arange(len(W)), ts_fd)["eta"].reshape(20, n, 2, 2, len(ts_fd), d)
        diff = (eta[:, :, 0] - eta[:, :, 1]) / 2.0              # (20,n,2,t,d)
        dexp = ((4.0 * diff[:, :, 1] / eps_pair[1]
                 - diff[:, :, 0] / eps_pair[0]) / 3.0)          # (20,n,t,d)

        s = sample_all(paths[0].flow, np.arange(20), ts_fd)
        for i in range(20):
            for j, t in enumerate(ts_fd):
                g = fundamental_tensor(m, s.x[i, j], s.v[i, j])
                A_fd = np.einsum("kd,de,je->kj", s.E[i, j], g, dexp[i, :, j])
                worst = max(worst, abs(
                    t**-n * np.linalg.det(A_fd) - t**-n * np.linalg.det(s.A[i, j])))
    ok = worst < 1e-5
    _report(4, ok, f"max |t^-n det A - det(d exp)| {worst:.2e} (<1e-5), "
                   f"finite-difference oracle at t in {{0.5, 1}}")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_riccati_inequality(jacobi_sweep):
    grid = sample_grid(1.0, 160)
    worst_ineq, worst_flat = -np.inf, 0.0
    for name, (m, x0, dirs, paths) in jacobi_sweep.items():
        scal = scalars_for_paths(paths[0].flow, np.arange(len(paths)), grid)
        worst_ineq = max(worst_ineq, check_riccati(scal))
        if name == "minkowski":
            res = scal.lam**2 / scal.n - scal.trC2
            worst_flat = max(worst_flat, float(np.max(
                np.abs(res / (1.0 + scal.lam**2 / scal.n)))))
    ok = worst_ineq <= 1e-6 and worst_flat <= 1e-10
    _report(5, ok, f"max residual {worst_ineq:.2e} (<=1e-6); flat equality "
                   f"|residual| {worst_flat:.2e} (<=1e-10)")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_weighted_density_concavity():
    sweeps = [
        (model_library("minkowski", 2, weight=[("linear_x0", 0.4)]),
         np.zeros(3), 2.0),
        (model_library("flrw", 2, scale="exp", H=0.3), np.zeros(3), 1.5),
        (model_library("quartic_finsler", 2, eps=0.05), np.zeros(3), 1.5),
        (model_library("quartic_flrw", 2, eps=0.25, H=0.35), np.zeros(3), 1.5),
        (model_library("einstein_static", 2, radius=1.0),
         np.array([0.0, 0.5, 0.0]), 2.0),
    ]
    phis = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    offs = 0.3 * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    worst = -np.inf
    for m, x0, t_end in sweeps:
        n = m.n
        dirs = _unit_fan(m, x0, offs)
        paths = variational_paths(m, x0, dirs, t_end)
        grid = sample_grid(t_end, 96)
        scal = scalars_for_paths(paths[0].flow, np.arange(len(paths)), grid)
        for N in (n + 0.5, n + 2.0, 1.0e6, -1.0):
            c = float(np.min(scal.ric + scal.d2psi - scal.dpsi**2 / (N - n)))
            worst = max(worst, check_hric(scal, c, N))

    # negative control: inflating c on flat space must break the bound
    m = model_library("minkowski", 2)
    dirs = _unit_fan(m, np.zeros(3), np.array([[0.3, 0.0]]))
    paths = variational_paths(m, np.zeros(3), dirs, 2.0)
    scal = scalars_for_paths(paths[0].flow, [0], sample_grid(2.0, 96))
    control = check_hric(scal, 1.0, 4.0)
    ok = worst <= 1e-6 and control > 1e-3
    _report(6, ok, f"max N h'' + c h residual {worst:.2e} (<=1e-6) over 5 "
                   f"models x 4 exponents; inflated-c control {control:+.3f} (>0)")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_volume_ratio_bound_flat(mink2_data):
    t0 = time.perf_counter()
    m, spec, data = mink2_data["plain"]
    rep = bishop_gromov_check(data, 4.0, D_GRID)
    worst_lhs = worst_rhs = 0.0
    min_margin = np.inf
    for row in rep.results:
        q = row["r"] / row["R"]
        worst_lhs = max(worst_lhs, abs(row["lhs"] - q**3))
        worst_rhs = max(worst_rhs, abs(row["rhs"] - q**5))
        min_margin = min(min_margin, row["margin"])
    tight = bishop_gromov_check(data, 2.0 + 1e-3, [(0.5, 1.0)])
    tm = tight.results[0]["margin"]
    dt = time.perf_counter() - t0
    ok = (rep.verdict == "PASS" and worst_lhs < 1e-7 and worst_rhs < 1e-7
          and min_margin > 0 and 0 < tm < 2e-3 and dt < 60.0)
    _report(7, ok, f"lhs vs (r/R)^3 {worst_lhs:.2e}, rhs vs (r/R)^5 "
                   f"{worst_rhs:.2e} (<1e-7), min margin {min_margin:.4f} (>0) "
                   f"on 5x5 grid; N=n+1e-3 margin {tm:.2e} (<2e-3); "
                   f"{dt:.1f}s (<1min)")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_lower_volume_bound_weighted(mink2_data):
    m, spec, data = mink2_data["const"]
    eq = gunther_check(data, c=0.0, k=0.3)
    gap = abs(eq.results[0]["lhs"] - eq.results[0]["rhs"])

    m2, spec2, data2 = mink2_data["decaying"]
    ineq = gunther_check(data2, c=0.0, k=0.3)
    margin = ineq.results[0]["margin"]
    min_f = ineq.pointwise["min_f"]
    ok = (gap < 1e-7 and margin > 0 and min_f >= 1.0 - 1e-6
          and eq.verdict in ("PASS", "CONDITIONAL-PASS")
          and ineq.verdict in ("PASS", "CONDITIONAL-PASS"))
    _report(8, ok, f"constant weight |lhs-rhs| {gap:.2e} (<1e-7); "
                   f"decaying weight margin {margin:.4f} (>0), "
                   f"min f {min_f:.9f} (>=1-1e-6)")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_weighted_ratio_bound(mink2_data):
    m, spec, data = mink2_data["linear"]
    rep = bg_infinity_check(data, D_GRID, c=0.0, a=0.0)
    min_margin = min(row["margin"] for row in rep.results)
    res = rep.pointwise["lam_psi_residual"]
    ok = (min_margin >= -1e-7 and res <= 1e-6
          and rep.verdict in ("PASS", "CONDITIONAL-PASS"))
    _report(9, ok, f"psi = 0.5 x^0, a=0, c=0: min margin {min_margin:.4f} "
                   f"(>=-1e-7) on 5x5 grid; expansion residual {res:.2e} "
                   f"(<=1e-6)")


# ------------------------------------------------------------- criterion 10


def test_criterion_10_small_ball_bound(mink2_data):
    m, spec, data = mink2_data["plain"]
    rep = ball_bound_check(data, 0.05, [0.3, 0.6, 0.9], c=0.0)
    min_margin = min(row["margin"] for row in rep.results)
    conc = rep.pointwise["concavity_residual"]
    closed_ok = all(row["rhs_closed_form"] >= row["lhs"] for row in rep.results)
    ok = (rep.verdict == "PASS" and min_margin >= 0 and conc <= 1e-6
          and closed_ok)
    _report(10, ok, f"eps=0.05, r in {{0.3, 0.6, 0.9}}: min margin "
                    f"{min_margin:.3g} (>=0); concavity residual {conc:.2e} "
                    f"(<=1e-6); closed-form c=0 bound holds: {closed_ok}")


# ------------------------------------------------------------- criterion 11


def test_criterion_11_volume_oracle(mink2_data):
    worst = 0.0
    for key, (m, spec, data) in mink2_data.items():
        polar, _ = sclv_volume(data, 1.0)
        coord, _ = coordinate_volume(m, spec)
        worst = max(worst, abs(coord - polar) / polar)
    ok = worst < 1e-4
    _report(11, ok, f"max |coordinate - polar| / polar {worst:.2e} (<1e-4) "
                    f"over the four star regions of criteria 7-10")


# ------------------------------------------------------------- criterion 12


MINI_SCENARIO = """\
name: determinism
model:
  name: minkowski
  n: 1
  weight: [[linear_x0, 0.4]]
sclv:
  apex: [0.0, 0.0]
  radius: 0.6
  cut: 2.0
checks:
  bg: {N: 3.0, pairs: [[0.5, 1.0]]}
  gunther: {}
  bg_inf: {pairs: [[0.5, 1.0]]}
  ball: {eps: 0.05, r_grid: [0.5, 1.5]}
numerics:
  oracle: true
"""


def test_criterion_12_thread_determinism(tmp_path):
    scen = tmp_path / "determinism.yaml"
    scen.write_text(MINI_SCENARIO)
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        code = cli.main(["all", "--scenario", str(scen), "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = all((outs[0] / nm).read_bytes() == (outs[1] / nm).read_bytes()
                    for nm in names)
    rep = json.loads((outs[0] / "determinism-all.json").read_text())
    ok = identical and rep["schema"] == 1 and names
    _report(12, ok, f"`all` run twice: {len(names)} report files "
                    f"byte-identical: {identical}")
