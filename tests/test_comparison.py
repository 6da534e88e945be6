"""Direction quadrature, polar volumes, and the four comparison checks.

Closed-form anchors: the direction patch is a Klein-model ball, so its
induced area has an elementary antiderivative; flat-space volumes scale
like r^{n+1}; the flat ratio bound margin at (r, R) = (1/2, 1) with N = 4
is exactly 1/8 - 1/32; the exponential-scale cosmology saturates the
flag-curvature volume bound.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lfgeom import cli, models
from lfgeom import comparison as cmp
from lfgeom.scenario import load_scenario

ATANH = np.arctanh
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def mink1():
    m = models.model_library("minkowski", 1)
    sclv = cmp.SCLVSpec(apex=np.zeros(2), radius=0.6, cut=2.0)
    return m, sclv, cmp.build_sclv_data(m, sclv)


@pytest.fixture(scope="module")
def mink1_linear_weight():
    m = models.model_library("minkowski", 1, weight=[("linear_x0", 0.4)])
    sclv = cmp.SCLVSpec(apex=np.zeros(2), radius=0.6, cut=2.0)
    return m, sclv, cmp.build_sclv_data(m, sclv)


@pytest.fixture(scope="module")
def mink2():
    m = models.model_library("minkowski", 2)
    sclv = cmp.SCLVSpec(apex=np.zeros(3), radius=0.5, cut=1.0)
    return m, sclv, cmp.build_sclv_data(m, sclv, scale=0.5)


@pytest.fixture(scope="module")
def desitter2():
    m = models.model_library("flrw", 2, scale="exp", H=0.7)
    sclv = cmp.SCLVSpec(apex=np.zeros(3), radius=0.4, cut=1.5)
    return m, sclv, cmp.build_sclv_data(m, sclv, scale=0.5)


@pytest.fixture(scope="module")
def boosted_sphere2():
    """Positive tangential flag curvature: center of the patch is a
    boosted direction in a static spatial-sphere model."""
    m = models.model_library("einstein_static", 2, radius=1.0)
    sclv = cmp.SCLVSpec(apex=np.array([0.0, 0.5, 0.0]), radius=0.08,
                        cut=1.5, center=np.array([0.375, 0.0]))
    return m, sclv, cmp.build_sclv_data(m, sclv, scale=0.5)


# ------------------------------------------------------------- quadrature


def test_patch_area_closed_form_n1(mink1):
    _, _, data = mink1
    assert abs(data.sigma - 2 * ATANH(0.6)) < 1e-10


def test_patch_area_closed_form_n2(mink2):
    # Klein-model area: int (1-s^2)^{-3/2} over the radius-1/2 disk
    _, _, data = mink2
    exact = 2 * np.pi * (1.0 / np.sqrt(1 - 0.25) - 1.0)
    assert abs(data.sigma - exact) < 1e-7  # 6-node Gauss on a non-polynomial


def test_quadrature_nodes_unit_and_refinement_stable(mink1):
    m, sclv, data = mink1
    L = models.lagrangian(m, np.broadcast_to(sclv.apex, data.quad.nodes.shape),
                          data.quad.nodes)
    assert np.max(np.abs(L + 1.0)) < 1e-12
    fine = cmp.build_quadrature(m, sclv, scale=2.0)
    assert abs(fine.sigma - data.sigma) < 1e-10


def test_patch_leaving_cone_rejected():
    m = models.model_library("minkowski", 1)
    with pytest.raises(ValueError, match="timelike cone"):
        cmp.build_quadrature(m, cmp.SCLVSpec(apex=np.zeros(2), radius=1.2, cut=1.0))


# ---------------------------------------------------------------- volumes


def test_patch_center_defaults_to_zero_and_needs_n_components():
    assert np.array_equal(cmp.SCLVSpec(apex=np.zeros(3), radius=0.5, cut=1.0).center,
                          np.zeros(2))
    with pytest.raises(ValueError, match="patch center needs 2 components"):
        cmp.SCLVSpec(apex=np.zeros(3), radius=0.5, cut=1.0, center=[0.1])


def test_flat_volume_closed_form_and_scaling(mink1, mink2):
    _, _, d1 = mink1
    vol, err = cmp.sclv_volume(d1, 1.0)
    assert abs(vol - 2 * ATANH(0.6) * 2.0**2 / 2) < 1e-12
    _, _, d2 = mink2
    v1, _ = cmp.sclv_volume(d2, 1.0)
    vr, _ = cmp.sclv_volume(d2, 0.37)
    assert abs(vr / v1 - 0.37**3) < 1e-9
    exact = 2 * np.pi * (1 / np.sqrt(0.75) - 1) / 3.0
    assert abs(v1 - exact) < 1e-8


def test_flat_volume_closed_form_n3():
    # det A = t^3 exactly, so the t-rule is exact at n = 3: the hyperbolic
    # ball of radius chi = artanh 0.3, times int_0^1 t^3 dt and e^{-0.3}
    m = models.model_library("minkowski", 3, weight=[("const", 0.3)])
    data = cmp.build_sclv_data(m, cmp.SCLVSpec(apex=np.zeros(4), radius=0.3, cut=1.0))
    assert data.scalars.detA.shape == (768, data.scan_grid.size)
    chi = ATANH(0.3)
    exact = np.exp(-0.3) * np.pi * (np.sinh(2 * chi) - 2 * chi) / 4
    v1, _ = cmp.sclv_volume(data, 1.0)
    assert abs(v1 - exact) <= 1e-12 * exact
    assert abs(cmp.sclv_volume(data, 0.5)[0] / v1 - 1 / 16) <= 1e-12


def test_t_error_covers_a_doubled_node_count():
    # the t-error a volume reports is never below its move when the node
    # count doubles (M = 33 -> 2M - 1 = 65 Lobatto points); this scenario
    # moves most of the bundled ones
    scen = load_scenario(SCENARIOS / "boosted_sphere_gunther_fail.yaml")
    m, sclv, scale = scen.model.build(), scen.sclv.build(), scen.numerics.quad_scale
    data = cmp.build_sclv_data(m, sclv, scale=scale)
    fine = cmp.build_sclv_data(m, sclv, scale=scale, t_nodes=2 * cmp.T_NODES)
    assert data.scan_grid.size == cmp.T_NODES + 8
    for r in (0.3, 0.5, 1.0):
        vol, err = cmp.sclv_volume(data, r)
        moved = abs(vol - cmp.sclv_volume(fine, r)[0])
        assert moved > 0.0 and err >= moved
    row = cmp.gunther_check(data).results[0]
    assert row["tol"] - cmp.RATIO_TOL_FLOOR >= abs(row["lhs"] - cmp.sclv_volume(fine, 1.0)[0])


def test_constant_weight_scales_volume(mink1):
    m, sclv, data = mink1
    mw = models.model_library("minkowski", 1, weight=[("const", 0.7)])
    dw = cmp.build_sclv_data(mw, sclv)
    v0, _ = cmp.sclv_volume(data, 0.8)
    vw, _ = cmp.sclv_volume(dw, 0.8)
    assert abs(vw - np.exp(-0.7) * v0) < 1e-12 * v0


def test_volume_rejects_bad_scale(mink1):
    _, _, data = mink1
    with pytest.raises(ValueError):
        cmp.sclv_volume(data, 1.5)


def test_coordinate_route_matches_polar_n1():
    m = models.model_library("minkowski", 1,
                             weight=[("linear_x0", 0.3), ("boost_ratio", 0.2)])
    sclv = cmp.SCLVSpec(apex=np.array([0.1, -0.2]), radius=0.5, cut=1.5)
    data = cmp.build_sclv_data(m, sclv)
    vol, _ = cmp.sclv_volume(data, 1.0)
    direct, _ = cmp.coordinate_volume(m, sclv)
    assert abs(direct - vol) < 1e-4 * vol


def test_coordinate_route_matches_polar_n2(mink2):
    m, sclv, data = mink2
    vol, _ = cmp.sclv_volume(data, 1.0)
    direct, _ = cmp.coordinate_volume(m, sclv)
    assert abs(direct - vol) < 1e-4 * vol


def test_coordinate_route_anisotropic_n2():
    m = models.model_library("quartic_finsler", 2, eps=0.15)
    sclv = cmp.SCLVSpec(apex=np.zeros(3), radius=0.4, cut=1.0)
    data = cmp.build_sclv_data(m, sclv, scale=0.5)
    vol, _ = cmp.sclv_volume(data, 1.0)
    direct, _ = cmp.coordinate_volume(m, sclv)
    assert abs(direct - vol) < 1e-4 * vol


def test_fd4_stencils_are_exact_on_quartics():
    # the central stencil and both one-sided ones at each end: every node of a
    # non-periodic axis is differenced without a sample outside the grid
    x = np.linspace(-0.7, 1.3, 9)
    f = 1.5 - 2 * x + 0.5 * x**2 + 3 * x**3 - 1.25 * x**4
    df = -2 + x + 9 * x**2 - 5 * x**3
    assert np.allclose(cmp._fd4(f, x[1] - x[0], axis=0), df, rtol=0, atol=1e-12)
    stacked = np.stack([f, 2 * f])          # along a non-leading axis too
    assert np.allclose(cmp._fd4(stacked, x[1] - x[0], axis=1),
                       np.stack([df, 2 * df]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("nt,nchart,nphi", [(48, 25, 32), (47, 25, 32), (49, 23, 32),
                                            (49, 5, 32), (49, 25, 31), (49, 25, 14)])
def test_coordinate_volume_rejects_grids_without_a_nested_half(mink2, nt, nchart, nphi):
    m, sclv, _ = mink2
    with pytest.raises(ValueError):
        cmp.coordinate_volume(m, sclv, nt=nt, nchart=nchart, nphi=nphi)


def _flat_sclv(n, R):
    return cmp.SCLVSpec(apex=np.zeros(n + 1), radius=R, cut=1.0)


@pytest.mark.parametrize("n,R,k", [(2, 0.3, 0.3), (2, 0.5, 0.3), (2, 0.8, 0.3),
                                   (1, 0.3, 0.0)])
def test_coordinate_error_bounds_the_closed_form_error(n, R, k):
    # flat 1+1 and 2+1 with constant weight k, T = 1: where the grid is
    # asymptotic, the Richardson value lies within its own estimate
    m = models.model_library("minkowski", n, weight=[("const", k)] if k else None)
    exact = (np.arctanh(R) if n == 1 else
             np.exp(-k) * (2 * np.pi / 3) * ((1 - R * R) ** -0.5 - 1))
    direct, err = cmp.coordinate_volume(m, _flat_sclv(n, R))
    assert abs(direct - exact) <= err


@pytest.mark.parametrize("name", ["mink2_bg_anchor", "flrw1_cosh_all"])
def test_coordinate_error_bounds_the_fine_grid_move(name):
    scen = load_scenario(SCENARIOS / f"{name}.yaml")
    m, sclv = scen.model.build(), scen.sclv.build()
    direct, err = cmp.coordinate_volume(m, sclv)
    fine, _ = cmp.coordinate_volume(m, sclv, nt=97, nchart=49, nphi=64)
    assert abs(direct - fine) <= err


@pytest.mark.parametrize("name", ["flrw1_cosh_all", "mink2_gunther_weighted"])
def test_coordinate_volume_is_the_same_bits_at_any_block_size(monkeypatch, name):
    # blocks of 1, 2 and 5 t-nodes (ragged last blocks) and the whole grid in one
    scen = load_scenario(SCENARIOS / f"{name}.yaml")
    m, sclv = scen.model.build(), scen.sclv.build()
    rays = 25 if m.n == 1 else 25 * 32
    results = []
    for nodes in (1, 2, 5, 49):
        monkeypatch.setattr(cmp.geodesics, "SCAN_BLOCK", rays * nodes)
        results.append(cmp.coordinate_volume(m, sclv))
    assert all(r == results[0] for r in results), results


def test_eval_blocks_reads_eval_all_bits_in_any_blocking(monkeypatch):
    # the oracle's own flow, read in blocks of directions, of times and of both
    scen = load_scenario(SCENARIOS / "desitter2_gunther.yaml")
    m, sclv = scen.model.build(), scen.sclv.build()
    flows, real = [], cmp.radial_flow
    monkeypatch.setattr(cmp, "radial_flow", lambda *a, **k: flows.append(real(*a, **k)) or flows[-1])
    cmp.coordinate_volume(m, sclv)
    (flow,) = flows
    ts = np.linspace(0.0, float(sclv.cut), 49)
    whole = flow.eval(np.arange(len(flow.dirs)), ts)
    ids = [np.arange(len(flow.dirs)), np.arange(3, len(flow.dirs), 7), np.array([5])]
    spans = [slice(0, 49), slice(0, 1), slice(1, 3), slice(3, 8), slice(8, 49)]
    blocks = [(i, span) for i in ids for span in spans]
    for (i, span), st in zip(blocks, flow.eval_blocks(blocks, ts)):
        for key, val in st.items():
            assert val.tobytes() == np.ascontiguousarray(whole[key][i][:, span]).tobytes(), key


def test_coordinate_volume_peak_memory_does_not_follow_nt(tmp_path):
    # the oracle's traced peak as scripts/memory_profile.py reads it (every
    # live allocation during the call, in a fresh `lfgeom all` process):
    # 3.2 MB at nt = 49 and 3.5 MB at 97 here; the whole-grid oracle this
    # replaced held 12.4 MB at 49
    code = f"""
import tracemalloc
from lfgeom import cli, comparison
real, peaks = comparison.coordinate_volume, []
def oracle(*args, **kw):
    for nt in (49, 97):
        tracemalloc.reset_peak()
        out = real(*args, **dict(kw, nt=nt))
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    return out
comparison.coordinate_volume = oracle
tracemalloc.start()
assert cli.main(["all", "--scenario", {str(SCENARIOS / "mink2_bg_anchor.yaml")!r},
                 "--out", {str(tmp_path)!r}]) == 0
print(*peaks)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SCENARIOS.parent / "src")] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    peak49, peak97 = map(float, proc.stdout.split()[-2:])
    assert peak49 <= 4.0 and peak97 <= 1.1 * peak49, (peak49, peak97)


@pytest.mark.parametrize("R,verdict", [(0.9, "FAIL"), (0.5, "PASS")])
def test_oracle_catches_a_coarse_polar_quadrature(R, verdict):
    # at quad_scale 0.5 the 48-direction polar volume is 2.3e-3 low at R = 0.9
    # (2.00340 against the closed form 2.0079706); the oracle must see it
    m = models.model_library("minkowski", 2, weight=[("const", 0.3)])
    entry = cli._oracle_entry(cmp.build_sclv_data(m, _flat_sclv(2, R), scale=0.5))
    assert entry["verdict"] == verdict
    if verdict == "FAIL":
        assert 1e-3 < entry["rel_diff"] < 4e-3
    else:
        assert entry["rel_diff"] < 1e-5


def test_closed_form_determinants_match_lapack():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        a = rng.normal(size=(5, 7, d, d))
        assert np.allclose(cmp._det(np.moveaxis(a, -1, 0)), np.linalg.det(a),
                           rtol=0, atol=1e-14)


# ------------------------------------------------------- finite-N ratio


def test_ratio_bound_flat_anchor(mink2):
    _, _, data = mink2
    rep = cmp.bishop_gromov_check(data, 4.0, [(0.5, 1.0)])
    assert rep.verdict == "PASS"
    row = rep.results[0]
    assert abs(row["lhs"] - 0.125) < 1e-9
    assert abs(row["rhs"] - 0.03125) < 1e-9
    assert abs(row["margin"] - 0.09375) < 1e-9
    assert rep.pointwise["hric_residual"] <= 1e-6
    assert rep.pointwise["monotone_ok"]


def test_ratio_bound_tight_as_N_drops(mink2):
    _, _, data = mink2
    N = 2.0 + 1e-3
    rep = cmp.bishop_gromov_check(data, N, [(0.5, 1.0)])
    assert rep.verdict == "PASS"
    margin = rep.results[0]["margin"]
    assert 0 <= margin < 2e-3
    assert abs(margin - (0.125 - 0.5 ** (N + 1))) < 1e-9


def test_ratio_bound_equal_radii_is_exact(mink1):
    _, _, data = mink1
    rep = cmp.bishop_gromov_check(data, 3.0, [(0.6, 0.6)])
    assert abs(rep.results[0]["margin"]) < 1e-12


def test_ratio_bound_rejects_bad_arguments(mink1):
    _, _, data = mink1
    with pytest.raises(ValueError, match="N in"):
        cmp.bishop_gromov_check(data, 1.0, [(0.5, 1.0)])
    with pytest.raises(ValueError, match="0 < r"):
        cmp.bishop_gromov_check(data, 3.0, [(0.9, 0.5)])


def test_ratio_bound_user_override_goes_conditional(mink1):
    _, _, data = mink1
    rep = cmp.bishop_gromov_check(data, 3.0, [(0.5, 1.0)], c=-0.2)
    # weaker-than-scanned bound: still certified, so a plain PASS
    assert rep.verdict == "PASS" and not rep.notes
    rep = cmp.bishop_gromov_check(data, 3.0, [(0.5, 1.0)], c=0.3)
    # stronger than flat space allows: hypothesis fails pointwise
    assert rep.verdict == "FAIL" and rep.notes


# ------------------------------------------------------ flag-bound volume


def test_flag_bound_flat_equality(mink1):
    _, _, data = mink1
    rep = cmp.gunther_check(data)
    row = rep.results[0]
    assert rep.verdict == "PASS"
    assert abs(row["margin"]) < 1e-7 * row["lhs"]
    assert rep.pointwise["min_f"] >= 1 - 1e-6


def test_flag_bound_weighted_strict(mink1_linear_weight):
    _, _, data = mink1_linear_weight
    rep = cmp.gunther_check(data)
    assert rep.verdict == "PASS"
    assert rep.results[0]["margin"] > 0.1
    # sup psi = 0.4 b max(v^0) ~ 0.8 / sqrt(1 - 0.6^2), shy of the patch edge
    assert 0.95 < rep.bounds["k"] <= 0.8 / np.sqrt(1 - 0.36)


def test_flag_bound_exponential_scale_saturates(desitter2):
    m, _, data = desitter2
    rep = cmp.gunther_check(data)
    row = rep.results[0]
    assert rep.verdict == "PASS"
    assert abs(rep.bounds["c"] - 0.49) < 1e-6
    assert abs(row["margin"]) < 1e-8 * row["lhs"]
    assert rep.pointwise["min_f"] >= 1 - 1e-6


def test_flag_bound_positive_curvature_fails(boosted_sphere2):
    _, _, data = boosted_sphere2
    rep = cmp.gunther_check(data)
    assert rep.verdict == "FAIL"
    assert any("no admissible c" in note for note in rep.notes)
    scan = rep.bounds["scan"]
    assert scan["sup_flag"] > 0.1


# ------------------------------------------------------- N = infinity ratio


def test_inf_ratio_flat_saturates(mink1):
    _, _, data = mink1
    rep = cmp.bg_infinity_check(data, [(0.5, 1.0)])
    assert rep.verdict == "PASS"
    assert abs(rep.results[0]["margin"]) < 1e-9
    assert rep.pointwise["lam_psi_residual"] < 1e-9


def test_inf_ratio_weighted(mink1_linear_weight):
    _, _, data = mink1_linear_weight
    rep = cmp.bg_infinity_check(data, [(0.5, 1.0)])
    assert rep.verdict == "PASS"
    assert rep.results[0]["margin"] > 0
    assert rep.pointwise["lam_psi_residual"] <= 1e-6
    assert abs(rep.bounds["a"] + 0.4) < 1e-3  # a = -inf psi' ~ -0.4 v^0_min


def test_inf_ratio_false_claim_detected(mink1_linear_weight):
    _, _, data = mink1_linear_weight
    rep = cmp.bg_infinity_check(data, [(0.5, 1.0)], c=0.5)
    assert rep.verdict == "FAIL"
    assert rep.pointwise["lam_psi_residual"] > 1e-3
    rep = cmp.bg_infinity_check(data, [(0.5, 1.0)], a=-1.0)
    assert rep.verdict == "FAIL"


# ------------------------------------------------------------- ball bound


def test_ball_bound_flat(mink1):
    _, _, data = mink1
    rep = cmp.ball_bound_check(data, 0.05, [0.5, 1.5])
    assert rep.verdict == "PASS"
    eps, C0 = rep.bounds["eps"], rep.bounds["C0"]
    assert abs(C0 + np.log(eps) / eps) < 1e-9   # f(t) = t in one dimension
    for row in rep.results:
        assert row["lhs"] <= row["rhs"] + row["tol"]
        assert "rhs_closed_form" in row and row["rhs_closed_form"] >= row["rhs"]
    assert rep.pointwise["concavity_residual"] <= 0


def test_gauss_rule_is_numpys_leggauss():
    # numpy >= 1.24 and 2.x run leggauss in the ported order, so the rule is theirs
    # bit for bit; a numpy that reorders those operations may round a few ulps apart
    from numpy.polynomial.legendre import leggauss
    same_order = int(np.__version__.split(".")[0]) <= 2
    for k in [*range(4, 161), 128]:
        x, w = cmp._gauss_rule(k)
        ref_x, ref_w = leggauss(k)
        for ours, ref in ((x, ref_x), (w, ref_w)):
            assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.abs(ref))), k
            if same_order:
                assert np.array_equal(ours, ref), k
        assert not (x.flags.writeable or w.flags.writeable)


def test_growth_integral_closed_form():
    mp = pytest.importorskip("mpmath")
    # long double exponents give ~1e-16; plain float64 ones a few 1e-14
    tol = 1e-14 if np.finfo(np.longdouble).nmant >= 63 else 5e-14
    cases = [(119.82929094215964, 0.0, 0.2, 0.9),              # c = 0
             (82.9683890240796, -0.3081132816291753, 0.16, 1.1),  # c < 0
             (60.0, 0.5, 0.2, 1.5),     # c > 0, before the peak t0 = 120
             (8.0, 10.0, 0.2, 1.5),     # across the peak t0 = 0.8
             (8.0, 80.0, 0.2, 1.5)]     # past the peak t0 = 0.1
    for C0, c, lo, hi in cases:
        with mp.workdps(50):
            cuts = [lo, C0 / c, hi] if c > 0 and lo < C0 / c < hi else [lo, hi]
            exact = mp.quad(lambda t: mp.exp(C0 * t - c * t * t / 2), cuts)
            assert abs(cmp._growth_integral(C0, c, lo, hi) - exact) <= tol * exact
    # an overflowing bound reads inf on every branch, never NaN
    with np.errstate(over="ignore"):
        for C0, c, lo, hi in [(800.0, 0.0, 0.2, 1.5), (800.0, -0.3, 0.2, 1.5),
                              (800.0, 0.5, 0.2, 1.5), (2000.0, 1600.0, 0.2, 1.5),
                              (4000.0, 4000.0, 1.2, 1.5)]:
            assert cmp._growth_integral(C0, c, lo, hi) == np.inf


def test_erfcx_dawson_and_erf_match_mpmath():
    mp = pytest.importorskip("mpmath")
    # each side of every regime switch: 0.2 and 8 for Dawson, 26 for erfcx
    edges = [np.nextafter(e, d) for e in (0.2, 8.0, 26.0) for d in (0.0, np.inf)]
    xs = np.unique(np.concatenate([np.linspace(0.0, 40.0, 1601), np.geomspace(1e-8, 1e3, 401),
                                   [0.2, 8.0, 26.0], edges]))
    ref = {"erfcx": lambda x: mp.exp(x * x) * mp.erfc(x),
           "dawson": lambda x: mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x),
           "erf": mp.erf}
    ours = {"erfcx": cmp._erfcx, "dawson": cmp._dawson, "erf": math.erf}
    with mp.workdps(40):
        for name, f in ours.items():
            worst = max(abs(mp.mpf(f(float(x))) / ref[name](mp.mpf(float(x))) - 1)
                        for x in xs[1:])
            assert worst <= 2e-15, name
    assert cmp._dawson(0.0) == 0.0 and cmp._erfcx(0.0) == 1.0


def test_ball_bound_halves_epsilon(mink1):
    _, _, data = mink1
    rep = cmp.ball_bound_check(data, 1.9, [1.0])
    assert rep.verdict == "PASS"
    assert any("halved" in note for note in rep.notes)
    assert 4 * rep.bounds["eps"] < 1.0


def test_ball_bound_false_concavity_claim(mink1):
    _, _, data = mink1
    rep = cmp.ball_bound_check(data, 0.05, [1.0], c=0.5)
    assert rep.verdict == "FAIL"
    assert rep.pointwise["concavity_residual"] > 0.2


def test_ball_bound_r_beyond_cut_rejected(mink1):
    _, _, data = mink1
    with pytest.raises(ValueError, match="validity"):
        cmp.ball_bound_check(data, 0.05, [2.5])


# ----------------------------------------------------------------- guards


def test_cut_beyond_validity_is_rejected():
    m = models.model_library("flrw", 1, scale="affine", a0=1.0, q=-0.4)
    sclv = cmp.SCLVSpec(apex=np.zeros(2), radius=0.3, cut=3.0)
    with pytest.raises(ValueError, match="not an SCLV"):
        cmp.build_sclv_data(m, sclv)


@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_cut_beyond_conjugate_point_is_rejected(n):
    # boosted directions on the static unit sphere: direction v meets its
    # conjugate point, the apex's antipode, at t* = pi / (spatial speed of v);
    # the fan's earliest t* is ~3.41 (n = 2) or ~3.55 (n = 3), before the cut.
    # On S^3 the two transverse Jacobi fields vanish together, so det A only
    # touches zero there.
    m = models.model_library("einstein_static", n, radius=1.0)
    apex = np.zeros(n + 1)
    apex[1] = 0.5 if n == 2 else 0.49918
    center = np.zeros(n)
    center[1] = 0.375
    sclv = cmp.SCLVSpec(apex=apex, radius=0.05, cut=4.5, center=center)
    with pytest.raises(ValueError, match=r"direction \d+ \(reaches t=[\d.]+, "
                                         r"conjugate point\); not an SCLV") as exc:
        cmp.build_sclv_data(m, sclv, scale=0.5)
    where = exc.value.__cause__
    nodes = cmp.build_quadrature(m, sclv, 0.5).nodes
    speed = 2.0 / (1.0 + apex[1] ** 2) * np.linalg.norm(nodes[:, 1:], axis=1)
    t_star = np.pi / speed
    assert abs(where.t - t_star[where.index]) < 1e-6
    assert abs(where.t - t_star.min()) < 1e-6
    if n == 3:   # a cut short of every direction's conjugate point is an SCLV
        sclv.cut = 3.5
        cmp.build_sclv_data(m, sclv, scale=0.5)


def test_sclv_fan_is_integrated_once(monkeypatch):
    from lfgeom import geodesics, jacobi
    real, fans = geodesics.radial_flow, []

    def counting(m, x0, dirs, *args, **kw):
        fans.append(len(dirs))
        return real(m, x0, dirs, *args, **kw)

    for mod in (geodesics, jacobi, cmp):
        monkeypatch.setattr(mod, "radial_flow", counting)
    m = models.model_library("minkowski", 1)
    sclv = cmp.SCLVSpec(apex=np.zeros(2), radius=0.6, cut=2.0)
    data = cmp.build_sclv_data(m, sclv, scale=0.25)
    # the Q quadrature nodes and, as row Q, the patch center
    Q = len(data.quad.nodes)
    assert fans == [Q + 1] and len(data.flow.dirs) == Q + 1
    assert data.center.flow is data.flow and data.center.index == Q
    assert np.array_equal(data.center.v0, cmp.center_direction(m, sclv))


def test_each_sample_set_takes_one_connection_pass(monkeypatch):
    # the scan scalars project A, A' from their order-5 passes, and every
    # volume, scan and sweep reads those samples, so past the fan flow's own
    # order-4 pass over its Q + 1 rows no check makes a connection pass; the
    # order-5 passes partition the Q x grid points into blocks of whole
    # paths; comparison reads g itself only at the apex (the direction rule)
    # and in the ball check's epsilon search, at one time per path
    from lfgeom import connection, jacobi
    real, calls = connection.eval_connection, []
    real_g, reads = models.fundamental_tensor, []

    def counting(m, x, v, order=4, validate=True):
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(v)[:-1])
        calls.append((order, int(np.prod(batch))))
        return real(m, x, v, order, validate)

    def reading(module):
        def fundamental_tensor(m, x, v):
            reads.append((module, np.shape(x)[:-1], bool(np.all(x == sclv.apex))))
            return real_g(m, x, v)
        return fundamental_tensor

    def polar_reads():
        return [shape for module, shape, at_apex in reads
                if module == "lfgeom.comparison" and not at_apex]

    for name, mod in list(sys.modules.items()):   # wherever a loaded lfgeom module holds it
        if name.split(".")[0] == "lfgeom":
            if getattr(mod, "eval_connection", None) is real:
                monkeypatch.setattr(mod, "eval_connection", counting)
            if getattr(mod, "fundamental_tensor", None) is real_g:
                monkeypatch.setattr(mod, "fundamental_tensor", reading(name))
    scen = load_scenario(SCENARIOS / "mink2_gunther_weighted.yaml")
    sclv = scen.sclv.build()
    data = cmp.build_sclv_data(scen.model.build(), sclv, scale=scen.numerics.quad_scale)
    Q = len(data.quad.nodes)
    assert (4, Q + 1) in calls
    assert ("lfgeom.comparison", (Q,), True) in reads and polar_reads() == []
    for check in (lambda: cmp.bishop_gromov_check(data, 4.0, [(0.5, 1.0)]),
                  lambda: cmp.gunther_check(data, k=0.3),
                  lambda: cmp.bg_infinity_check(data, [(0.5, 1.0)])):
        calls.clear()
        check()
        assert calls == [] and polar_reads() == []
    cmp.ball_bound_check(data, 0.05, [0.3, 0.6, 0.9])
    assert calls == []
    assert polar_reads() and all(shape == (Q, 1) for shape in polar_reads())
    calls.clear()
    reads.clear()
    cmp.sclv_volume(data, 0.37)     # an r no check asked for
    assert calls == [] and reads == []
    nt = data.scan_grid.size
    for block in (jacobi.BLOCK, 7 * nt, nt - 1):    # the default, uneven, under one path
        monkeypatch.setattr(jacobi, "BLOCK", block)
        calls.clear()
        jacobi.scalars_for_paths(data.flow, np.arange(Q), data.scan_grid)
        widths = [b for order, b in calls if order == 5]
        assert len(widths) == len(calls) and sum(widths) == Q * nt
        assert all(b % nt == 0 and (b <= block or b == nt) for b in widths)


def _blocked_values(data):
    """Every value a pass over the fan feeds: the scan scalars and flag range,
    the polar density, a volume and the reports of all four checks."""
    from lfgeom import jacobi
    scalars = jacobi.scalars_for_paths(data.flow, np.arange(len(data.quad.nodes)), data.scan_grid)
    data = dataclasses.replace(data, scalars=scalars)
    fields = [getattr(scalars, f.name) for f in dataclasses.fields(scalars)]
    arrays = [*fields, *cmp._density(data, np.linspace(0.01, data.b, 37))]
    reports = [cmp.bishop_gromov_check(data, data.model.n + 2.0, [(0.5, 1.0)]),
               cmp.gunther_check(data),
               cmp.bg_infinity_check(data, [(0.5, 1.0)]),
               cmp.ball_bound_check(data, 0.05, [0.3, 0.6, 0.9])]
    return arrays, cmp.sclv_volume(data, 0.8), [r.to_dict() for r in reports]


@pytest.mark.parametrize("case", ["mink2_gunther_weighted", "quartic_flrw_n3"])
def test_blocked_passes_are_bit_identical(case, monkeypatch):
    # the scan scalars and the polar density stream the fan in blocks of whole
    # paths; one path per block, and blocks that split Q unevenly, give the
    # same bits as the default blocks
    from lfgeom import jacobi
    if case == "quartic_flrw_n3":
        m = models.model_library("quartic_flrw", 3, eps=0.05, H=0.1,
                                 weight=[("linear_x0", 0.4)])
        sclv = cmp.SCLVSpec(apex=np.zeros(4), radius=0.3, cut=1.0)
        scale = 0.25
    else:
        scen = load_scenario(SCENARIOS / f"{case}.yaml")
        m, sclv, scale = scen.model.build(), scen.sclv.build(), scen.numerics.quad_scale
    data = cmp.build_sclv_data(m, sclv, scale=scale)
    Q, nt = len(data.quad.nodes), data.scan_grid.size
    assert Q * nt > jacobi.BLOCK        # the default splits the scan pass
    arrays, vol, reports = _blocked_values(data)
    for block in (1, 5 * nt):           # one path per block; 5 paths, Q % 5 != 0
        assert Q % 5
        monkeypatch.setattr(jacobi, "BLOCK", block)
        got_arrays, got_vol, got_reports = _blocked_values(data)
        assert len(got_arrays) == len(arrays)
        assert all(np.array_equal(a, b) for a, b in zip(got_arrays, arrays))
        assert got_vol == vol
        assert json.dumps(got_reports) == json.dumps(reports)


def test_one_pass_serves_the_center_and_the_nodes():
    # the cli's center scalars (riccati_quantities on data.center) and the
    # checks' node scalars (data.scalars) are rows of one pass over the fan
    from lfgeom import jacobi
    scen = load_scenario(SCENARIOS / "mink2_gunther_weighted.yaml")
    data = cmp.build_sclv_data(scen.model.build(), scen.sclv.build(),
                               scale=scen.numerics.quad_scale)
    Q = len(data.quad.nodes)
    every = np.arange(Q + 1)
    for ts in (np.linspace(data.b / 64, data.b, 64), data.scan_grid):
        fan = jacobi.scalars_for_paths(data.flow, every, ts)
        one = jacobi.riccati_quantities(data.center, ts)
        for f in dataclasses.fields(fan):
            got, want = getattr(one, f.name), getattr(fan, f.name)
            if f.name not in ("n", "ts"):
                assert np.shape(want)[0] == Q + 1
                want = want[Q]
            assert np.shape(got) == np.shape(want), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
    for f in dataclasses.fields(fan)[2:]:
        assert getattr(fan, f.name)[:Q].tobytes() == getattr(data.scalars, f.name).tobytes()


# ---------------------------------------------------------------- reports


def test_report_serializes_to_json(mink1):
    _, _, data = mink1
    rep = cmp.bishop_gromov_check(data, 3.0, [(0.5, 1.0)])
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["check"] == "bg" and back["verdict"] == "PASS"
    assert back["bounds"]["scan"]["directions"] == 32


def test_scan_reports_radial_bounds(desitter2):
    _, _, data = desitter2
    scan = cmp.radial_bound_scan(data, N=np.inf)
    # every radial flag eigenvalue is -H^2; Ricci = n * (-H^2)
    assert abs(scan["sup_flag"] + 0.49) < 1e-6
    assert abs(scan["inf_flag"] + 0.49) < 1e-6
    assert abs(scan["inf_ric_inf"] + 2 * 0.49) < 1e-5
    assert scan["inf_ric_N"] == scan["inf_ric_inf"]
