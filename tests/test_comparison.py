"""Direction quadrature, polar volumes, and the four comparison checks.

Closed-form anchors: the direction patch is a Klein-model ball, so its
induced area has an elementary antiderivative; flat-space volumes scale
like r^{n+1}; the flat ratio bound margin at (r, R) = (1/2, 1) with N = 4
is exactly 1/8 - 1/32; the exponential-scale cosmology saturates the
flag-curvature volume bound.
"""

import json
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
        assert np.allclose(cmp._det(a), np.linalg.det(a), rtol=0, atol=1e-14)


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
    assert fans == [len(data.paths) + 1]
    assert data.center.flow is data.paths[0].flow and data.center.index == len(data.paths)
    assert np.array_equal(data.center.v0, cmp.center_direction(m, sclv))


def test_each_sample_set_takes_one_connection_pass(monkeypatch):
    # volumes and density sweeps read det A = det(V g J) from fundamental_tensor
    # alone, and the scan scalars project A, A' with their one order-5 pass, so
    # the only order-4 passes are the fan flow's own, over its Q + 1 rows
    from lfgeom import connection, jacobi
    real, calls = connection.eval_connection, []

    def counting(m, x, v, order=4, validate=True):
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(v)[:-1])
        calls.append((order, int(np.prod(batch))))
        return real(m, x, v, order, validate)

    for name, mod in list(sys.modules.items()):   # wherever a loaded lfgeom module holds it
        if name.split(".")[0] == "lfgeom" and getattr(mod, "eval_connection", None) is real:
            monkeypatch.setattr(mod, "eval_connection", counting)
    scen = load_scenario(SCENARIOS / "mink2_gunther_weighted.yaml")
    data = cmp.build_sclv_data(scen.model.build(), scen.sclv.build(),
                               scale=scen.numerics.quad_scale)
    Q = len(data.paths)
    assert (4, Q + 1) in calls
    for check in (lambda: cmp.bishop_gromov_check(data, 4.0, [(0.5, 1.0)]),
                  lambda: cmp.gunther_check(data, k=0.3),
                  lambda: cmp.bg_infinity_check(data, [(0.5, 1.0)]),
                  lambda: cmp.ball_bound_check(data, 0.05, [0.3, 0.6, 0.9])):
        check()   # the ball check reads psi of a constant weight, a scalar
        assert max(b for order, b in calls if order == 4) <= Q + 1
    calls.clear()
    jacobi.scalars_for_paths(data.paths, data.scan_grid, flag_range=True)
    assert calls == [(5, Q * data.scan_grid.size)]


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
