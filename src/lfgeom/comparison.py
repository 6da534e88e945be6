r"""SCLV direction quadrature, polar volumes, and volume-comparison checks.

A star-shaped causally-localized set is described radially: an apex, a
compact patch of unit future-timelike directions (chart: spatial offset
p = center + s u on the slice {w0 = 1}, then v = w/F(w) onto {F = 1}),
and a constant cut value b giving the radial extent.  Volumes are
computed by the polar decomposition

    rho(U) = \int_patch \int_0^b e^{-psi(t)} det A(t) dt dsigma(v),

where sigma is the g_v-induced area form on the unit hyperboloid and A
= V g J is the frame Jacobi tensor, so the density needs the metric g
alone.  The fan's data are therefore (direction x t) arrays, sampled by
one pass over the fan, and every volume, scan and check below reduces
them along their axes.  An independent coordinate-space route
(forward-mapping a fine polar grid and integrating the model measure
with a finite-difference Jacobian) cross-checks the decomposition.

The four checks mirror the comparison statements: the finite-N volume
ratio bound, the lower (flag-curvature) bound, the N = infinity ratio
bound, and the future-ball growth bound, each with its hypothesis scan,
pointwise residual checks, and PASS / CONDITIONAL-PASS / FAIL verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geodesics, jets as jr
from .curvature import ric_N
from .geodesics import CONJUGATE_POINT, DEFAULT_ATOL, DEFAULT_RTOL, RadialFlow, radial_flow
from .jacobi import (
    HEAD,
    JacobiPath,
    PathScalars,
    ValidityExit,
    check_concavity,
    check_hric,
    gunther_f,
    monotone_ratio_check,
    path_blocks,
    s_kappa,
    s_kappa_prime,
    sample_grid,
    scalars_for_paths,
    variational_paths,
    weighted_density,
)
from .models import FinslerModel, classify, fundamental_tensor, lagrangian, weight
from .ode import simpson

__all__ = [
    "SCLVSpec",
    "DirectionQuadrature",
    "SCLVData",
    "ComparisonReport",
    "ComparisonAbort",
    "build_quadrature",
    "center_direction",
    "build_sclv_data",
    "sclv_volume",
    "radial_bound_scan",
    "bishop_gromov_check",
    "gunther_check",
    "bg_infinity_check",
    "ball_bound_check",
    "coordinate_volume",
]

QUAD_COUNTS = {1: (32,), 2: (12, 16), 3: (8, 8, 12)}
T_NODES = 32         # Chebyshev nodes per direction on (0, b]: every t-integral, scan and sweep
POINTWISE_TOL = 1e-6
RATIO_TOL_FLOOR = 1e-9
EPS_HALVING_STEPS = 12


class ComparisonAbort(RuntimeError):
    """Numerical abort: the check could not be carried out as posed."""


@dataclass
class SCLVSpec:
    """Radial description of a star-shaped causally-localized set."""

    apex: np.ndarray
    radius: float                  # chart radius of the direction patch
    cut: float                     # constant cut value b
    center: np.ndarray | None = None   # spatial chart offset of patch center (default 0)

    def __post_init__(self):
        self.apex = np.asarray(self.apex, dtype=float)
        n = len(self.apex) - 1
        self.center = np.zeros(n) if self.center is None else np.asarray(self.center, dtype=float)
        if self.center.shape != (n,):
            raise ValueError(f"patch center needs {n} components, got {self.center.size}")
        if self.radius <= 0 or self.cut <= 0:
            raise ValueError("patch radius and cut value must be positive")


@dataclass
class DirectionQuadrature:
    nodes: np.ndarray      # (Q, d) unit future-timelike directions
    weights: np.ndarray    # (Q,) dsigma weights
    params: np.ndarray     # (Q, n) chart parameters
    counts: tuple

    @property
    def sigma(self) -> float:
        return float(np.sum(self.weights))


def _chart_jets(m, sclv, params):
    """Direction jets v(theta) = w/F(w) and their chart derivatives."""
    n, d = m.n, m.dim
    center = sclv.center
    sp = jr.jetspace(n, 1)
    th = jr.lift(sp, [params[:, a] for a in range(n)], list(range(n)))
    if n == 1:
        p = [th[0]]
    elif n == 2:
        s, phi = th
        p = [center[0] + s * jr.cos(phi), center[1] + s * jr.sin(phi)]
    else:
        s, mu, phi = th
        root = jr.sqrt(1.0 - mu * mu)
        p = [center[0] + s * root * jr.cos(phi),
             center[1] + s * root * jr.sin(phi),
             center[2] + s * mu]
    w = [1.0] + p
    apex_c = [float(c) for c in sclv.apex]
    L0 = np.asarray(m.L_fn(apex_c, [np.ones_like(params[:, 0])]
                           + [c.coeffs[0] for c in p]))
    if np.max(L0) >= 0:
        bad = int(np.argmax(L0))
        raise ValueError(
            f"direction patch leaves the future timelike cone "
            f"(ray {bad} has L={L0.ravel()[bad]:.3g}); shrink the radius")
    L = m.L_fn(apex_c, w)
    F = jr.sqrt(-L)
    vj = [c / F for c in w]
    vals = np.stack([v.coeffs[0] for v in vj], axis=-1)          # (Q, d)
    grads = np.stack([jr.gradient(v) for v in vj], axis=-1)      # (n, Q, d)
    return vals, np.moveaxis(grads, 0, 1)                        # (Q, n, d)


def _legval(x, c):
    """sum_k c[k] P_k(x) for len(c) >= 2 by Clenshaw's recurrence, as numpy's `legval`."""
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.cache
def _gauss_rule(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], once per node count (read-only: shared).

    The float operations of numpy's ``polynomial.legendre.leggauss`` in its
    order, so the rule is numpy's bit for bit without importing
    ``numpy.polynomial``: the eigenvalues of the symmetric tridiagonal
    companion matrix of P_nodes (Golub & Welsch, Math. Comp. 23, 1969), one
    Newton step on P_nodes / P'_nodes, the weights 1 / (P_{nodes-1} P'_nodes)
    with both factors scaled to a unit maximum, then symmetrisation and
    normalisation to total 2.  P'_n = sum (2k + 1) P_k over k = n-1, n-3, ...
    """
    k = np.arange(nodes)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = np.arange(1, nodes) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(nodes + 1)
    c[-1] = 1.0
    dy = _legval(x, c)
    df = _legval(x, np.where((nodes - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_quadrature(m: FinslerModel, sclv: SCLVSpec, scale=1.0) -> DirectionQuadrature:
    """Product quadrature for the induced area measure on the patch."""
    n = m.n
    if n not in QUAD_COUNTS:
        raise ValueError(f"no direction chart for n={n}")
    counts = tuple(max(4, int(round(k * scale))) for k in QUAD_COUNTS[n])
    center = sclv.center

    xi, wi = _gauss_rule(counts[0])
    if n == 1:
        params = (center[0] + sclv.radius * xi)[:, None]
        basew = sclv.radius * wi
    else:
        s = 0.5 * sclv.radius * (xi + 1.0)
        ws = 0.5 * sclv.radius * wi
        K = counts[-1]
        phi = 2.0 * np.pi * np.arange(K) / K
        wphi = np.full(K, 2.0 * np.pi / K)
    if n == 2:
        S, P = np.meshgrid(s, phi, indexing="ij")
        params = np.stack([S.ravel(), P.ravel()], axis=-1)
        basew = np.outer(ws, wphi).ravel()
    elif n == 3:
        mu, wmu = _gauss_rule(counts[1])
        S, MU, P = np.meshgrid(s, mu, phi, indexing="ij")
        params = np.stack([S.ravel(), MU.ravel(), P.ravel()], axis=-1)
        basew = np.einsum("i,j,k->ijk", ws, wmu, wphi).ravel()

    vals, dv = _chart_jets(m, sclv, params)
    apex = np.broadcast_to(sclv.apex, vals.shape)
    labels = np.asarray(classify(m, apex, vals))
    if not np.all(labels == "future-timelike"):
        bad = int(np.argmax(labels != "future-timelike"))
        raise ValueError(
            f"direction patch leaves the future timelike cone "
            f"(node {bad} is {labels.ravel()[bad]}); shrink the radius")
    Lv = lagrangian(m, apex, vals)
    if np.max(np.abs(Lv + 1.0)) > 1e-10:
        raise RuntimeError("direction nodes left the unit hyperboloid")
    g = fundamental_tensor(m, apex, vals)
    gram = np.einsum("qad,qde,qbe->qab", dv, g, dv)
    area = np.sqrt(np.linalg.det(gram))
    return DirectionQuadrature(nodes=vals, weights=basew * area,
                               params=params, counts=counts)


def center_direction(m: FinslerModel, sclv: SCLVSpec) -> np.ndarray:
    """The unit patch-center direction at the apex: w = (1, center) over F(w)."""
    w = np.concatenate([[1.0], sclv.center])
    return w / np.sqrt(-lagrangian(m, sclv.apex, w))


@dataclass
class SCLVData:
    """Per-scenario bundle: quadrature, the fan's flow, and its sampled scalars."""

    model: FinslerModel
    sclv: SCLVSpec
    quad: DirectionQuadrature
    b: float                           # cut value
    flow: RadialFlow                   # the fan: rows 0..Q-1 the nodes, row Q the center
    center: JacobiPath                 # the patch center: row Q of the same flow
    scan_grid: np.ndarray              # the one t-grid (`sample_grid`), shared by all nodes
    scalars: PathScalars               # the Q node rows on scan_grid: (Q, len(scan_grid)) fields

    @property
    def sigma(self) -> float:
        return self.quad.sigma


def build_sclv_data(m: FinslerModel, sclv: SCLVSpec, *, scale=1.0,
                    t_nodes=T_NODES, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> SCLVData:
    """Quadrature + Jacobi paths + their scalars on one t-grid, built once.

    The fan, the Q quadrature nodes plus the patch center as row Q, is
    integrated once, and the validity of the cut is read off that same
    flow, whose margins include a conjugate point: a direction leaving
    the valid region, or reaching a conjugate point, before b means the
    set is not an SCLV.  The ValueError names the earliest such direction
    and t, and chains the ValidityExit that carries them.  Scans, volumes
    and checks read the Q node rows only, each sampled once, on
    ``sample_grid(b, t_nodes)``, by one order-5 pass that streams them in
    blocks of whole directions (`path_blocks`): past the flow and its
    validity scan, memory does not grow with Q.  Every volume, scan and
    sweep reads those samples, one (direction x sample) array per scalar,
    by reductions over its axes.
    """
    quad = build_quadrature(m, sclv, scale)
    b = float(sclv.cut)
    dirs = np.vstack([quad.nodes, center_direction(m, sclv)])
    try:
        center = variational_paths(m, sclv.apex, dirs, b, rtol=rtol, atol=atol)[-1]
    except ValidityExit as exc:
        why = "conjugate point" if exc.reason == CONJUGATE_POINT else exc.reason
        raise ValueError(
            f"cut b={b:.6g} exceeds the valid range of direction {exc.index} "
            f"(reaches t={exc.t:.6g}, {why}); not an SCLV") from exc
    grid = sample_grid(b, t_nodes)
    scalars = scalars_for_paths(center.flow, np.arange(len(quad.nodes)), grid)
    return SCLVData(model=m, sclv=sclv, quad=quad, b=b, flow=center.flow, center=center,
                    scan_grid=grid, scalars=scalars)


# ----------------------------------------------------------------- volumes


def _density(data: SCLVData, ts):
    """(e^{-psi}, det A) of the Q node rows at times ts, two (Q, len(ts)) arrays.

    Point reads for the ball check's epsilon search, which reads f near
    t = 0 in relative terms; everything else reads the sampled scalars.
    det A = det(V g J), with g from a `fundamental_tensor` pass over the
    node states, block by block (`path_blocks`); every entry is computed per
    point, the same whatever the block size.
    """
    m, blocks = data.model, []
    for st in path_blocks(data.flow, np.arange(len(data.quad.nodes)), ts):
        x, v = st["eta"], st["etadot"]
        detA = np.linalg.det(st["V"] @ fundamental_tensor(m, x, v) @ st["J"])
        blocks.append((np.exp(-weight(m, x, v)), detA))
    density, detA = (np.concatenate(f) for f in zip(*blocks))
    return density, detA


@functools.cache
def _lobatto_coeffs(K):
    """(K+1, K+1) matrix taking values at the Chebyshev-Lobatto points
    x_j = -cos(pi j / K), j = 0..K, to the coefficients of their interpolant
    in T_0..T_K (a DCT-I; Trefethen, ATAP, ch. 3).  Read-only: shared."""
    k = np.arange(K + 1)
    half = np.where(k % K, 1.0, 0.5)
    C = (2.0 / K) * np.outer(half, half) * np.cos(np.pi * (np.outer(k, K - k) % (2 * K)) / K)
    C.flags.writeable = False
    return C


def sclv_volume(data: SCLVData, r):
    r"""(rho(U_x(r)), t-error estimate): the star-scaled volume, upper limit r b.

    Each node's e^{-psi} det A is read at the K Lobatto nodes of its grid
    and, at x = -1, as f(0) = 0.  Its interpolant sum_k c_k T_k(x),
    x = 2t/b - 1, is integrated exactly up to r b (Clenshaw-Curtis at r = 1):
    with x = -cos(delta), \int_{-1}^{x} T_k = (-1)^k [s(k+1) - s(k-1)],
    s(m) = sin^2(m delta/2)/m and s(0) = 0, a form free of cancellation near
    x = -1.  The t-error of a node is r b times its series' tail, the size
    of the two last coefficients (Aurentz & Trefethen, ACM TOMS 43(4),
    2017), plus K ulps of the coefficients' sum for the rounding of the
    transform; the nodes' errors add up with their weights.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("the scaling parameter r lies in (0, 1]")
    f = np.exp(-data.scalars.psi[:, HEAD:]) * data.scalars.detA[:, HEAD:]
    K = f.shape[1]
    c = f @ _lobatto_coeffs(K)[:, 1:].T
    delta = 2.0 * math.asin(math.sqrt(r))
    m = np.arange(-1, K + 2)
    s = np.sin(0.5 * m * delta) ** 2 / np.where(m == 0, 1, m)
    k = np.arange(K + 1)
    integral = 0.5 * data.b * np.where(k % 2, -1.0, 1.0) * (s[k + 2] - s[k])
    a = np.abs(c)
    tail = r * data.b * (a[:, -2:].sum(axis=1) + K * np.finfo(float).eps * a.sum(axis=1))
    w = data.quad.weights
    return float(w @ (c @ integral)), float(w @ tail)


# ------------------------------------------------------------- bound scans


def radial_bound_scan(data: SCLVData, N=None) -> dict:
    """Empirical hypothesis bounds over all node geodesics and scan times."""
    s = data.scalars
    out = {
        "inf_ric_inf": float(np.min(s.ric + s.d2psi)),
        "sup_flag": float(np.max(s.flag_max)),
        "inf_flag": float(np.min(s.flag_min)),
        "sup_psi": float(np.max(s.psi)),
        "inf_dpsi": float(np.min(s.dpsi)),
        "t_samples": int(data.scan_grid.size),
        "directions": int(len(data.quad.nodes)),
    }
    if N is not None:
        out["inf_ric_N"] = float(np.min(ric_N(s.ric, s.dpsi, s.d2psi, N, s.n)))
    return out


# ----------------------------------------------------------------- reports


@dataclass
class ComparisonReport:
    check: str
    verdict: str                      # PASS | CONDITIONAL-PASS | FAIL
    bounds: dict
    results: list = field(default_factory=list)
    pointwise: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "bounds": self.bounds,
            "results": self.results,
            "pointwise": self.pointwise,
            "quadrature": self.quadrature,
            "notes": self.notes,
        }


def _quad_meta(data: SCLVData) -> dict:
    return {
        "directions": int(data.quad.nodes.shape[0]),
        "counts": list(data.quad.counts),
        "sigma": data.sigma,
        "cut": data.b,
    }


def _gauss_integral(fn, lo, hi):
    xi, wi = _gauss_rule(128)
    t = 0.5 * (hi - lo) * (xi + 1.0) + lo
    return 0.5 * (hi - lo) * float(np.sum(wi * fn(t)))


def _tail(ratio):
    """sum_{k>=1} prod_{j<=k} ratio(j), until a term falls below 1e-17."""
    term, rest, k = 1.0, 0.0, 1
    while abs(term) > 1e-17:
        term *= ratio(k)
        rest += term
        k += 1
    return rest


def _erfcx(x):
    """e^{x^2} erfc(x) for x >= 0: e^{hi} (1 + lo) erfc(x) below 26, with
    x^2 = hi + lo split exactly by Dekker's method, and the asymptotic
    series 1/(x sqrt(pi)) sum_k (-1)^k (2k-1)!! / (2x^2)^k from 26 on."""
    if x < 26.0:
        s = 134217729.0 * x     # 2^27 + 1
        xh = s - (s - x)
        xl = x - xh
        hi = x * x
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.exp(hi) * (1.0 + lo) * math.erfc(x)
    u = 0.5 / (x * x)
    return (1.0 + _tail(lambda k: -(2 * k - 1) * u)) / (x * math.sqrt(math.pi))


def _dawson(x):
    """Dawson's integral e^{-x^2} int_0^x e^{s^2} ds for x >= 0: its
    Maclaurin series below 0.2, its asymptotic series 1/(2x) sum_k
    (2k-1)!! / (2x^2)^k above 8, and in between Rybicki's sampling sum
    (Computers in Physics 3(2), 1989), h = 0.2, 40 odd terms a side about
    the even multiple of h nearest x: its error is ~e^{-(pi/2h)^2} ~ 1e-27."""
    if x < 0.2:
        x2 = x * x
        return x * (1.0 + _tail(lambda k: -2.0 * x2 / (2 * k + 1)))
    if x > 8.0:
        u = 0.5 / (x * x)
        return (1.0 + _tail(lambda k: (2 * k - 1) * u)) / (2.0 * x)
    h = 0.2
    n0 = 2 * round(0.5 * x / h)
    xp = x - n0 * h
    total = 0.0
    for m in range(79, 0, -2):
        total += (math.exp(-(xp - m * h) ** 2) / (n0 + m)
                  + math.exp(-(xp + m * h) ** 2) / (n0 - m))
    return total / math.sqrt(math.pi)


def _growth_integral(C0, c, lo, hi, scale=1.0):
    r"""scale * \int_lo^hi e^{phi(t)} dt, phi(t) = C0 t - c t^2/2, in closed form.

    Needs C0 > 0 and 0 <= lo < hi.  The result is scale * e^{phi*} * w / d,
    with phi* the largest exponent on [lo, hi] and w a finite positive
    factor, so an overflow gives inf, never inf - inf = NaN.  With
    q = sqrt(|c|/2), t0 = C0/c and s = q |t - t0|:

    - c = 0: d = C0 and w = 1 - e^{C0 (lo - hi)};
    - c < 0: phi = s^2 - C0^2/(2|c|), and e^{phi} F(s) / q is a primitive
      of e^{phi}, so d = q;
    - c > 0: phi = C0^2/(2c) - s^2 peaks at t0, and d = 2q/sqrt(pi).  The
      primitive is e^{phi} erfcx(s) / d before t0 and minus that past it;
      across t0, phi* is the peak value and w = erf(s_lo) + erf(s_hi).

    F is Dawson's function.  erf is ``math.erf``; erfcx and F are the
    in-house ``_erfcx`` and ``_dawson``, within 7e-16 relative of 40-digit
    values on [0, 1000].

    For c = 0 the product is evaluated left to right with w <= 1, so the
    result never exceeds scale * e^{C0 hi} / C0 evaluated the same way,
    whatever the rounding.  For c != 0 the exponents are formed in long
    double: at C0 t ~ 100 the rounding of a float64 exponent alone costs up
    to ~1e-14 relative.  (Where long double is float64, expect a few 1e-14.)
    """
    if c == 0.0:
        return float(scale * np.exp(C0 * hi) * -np.expm1(C0 * (lo - hi)) / C0)
    ld = np.longdouble

    def phi(t):
        return ld(C0) * ld(t) - ld(0.5) * ld(c) * ld(t) * ld(t)

    q = np.sqrt(0.5 * abs(c))
    t0 = C0 / c
    d = q if c < 0 else 2 * q / np.sqrt(np.pi)
    if c > 0 and lo < t0 < hi:
        top = ld(C0) * ld(C0) / (2 * ld(c))
        w = math.erf(q * (t0 - lo)) + math.erf(q * (hi - t0))
    else:
        prim = _dawson if c < 0 else _erfcx
        near, far = (lo, hi) if c > 0 and lo >= t0 else (hi, lo)
        top = phi(near)
        w = (prim(q * abs(near - t0))
             - float(np.exp(phi(far) - top)) * prim(q * abs(far - t0)))
    return float(scale * float(np.exp(top)) * w / d)


def _user_bound(name, user, scanned, *, upper=False):
    """(value, conditional, notes) for an optional user bound on a scanned one.

    A lower bound (c) is stronger than scanned when larger, an upper bound
    (k, a) when smaller; only a stronger one makes the verdict conditional.
    """
    if user is None:
        return scanned, False, []
    if (user < scanned - 1e-12) if upper else (user > scanned + 1e-12):
        return user, True, [f"user bound {name}={user:.6g} stronger than scanned {scanned:.6g}"]
    return user, False, []


def _margin_row(lhs, rhs, margin, tol, **keys):
    """(result row, passed): a row passes when margin >= -tol."""
    good = margin >= -tol
    return {**keys, "lhs": lhs, "rhs": rhs, "margin": margin, "tol": tol,
            "verdict": "PASS" if good else "FAIL"}, good


def _verdict(ok: bool, conditional: bool) -> str:
    if not ok:
        return "FAIL"
    return "CONDITIONAL-PASS" if conditional else "PASS"


def _ratio_rows(data: SCLVData, pairs, profile, Tx):
    """Rows comparing rho(U(r)) / rho(U(R)) with the model ratio
    int_0^{r T_x} profile / int_0^{R T_x} profile; returns (rows, all passed)."""
    if not pairs:
        raise ValueError("pairs is empty: the ratio bound needs at least one (r, R) pair")
    for r, R in pairs:
        if not (0 < r <= R <= 1):
            raise ValueError(f"need 0 < r <= R <= 1, got ({r}, {R})")
    vols = {r: sclv_volume(data, r)
            for r in sorted({x for pair in pairs for x in pair})}
    results, ok = [], True
    for (r, R) in pairs:
        vr, er = vols[r]
        vR, eR = vols[R]
        lhs = vr / vR
        rhs = _gauss_integral(profile, 0.0, r * Tx) / _gauss_integral(profile, 0.0, R * Tx)
        tol = RATIO_TOL_FLOOR + lhs * (er / max(vr, 1e-300) + eR / max(vR, 1e-300))
        row, good = _margin_row(lhs, rhs, lhs - rhs, tol, r=r, R=R)
        ok &= good
        results.append(row)
    return results, ok


def bishop_gromov_check(data: SCLVData, N, pairs, *, c=None) -> ComparisonReport:
    """Volume-ratio lower bound for effective dimension N in (n, oo)."""
    n = data.model.n
    if not (np.isfinite(N) and N > n):
        raise ValueError(f"the ratio bound needs N in (n, oo), got N={N}")
    scan = radial_bound_scan(data, N=N)
    c_cert = scan["inf_ric_N"]
    c, conditional, notes = _user_bound("c", c, c_cert)
    b = data.b
    Tx = b if c <= 0 else min(b, np.pi * np.sqrt(N / c))
    results, ok = _ratio_rows(data, pairs, lambda t: s_kappa(c / N, t) ** N, Tx)

    # per-direction density inequality and ratio monotonicity
    hric_res = check_hric(data.scalars, c, N)
    hi = b if c <= 0 else min(b, 0.999 * np.pi * np.sqrt(N / c))
    sweep = data.scan_grid <= hi
    ts = data.scan_grid[sweep]
    mono = monotone_ratio_check(ts, weighted_density(data.scalars, N)[0][:, sweep],
                                s_kappa(c / N, ts))
    mono_ok = mono["pointwise_ok"] and mono["integral_ok"]
    worst = {k: mono[k] for k in ("max_step", "max_integral_step")}
    point_ok = hric_res <= POINTWISE_TOL and mono_ok
    ok &= point_ok

    return ComparisonReport(
        check="bg", verdict=_verdict(ok, conditional),
        bounds={"N": float(N), "c": float(c), "c_certified": c_cert,
                "T_x": float(Tx), "scan": scan},
        results=results,
        pointwise={"hric_residual": hric_res, "hric_tol": POINTWISE_TOL,
                   "monotone_ok": bool(mono_ok), **worst},
        quadrature=_quad_meta(data), notes=notes)


def gunther_check(data: SCLVData, *, c=None, k=None) -> ComparisonReport:
    """Volume lower bound from a flag-curvature upper bound K <= -c, c >= 0."""
    scan = radial_bound_scan(data)
    c_cert = -scan["sup_flag"]
    k_cert = scan["sup_psi"]
    if c is None:
        c, conditional, notes = max(c_cert, 0.0), False, []
    elif c < 0:
        raise ValueError("the lower bound requires c >= 0")
    else:
        c, conditional, notes = _user_bound("c", c, c_cert)
    hypothesis_ok = c_cert >= -1e-12 or conditional
    if c_cert < -1e-12 and not conditional:
        notes.append(
            f"no admissible c >= 0: scanned flag supremum {scan['sup_flag']:.6g} > 0")
    k, k_conditional, k_notes = _user_bound("k", k, k_cert, upper=True)
    conditional |= k_conditional
    notes += k_notes

    lhs, err = sclv_volume(data, 1.0)
    rhs = np.exp(-k) * data.sigma * _gauss_integral(
        lambda t: s_kappa(-c, t) ** data.model.n, 0.0, data.b)
    row, good = _margin_row(lhs, rhs, lhs - rhs, RATIO_TOL_FLOOR + err)
    f_min = float(np.min(gunther_f(data.scalars, c)))
    point_ok = f_min >= 1.0 - POINTWISE_TOL
    ok = good and point_ok and hypothesis_ok
    return ComparisonReport(
        check="gunther", verdict=_verdict(ok, conditional),
        bounds={"c": float(c), "c_certified": c_cert, "k": float(k),
                "k_certified": k_cert, "scan": scan},
        results=[row],
        pointwise={"min_f": f_min, "f_tol": POINTWISE_TOL},
        quadrature=_quad_meta(data), notes=notes)


def bg_infinity_check(data: SCLVData, pairs, *, c=None, a=None) -> ComparisonReport:
    """Volume-ratio bound at N = infinity with weight-slope parameter a."""
    n = data.model.n
    scan = radial_bound_scan(data)
    c_cert = scan["inf_ric_inf"] / n
    a_cert = -scan["inf_dpsi"]
    c, c_conditional, c_notes = _user_bound("c", c, c_cert)
    a, a_conditional, a_notes = _user_bound("a", a, a_cert, upper=True)
    conditional, notes = c_conditional or a_conditional, c_notes + a_notes
    b = data.b
    Tx = b if c <= 0 else min(b, 0.5 * np.pi / np.sqrt(c))
    results, ok = _ratio_rows(data, pairs, lambda t: np.exp(a * t) * s_kappa(c, t) ** n, Tx)

    # Pointwise conclusion of the proof: lam_psi <= lam_c + a below T_x.
    # Both sides diverge like n/t at 0, so the floor keeps the cancellation
    # from amplifying integrator error in A.
    s = data.scalars
    sel = (s.ts >= 0.05 * Tx) & (s.ts < Tx)
    ts = s.ts[sel]
    lam_c = n * s_kappa_prime(c, ts) / s_kappa(c, ts)
    res_max = float(np.max((s.lam[:, sel] - s.dpsi[:, sel]) - lam_c - a))
    point_ok = res_max <= POINTWISE_TOL
    ok &= point_ok
    return ComparisonReport(
        check="bg-inf", verdict=_verdict(ok, conditional),
        bounds={"c": float(c), "c_certified": c_cert, "a": float(a),
                "a_certified": a_cert, "T_x": float(Tx), "scan": scan},
        results=results,
        pointwise={"lam_psi_residual": res_max, "tol": POINTWISE_TOL},
        quadrature=_quad_meta(data), notes=notes)


def ball_bound_check(data: SCLVData, eps, r_grid, *, c=None) -> ComparisonReport:
    r"""Future-ball volume growth bound under Ric_inf >= c.

    Each row compares lhs = the volume of the ball of radius r with

        rhs = V(4 eps) + sigma * \int_{4 eps}^r exp(C0 t - c t^2/2) dt,

    the growth-bound integral evaluated exactly (see _growth_integral), and
    margin = rhs - lhs.  When c = 0 a row also carries rhs_closed_form =
    V(4 eps) + sigma e^{C0 r} / C0, a looser display bound that drops the
    lower limit's term; rhs <= rhs_closed_form holds in floating point too.
    A bound that overflows to inf (C0 ~ n log(1/eps) / eps is large at
    small lengths) passes its row vacuously, and the notes name its r.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if not r_grid.size:
        raise ValueError("r_grid is empty: the ball bound needs at least one radius")
    if np.max(r_grid) > data.b + 1e-12:
        raise ValueError("r grid exceeds the validity range (the cut b)")
    scan = radial_bound_scan(data)
    c_cert = scan["inf_ric_inf"]
    c, conditional, notes = _user_bound("c", c, c_cert)

    def f_at(t):
        density, detA = _density(data, np.array([t]))
        return (density * detA)[:, 0]

    eps0 = float(eps)
    eps_ok = None
    for k in range(EPS_HALVING_STEPS + 1):
        cand = eps0 / 2**k
        if 4 * cand >= np.min(r_grid):
            continue
        if np.all(np.log(f_at(2 * cand)) + 2 * c * cand**2 < 0):
            eps_ok = cand
            break
    if eps_ok is None:
        raise ComparisonAbort(
            "no admissible epsilon: log(f(2 eps) e^{2 c eps^2}) never negative "
            f"down to eps={eps0 / 2**EPS_HALVING_STEPS:.3g}")
    if eps_ok != eps0:
        notes.append(f"epsilon halved from {eps0:.6g} to {eps_ok:.6g}")
    C0 = float(np.max(-(np.log(f_at(eps_ok)) + 0.5 * c * eps_ok**2) / eps_ok))
    if C0 <= 0:
        raise ComparisonAbort(f"growth constant C0={C0:.6g} is not positive")

    base, base_err = sclv_volume(data, min(4 * eps_ok, data.b) / data.b)
    results, ok = [], True
    for r in r_grid:    # every r > 4 eps_ok: the search above only accepts such eps
        vol, err = sclv_volume(data, min(float(r), data.b) / data.b)
        with np.errstate(over="ignore"):    # an overflow is inf, named in the notes
            bound = base + _growth_integral(C0, c, 4 * eps_ok, float(r), data.sigma)
            closed = ({"rhs_closed_form": base + data.sigma * np.exp(C0 * r) / C0}
                      if c == 0.0 else {})
        row, good = _margin_row(vol, bound, bound - vol, RATIO_TOL_FLOOR + err + base_err,
                                r=float(r), **closed)
        ok &= good
        results.append(row)
    overflow = ", ".join(f"{row['r']:.6g}" for row in results if row["rhs"] == np.inf)
    if overflow:
        notes.append(f"growth bound overflows to inf at r = {overflow}: those rows pass vacuously")

    conc = check_concavity(data.scalars, c)
    point_ok = conc <= POINTWISE_TOL
    ok &= point_ok
    return ComparisonReport(
        check="ball", verdict=_verdict(ok, conditional),
        bounds={"c": float(c), "c_certified": c_cert, "eps": eps_ok,
                "C0": C0, "scan": scan},
        results=results,
        pointwise={"concavity_residual": conc, "tol": POINTWISE_TOL},
        quadrature=_quad_meta(data), notes=notes)


# ------------------------------------------------- coordinate-space oracle

# one-sided fourth-order first-derivative stencils (times 1/12h) at the first
# two nodes of a non-periodic axis; the far end mirrors them
_FD4_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                      [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _fd4(f, h, axis, periodic=False):
    """Fourth-order first derivative of the samples f along axis, at spacing h.

    The central stencil (1, -8, 0, 8, -1)/12h inside; on a non-periodic axis
    the two nodes nearest each end take the one-sided stencils, so no sample
    outside the grid is needed."""
    f = np.moveaxis(f, axis, 0)
    d = np.roll(f, -2, axis=0)
    np.negative(d, out=d)
    for shift, c in ((-1, 8.0), (1, -8.0), (2, 1.0)):   # in place, in the stencil's order
        term = np.roll(f, shift, axis=0)
        term *= c
        d += term
        del term                    # one shifted copy beside d at a time
    if not periodic:
        d[:2] = np.tensordot(_FD4_EDGE, f[:5], axes=1)
        d[-2:] = -np.tensordot(_FD4_EDGE[::-1, ::-1], f[-5:], axes=1)
    d /= 12.0 * h
    return np.moveaxis(d, 0, axis)


def _det(c):
    """Determinants of a stack of 2x2 or 3x3 matrices, in closed form, from
    their columns: c[j][..., i] is entry (i, j).  A list of column arrays
    serves as well as np.moveaxis(a, -1, 0), so no stacked copy is made."""
    if len(c) == 2:
        return c[0][..., 0] * c[1][..., 1] - c[1][..., 0] * c[0][..., 1]
    return (c[0][..., 0] * (c[1][..., 1] * c[2][..., 2] - c[2][..., 1] * c[1][..., 2])
            - c[1][..., 0] * (c[0][..., 1] * c[2][..., 2] - c[2][..., 1] * c[0][..., 2])
            + c[2][..., 0] * (c[0][..., 1] * c[1][..., 2] - c[1][..., 1] * c[0][..., 2]))


def _integrand(pos, vel, dens, du, dphi):
    """The volume integrand dens |det[vel, d_u pos, d_phi pos]| on (chart,
    [phi,] t) nodes at chart and phi spacings du, dphi."""
    cols = [vel, _fd4(pos, du, axis=0)]
    if pos.ndim == 4:
        cols.append(_fd4(pos, dphi, axis=1, periodic=True))
    return dens * np.abs(_det(cols))


def _grid_volume(f, dt, du, dphi):
    """Volume from integrand samples f on (chart, [phi,] t) nodes at spacings
    dt, du, dphi: Simpson in t and in the chart axis, the periodic trapezoid
    in phi."""
    val = simpson(f, dx=dt, axis=-1)
    if f.ndim == 3:
        val = np.sum(val, axis=1) * dphi
    return float(simpson(val, dx=du, axis=0))


def coordinate_volume(m: FinslerModel, sclv: SCLVSpec, *, nt=49,
                      nchart=25, nphi=32) -> tuple[float, float]:
    """rho(U_x) by direct coordinate-space integration, and its error estimate.

    Forward-maps a polar grid with the exponential map and integrates the
    model measure e^{-psi} sqrt(-det g) against a finite-difference
    Jacobian of the map; shares no Jacobi-determinant code with the polar
    route (both read g from `fundamental_tensor`).

    One flow on the (nt, nchart, nphi) grid, every ray inside the patch
    (the chart axis ends take one-sided stencils), gives two nested grids:
    V2 from every node, V1 from every other node.  The pointwise density is
    computed once; only the differences and the weights depend on the
    spacing.  Every rule is fourth order, so this returns Richardson's
    V2 + (V2 - V1)/15 and |V2 - V1|/15, an error estimate that holds once
    the coarse grid is asymptotic.  nt and nchart must be 1 mod 4 and >= 9
    (both grids odd Simpson grids with >= 5 nodes per stencil), nphi even
    and >= 16.

    The grid is read in blocks of whole t-nodes, about
    geodesics.SCAN_BLOCK states each, and only the two integrands are kept
    (the finite differences run along the chart and phi axes alone), so
    what grows with nt is one double per fine and per coarse node.  The
    blocks read the flow at one sigma mapping of all nt times
    (``RadialFlow.eval_blocks``), so the result is the same bits at any
    block size.
    """
    if min(nt, nchart) < 9 or (nt - 1) % 4 or (nchart - 1) % 4:
        raise ValueError(f"nt={nt} and nchart={nchart} must be 1 mod 4 and >= 9")
    if nphi < 16 or nphi % 2:
        raise ValueError(f"nphi={nphi} must be even and >= 16")
    n = m.n
    apex = np.asarray(sclv.apex, dtype=float)
    center = sclv.center
    if n == 1:
        du = 2 * sclv.radius / (nchart - 1)
        offsets = center[0] + np.linspace(-sclv.radius, sclv.radius, nchart)[:, None]
        chart_shape = (nchart,)
    elif n == 2:
        du = sclv.radius / (nchart - 1)
        S, P = np.meshgrid(np.linspace(0.0, sclv.radius, nchart),
                           2 * np.pi * np.arange(nphi) / nphi, indexing="ij")
        offsets = (center[None, :]
                   + np.stack([S * np.cos(P), S * np.sin(P)], axis=-1)
                   ).reshape(-1, 2)
        chart_shape = (nchart, nphi)
    else:
        raise ValueError("the coordinate-space oracle covers n <= 2")

    w = np.concatenate([np.ones((offsets.shape[0], 1)), offsets], axis=1)
    F = np.sqrt(-lagrangian(m, np.broadcast_to(apex, w.shape), w))
    rays = w / F[:, None]
    T = float(sclv.cut)
    flow = radial_flow(m, apex, rays, T)

    dt, dphi = T / (nt - 1), 2 * np.pi / nphi
    fine = np.empty(chart_shape + (nt,))
    coarse = np.empty(tuple((k + 1) // 2 for k in chart_shape) + ((nt + 1) // 2,))
    half = (slice(None, None, 2),) * n          # every other chart and phi node
    step = max(1, geodesics.SCAN_BLOCK // len(rays))
    spans = [slice(k, min(k + step, nt)) for k in range(0, nt, step)]
    every = np.arange(len(rays))
    states = flow.eval_blocks([(every, span) for span in spans], np.linspace(0.0, T, nt))
    for span in spans:
        st = next(states)           # not zipped: zip's tuple would keep the last block alive
        shape = chart_shape + (span.stop - span.start, m.dim)
        pos, vel = st["eta"].reshape(shape), st["etadot"].reshape(shape)
        dens = np.exp(-weight(m, pos, vel)) * np.sqrt(
            -_det(np.moveaxis(fundamental_tensor(m, pos, vel), -1, 0)))
        fine[..., span] = _integrand(pos, vel, dens, du, dphi)
        lo, hi = (span.start + 1) // 2, (span.stop + 1) // 2
        if hi > lo:     # coarse t-nodes lo..hi-1: the block's even global t-nodes
            sub = half + (slice(2 * lo - span.start, None, 2),)
            coarse[..., lo:hi] = _integrand(pos[sub], vel[sub], dens[sub], 2 * du, 2 * dphi)
        del st, pos, vel, dens      # free this block's states before the next read

    fine = _grid_volume(fine, dt, du, dphi)
    coarse = _grid_volume(coarse, 2 * dt, 2 * du, 2 * dphi)
    return fine + (fine - coarse) / 15, abs(fine - coarse) / 15
