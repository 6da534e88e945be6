"""Jacobi tensor paths in a parallel frame and the scalar machinery on top.

A radial geodesic with unit future-timelike velocity carries a parallel
frame E_1..E_n spanning the g-orthocomplement of the velocity.  The
Jacobi tensor A(t) collects the frame components of the Jacobi fields
with A(0) = 0, A'(0) = I; its determinant is t^n det(d exp) in that
frame.  Two independent routes build A:

  variational -- project the fused variational flow (J, J') onto the
      transported frame; derivatives use the metric-compatible transport
      D_t J = J' + N J, N being the Chern transport matrix.
  curvature   -- integrate the frame matrix equation A'' = -Rhat(t) A
      with Rhat_{kj} = g(E_k, R(E_j)) interpolated from Chebyshev nodes.

On top of a path live the expansion scalars lam = (log det A)',
lam' = -Ric - tr(C^2) with C = A'A^{-1}, the weight derivatives, the
comparison function s_kappa (f'' + kappa f = 0, f(0)=0, f'(0)=1), the
weighted density h = e^{-psi/N} (det A)^{1/N}, and the pointwise
residual checks used by the volume-comparison verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import DegenerateMetricError, eval_connection
from .curvature import riemann_matrix, weight_along
from .geodesics import (CONJUGATE_POINT, DEFAULT_ATOL, DEFAULT_RTOL, STOPPED, RadialFlow,
                        check_base_point, radial_flow)
from .models import FinslerModel, fundamental_tensor, lorentz_norm
from .ode import cumulative_trapezoid, solve_ivp

__all__ = [
    "JacobiPath",
    "JacobiSamples",
    "PathScalars",
    "ValidityExit",
    "build_frame",
    "frame_gram_det",
    "jacobi_variational",
    "jacobi_curvature",
    "variational_paths",
    "conjugate_scan",
    "sample_grid",
    "riccati_quantities",
    "scalars_for_paths",
    "s_kappa",
    "s_kappa_prime",
    "weighted_density",
    "check_hric",
    "check_riccati",
    "check_eq_sc",
    "check_concavity",
    "gunther_f",
    "monotone_ratio_check",
]

UNIT_TOL = 1e-8
CURVATURE_NODES = 40


def build_frame(m: FinslerModel, x, v) -> np.ndarray:
    """g_v-orthonormal spacelike frame orthogonal to unit timelike v; (n, d)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = fundamental_tensor(m, x, v)
    L = v @ g @ v
    if abs(L + 1.0) > UNIT_TOL:
        raise ValueError(f"frame requires a unit future timelike vector, got L={L}")
    frame = []
    scale = float(np.max(np.abs(g)))
    for seed in np.eye(m.dim):
        w = seed - (v @ g @ seed) / L * v
        for e in frame:
            w = w - (e @ g @ w) * e
        nrm2 = w @ g @ w
        if nrm2 <= 1e-10 * scale:
            continue  # seed (numerically) inside span{v, frame}
        frame.append(w / np.sqrt(nrm2))
        if len(frame) == m.n:
            break
    if len(frame) < m.n:
        raise DegenerateMetricError("orthonormalization broke down; metric too degenerate")
    return np.array(frame)


def frame_gram_det(m: FinslerModel, x, v, E):
    """det of the full Gram matrix of {v, E_1..E_n}; -1 for an exact frame.

    Batched: x, v (..., d) and E (..., n, d).
    """
    g = fundamental_tensor(m, x, v)
    W = np.concatenate([np.asarray(v, dtype=float)[..., None, :], E], axis=-2)
    gram = np.einsum("...id,...de,...je->...ij", W, g, W)
    return np.linalg.det(gram)


@dataclass
class JacobiSamples:
    """States and frame-expressed Jacobi data at sample times along one path."""

    ts: np.ndarray      # (m,)
    x: np.ndarray       # (m, d)
    v: np.ndarray       # (m, d)
    E: np.ndarray       # (m, n, d) transported frame
    A: np.ndarray       # (m, n, n)
    Adot: np.ndarray    # (m, n, n)

    @property
    def detA(self):
        return np.linalg.det(self.A)


def _project_variational(st, g, N):
    """(A, A') from an unpacked flow state with frame and Jacobi blocks and
    the metric g and transport matrix N at its points."""
    DJ = st["Jdot"] + N @ st["J"]
    Vg = st["V"] @ g
    return Vg @ st["J"], Vg @ DJ


@dataclass
class JacobiPath:
    """One direction's Jacobi tensor path, valid on [0, t_end]."""

    model: FinslerModel
    x0: np.ndarray
    v0: np.ndarray
    frame0: np.ndarray
    t_end: float
    route: str                      # "variational" | "curvature"
    flow: RadialFlow
    index: int = 0
    matrix_sol: object = None       # dense (A, A') solution, curvature route

    def sample(self, ts) -> JacobiSamples:
        if self.route == "variational":
            return sample_all([self], ts)[0]
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        st = self.flow.eval(self.index, ts)
        n = self.model.n
        y = self.matrix_sol(ts)  # (2n^2, m)
        return JacobiSamples(ts=ts, x=st["eta"], v=st["etadot"], E=st["V"],
                             A=y[:n * n].T.reshape(ts.size, n, n),
                             Adot=y[n * n:].T.reshape(ts.size, n, n))

    def gram_drift(self, ts) -> float:
        """max |det Gram({etadot, E}) + 1| over the sample times."""
        st = self.flow.eval(self.index, np.atleast_1d(np.asarray(ts, dtype=float)))
        dets = frame_gram_det(self.model, st["eta"], st["etadot"], st["V"])
        return float(np.max(np.abs(dets + 1.0)))


def _path_states(paths, ts):
    """(ts, the states of the paths at ts) from one dense evaluation of
    their own rows of the flow that they share."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    flow = paths[0].flow
    if any(p.flow is not flow or p.route != "variational" for p in paths):
        raise ValueError("variational paths on one shared flow are needed")
    return ts, flow.eval(np.array([p.index for p in paths]), ts)


def sample_all(paths: list[JacobiPath], ts) -> list[JacobiSamples]:
    """Sample variational paths sharing one flow on one common grid.

    One dense evaluation of the paths' own rows of the flow and one
    batched projection, whatever else the flow carries.
    """
    ts, st = _path_states(paths, ts)
    conn = eval_connection(paths[0].model, st["eta"], st["etadot"], order=4, validate=False)
    A, Adot = _project_variational(st, conn.g, conn.N)
    return [JacobiSamples(ts=ts, x=st["eta"][k], v=st["etadot"][k],
                          E=st["V"][k], A=A[k], Adot=Adot[k])
            for k in range(len(paths))]


def _check_unit(m, x0, v0):
    g = fundamental_tensor(m, x0, v0)
    L = v0 @ g @ v0
    if abs(L + 1.0) > UNIT_TOL:
        raise ValueError(f"Jacobi paths assume unit parametrization, got L={L}")


class ValidityExit(ValueError):
    """A direction leaves the valid region before its requested end time."""

    def __init__(self, index, t, reason, t_end):
        super().__init__(f"direction {index} leaves validity at t={t:.6g} "
                         f"({reason}) before requested t={t_end:.6g}")
        self.index, self.t, self.reason = index, t, reason


def variational_paths(m: FinslerModel, x0, dirs, t_end, *,
                      rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> list[JacobiPath]:
    """Variational-route paths for a fan of unit directions sharing one flow.

    The flow runs to the one end time t_end, stops at the first validity
    event, and its dense output is scanned for margin dips; a direction
    that leaves the valid region or reaches a conjugate point before t_end
    raises ValidityExit, naming the earliest exit and its located t.
    """
    x0 = np.asarray(x0, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    t_end = float(t_end)
    check_base_point(m, x0, dirs)   # before build_frame, whose breakdown names no cause
    frames = np.array([build_frame(m, x0, v) for v in dirs])
    B, n, d = frames.shape
    seeds = (np.zeros((B, d, n)), np.swapaxes(frames, -1, -2).copy())
    flow = radial_flow(m, x0, dirs, t_end, frames=frames, jac_seeds=seeds,
                       rtol=rtol, atol=atol, post_scan=True)
    exits = [i for i in range(B) if flow.t_reached[i] < t_end - 1e-9
             and flow.exit_reason[i] != STOPPED]
    if exits:
        i = min(exits, key=lambda i: flow.t_reached[i])
        raise ValidityExit(i, flow.t_reached[i], flow.exit_reason[i], t_end)
    return [JacobiPath(model=m, x0=x0, v0=dirs[i], frame0=frames[i],
                       t_end=t_end, route="variational",
                       flow=flow, index=i) for i in range(B)]


def conjugate_scan(m: FinslerModel, x0, v0, t_max) -> np.ndarray:
    """The first parameter time in (0, t_max] conjugate to x0 along the geodesic of v0,
    read off the "conjugate-point" exit of one variational flow of v0 / F(v0): a
    one-entry array, or an empty one when the geodesic first reaches t_max or leaves
    the valid region.  The exit lies at most about CONJUGATE_FLOOR * t early.
    """
    v0 = np.asarray(v0, dtype=float)
    F = float(lorentz_norm(m, x0, v0))
    try:
        variational_paths(m, x0, v0[None] / F, F * t_max)
    except ValidityExit as exc:
        if exc.reason == CONJUGATE_POINT:
            return np.array([exc.t / F])
    return np.empty(0)


def jacobi_variational(m: FinslerModel, x0, v0, t_end, *,
                       rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> JacobiPath:
    """Jacobi path by the second-variation route, A(0)=0, A'(0)=I."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _check_unit(m, x0, v0)
    return variational_paths(m, x0, v0[None], t_end, rtol=rtol, atol=atol)[0]


def jacobi_curvature(m: FinslerModel, x0, v0, t_end, *, frame=None,
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> JacobiPath:
    """Jacobi path by integrating A'' = -Rhat(t) A in the parallel frame.

    Rhat is sampled at Chebyshev-Lobatto nodes along the geodesic and
    interpolated; independent of the variational flow equations.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _check_unit(m, x0, v0)
    check_base_point(m, x0, v0[None])
    if frame is None:
        frame = build_frame(m, x0, v0)
    frame = np.asarray(frame, dtype=float)
    n = m.n
    t_end = float(t_end)
    flow = radial_flow(m, x0, v0[None], t_end, frames=frame[None],
                       rtol=rtol, atol=atol)
    if flow.t_reached[0] < t_end - 1e-9:
        raise ValueError(
            f"geodesic leaves validity at t={flow.t_reached[0]:.6g} "
            f"({flow.exit_reason[0]}) before requested t={t_end:.6g}")

    t_nodes = 0.5 * t_end * (1.0 - np.cos(np.linspace(0.0, np.pi, CURVATURE_NODES)))
    st = flow.eval(0, t_nodes)
    data = riemann_matrix(m, st["eta"], st["etadot"])
    RE = np.einsum("...ab,...jb->...ja", data.R, st["V"])
    Rhat = np.einsum("...ka,...ab,...jb->...kj", st["V"], data.center.g, RE)
    from scipy.interpolate import BarycentricInterpolator  # this route only: import on first use
    interp = BarycentricInterpolator(t_nodes, Rhat.reshape(CURVATURE_NODES, n * n))

    def rhs(t, y):
        A = y[:n * n].reshape(n, n)
        Rh = interp(t).reshape(n, n)
        return np.concatenate([y[n * n:], -(Rh @ A).ravel()])

    y0 = np.concatenate([np.zeros(n * n), np.eye(n).ravel()])
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"frame Jacobi integration failed: {sol.message}")
    return JacobiPath(model=m, x0=x0, v0=v0, frame0=frame, t_end=t_end,
                      route="curvature", flow=flow, matrix_sol=sol.sol)


def sample_grid(t_end, npts):
    """Evaluation grid: geometric near 0 (det A ~ t^n), uniform after."""
    n_geo = max(npts // 4, 8)
    geo = t_end * np.geomspace(1e-6, 0.1, n_geo)
    uni = np.linspace(0.1 * t_end, t_end, npts - n_geo + 1)[1:]
    return np.concatenate([geo, uni])


@dataclass
class PathScalars:
    """Expansion/weight scalars sampled along one Jacobi path (t > 0)."""

    n: int
    ts: np.ndarray
    detA: np.ndarray
    lam: np.ndarray         # (log det A)'  = tr(A'A^{-1})
    trC2: np.ndarray        # tr(C^2)
    lam_prime: np.ndarray   # -Ric - tr(C^2)
    ric: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    d2psi: np.ndarray


def riccati_quantities(path: JacobiPath, ts) -> PathScalars:
    """Expansion scalars of one path at strictly positive sample times."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.min() <= 0:
        raise ValueError("expansion scalars need t > 0 (A(0) is singular)")
    return scalars_for_paths([path], ts)[0]


def scalars_for_paths(paths: list[JacobiPath], ts, *, flag_range=False):
    """Per-direction scalars on one grid, with the curvature/weight work in one batch.

    The paths are variational paths sharing one flow (see ``sample_all``).
    Their states are read once, and one order-5 `riemann_matrix` pass gives
    the curvature, the weight derivatives and the (g, N) that project A, A'.
    With ``flag_range`` also returns per-direction (min, max) eigenvalues of
    the symmetrized frame curvature matrix over the sample times, reusing
    the same curvature batch: ``(scalars, flag_lo, flag_hi)``.
    """
    if not paths:
        return ([], np.empty(0), np.empty(0)) if flag_range else []
    m = paths[0].model
    ts, st = _path_states(paths, ts)
    xs, vs = np.concatenate(st["eta"]), np.concatenate(st["etadot"])
    data = riemann_matrix(m, xs, vs)
    c = data.center
    grid = st["eta"].shape[:-1]     # one row of sample times per path
    As, Adots = _project_variational(st, c.g.reshape(grid + c.g.shape[1:]),
                                     c.N.reshape(grid + c.N.shape[1:]))
    rows = [a.reshape(grid) for a in (data.ric, *weight_along(m, xs, vs, conn=c))]
    out = []
    for A, Adot, ric, psi, dpsi, d2psi in zip(As, Adots, *rows):
        C = np.swapaxes(np.linalg.solve(np.swapaxes(A, -1, -2),
                                        np.swapaxes(Adot, -1, -2)), -1, -2)
        lam = np.einsum("...ii->...", C)
        trC2 = np.einsum("...ij,...ji->...", C, C)
        out.append(PathScalars(
            n=m.n, ts=ts, detA=np.linalg.det(A), lam=lam, trC2=trC2,
            lam_prime=-ric - trC2, ric=ric, psi=psi, dpsi=dpsi, d2psi=d2psi))
    if not flag_range:
        return out
    Es = np.concatenate(st["V"])
    RE = np.einsum("...ab,...jb->...ja", data.R, Es)
    Rhat = np.einsum("...ka,...ab,...jb->...kj", Es, c.g, RE)
    Rhat = 0.5 * (Rhat + np.swapaxes(Rhat, -1, -2))
    eigs = np.linalg.eigvalsh(Rhat).reshape(len(paths), -1)
    return out, eigs.min(axis=1), eigs.max(axis=1)


def s_kappa(kappa, t):
    """Solution of f'' + kappa f = 0 with f(0) = 0, f'(0) = 1."""
    t = np.asarray(t, dtype=float)
    if kappa == 0.0:
        return t.copy() if t.ndim else float(t)
    z = kappa * t * t
    series = t * (1.0 - z / 6.0 + z * z / 120.0)
    rk = np.sqrt(abs(kappa))
    with np.errstate(invalid="ignore"):
        full = np.sin(rk * t) / rk if kappa > 0 else np.sinh(rk * t) / rk
    return np.where(np.abs(z) < 1e-8, series, full)


def s_kappa_prime(kappa, t):
    t = np.asarray(t, dtype=float)
    if kappa == 0.0:
        return np.ones_like(t) if t.ndim else 1.0
    z = kappa * t * t
    series = 1.0 - z / 2.0 + z * z / 24.0
    rk = np.sqrt(abs(kappa))
    full = np.cos(rk * t) if kappa > 0 else np.cosh(rk * t)
    return np.where(np.abs(z) < 1e-8, series, full)


def weighted_density(scal: PathScalars, N):
    """(h, h', h'') with h = e^{-psi/N} (det A)^{1/N}; N in (-oo,0) u (n,oo)."""
    n = scal.n
    if not (N < 0.0 or N > n):
        raise ValueError(f"density exponent N={N} outside (-oo,0) u (n,oo)")
    if np.min(scal.detA) <= 0.0:
        raise ValueError("det A must stay positive on the evaluation range")
    h = np.exp(-scal.psi / N) * scal.detA ** (1.0 / N)
    dlog = (scal.lam - scal.dpsi) / N
    d2log = (scal.lam_prime - scal.d2psi) / N
    return h, h * dlog, h * (dlog**2 + d2log)


def check_hric(scal: PathScalars, c, N):
    """max over samples of N h'' + c h (<= 0 when Ric_N >= c)."""
    h, _, h2 = weighted_density(scal, N)
    return float(np.max(N * h2 + c * h))


def check_riccati(scal: PathScalars):
    """max of (tr C)' + (tr C)^2/n + Ric = lam^2/n - tr(C^2) (<= 0).

    Normalized by 1 + lam^2/n: both terms blow up as (n/t)^2 toward t=0,
    so the raw difference is dominated by cancellation noise there.
    """
    res = scal.lam**2 / scal.n - scal.trC2
    return float(np.max(res / (1.0 + scal.lam**2 / scal.n)))


def check_eq_sc(scal: PathScalars, c):
    """max of [s_c^2 (lam - lam_c)]' - s_c^2 psi''  (<= 0 when Ric_oo >= nc).

    lam_c = n s_c'/s_c solves lam_c' + lam_c^2/n + nc = 0; for c > 0 the
    samples must stay below the first zero of s_c.
    """
    n = scal.n
    t = scal.ts
    if c > 0 and t.max() >= np.pi / np.sqrt(c):
        raise ValueError("sample range crosses the first zero of s_c")
    sc = s_kappa(c, t)
    scp = s_kappa_prime(c, t)
    lam_c = n * scp / sc
    lam_c_prime = -n * c - lam_c**2 / n
    res = (2.0 * sc * scp * (scal.lam - lam_c)
           + sc**2 * (scal.lam_prime - lam_c_prime)
           - sc**2 * scal.d2psi)
    return float(np.max(res))


def check_concavity(scal: PathScalars, c):
    """max of (log[e^{-psi} det A e^{c t^2/2}])'' = lam' - psi'' + c (<= 0)."""
    return float(np.max(scal.lam_prime - scal.d2psi + c))


def gunther_f(scal: PathScalars, c):
    """f(t) = det A / s_{-c}(t)^n; f -> 1 at t=0 and f >= 1 when flag <= -c."""
    if c < 0:
        raise ValueError("the lower volume bound needs c >= 0")
    return scal.detA / s_kappa(-c, scal.ts) ** scal.n


def monotone_ratio_check(ts, numer, denom):
    """Non-increase of numer/denom and of the running-integral ratio, up to a
    slack of 1e-8 + 1e-6 |ratio| per step."""
    ts = np.asarray(ts, dtype=float)
    ratio = np.asarray(numer, dtype=float) / np.asarray(denom, dtype=float)
    slack = 1e-8 + 1e-6 * np.abs(ratio[:-1])
    steps = np.diff(ratio)
    In = cumulative_trapezoid(numer, ts, initial=0.0)
    Id = cumulative_trapezoid(denom, ts, initial=0.0)
    iratio = In[1:] / Id[1:]
    isteps = np.diff(iratio)
    islack = 1e-8 + 1e-6 * np.abs(iratio[:-1])
    return {
        "pointwise_ok": bool(np.all(steps <= slack)),
        "integral_ok": bool(np.all(isteps <= islack)),
        "max_step": float(np.max(steps)) if steps.size else 0.0,
        "max_integral_step": float(np.max(isteps)) if isteps.size else 0.0,
    }
