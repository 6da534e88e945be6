"""Geodesic flow, variational (Jacobi) flow, conjugate points.

The geodesic equation used throughout is the Euler-Lagrange flow of L,

    eta'' = -G(eta, eta'),

with G the spray from the connection pipeline.  Linearizing gives the
variational equation for coordinate Jacobi fields,

    J'' = -(dG/dx) J - 2 N J',

and reference-parallel transport of a vector along the geodesic is
V' = -N V, as N^a_c = Gamma^a_bc(eta') eta'^b for the Chern connection.

``radial_flow`` evolves a whole fan of directions out of one point up to
one horizon as a single fused ODE system, solved once.  The fused state
carries the time t, and the solve runs in a speed clock sigma with

    dt/dsigma = 1 / (1 + |eta'|),

|eta'| the RMS over the fan of each direction's Euclidean coordinate
speed: a Sundman-type time transformation (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, 2nd ed., Sec. VIII.2), so the steps
no longer shrink where the coordinate velocity blows up, as before the
chart exit of a collapsing scale factor.  One terminal event stops the
solve at the first zero of min(validity margin, t_target - t): the clock
reaching the horizon, or the first validity event, which watches chart
distance, causal character, and metric conditioning for every direction
at once.  A flow carrying a frame V and Jacobi fields J also watches
A = V g J for a conjugate point, where A turns singular (Beem, Ehrlich &
Easley, *Global Lorentzian Geometry*, 2nd ed., ch. 10): the margin
sqrt(n) det(A/t) / |adj(A/t)|_F is 1 at t = 0, changes sign at a
conjugate point of odd multiplicity and touches zero at one of even
multiplicity, which the post-scan's dip refinement finds.
The post-scan (``post_scan=True``) reads the dense output in blocks of
about SCAN_BLOCK fan states and only the rows the margins read, and
refines candidate directions in the order of their first candidate:
only the earliest exit is located exactly.
At a validity event the directions on the boundary record their exit
("chart-exit", "degenerate-or-cone" or "conjugate-point"), and the
others stop there too (reason "stopped"), since every caller needs each
direction to reach the horizon.  Every result still answers in t: the
dense output is read at sigma(t), found by inverting its clock row.  A
solver failure (the step size collapses) raises RuntimeError, a
numerical abort.  ``integrate_geodesic`` is the one-direction case of
the same flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import DegenerateMetricError, eval_connection
from .jets import JetDomainError
from .models import CausalityError, FinslerModel, classify, fundamental_tensor, lagrangian
from .ode import brentq, fminbound, solve_ivp

__all__ = [
    "GeodesicSegment",
    "RadialFlow",
    "integrate_geodesic",
    "radial_flow",
    "check_base_point",
    "find_validity_times",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10
METRIC_COND_FLOOR = 1e-9   # min|eig|/max|eig| of g below this counts as degenerate
CAUSAL_FLOOR = 1e-10       # -L/|L0| below this counts as leaving the cone
EXIT_TOL = 1e-8            # margin slack used to decide which directions exited
CONJUGATE_FLOOR = 1e-7     # _singularity(A/t) below this counts as conjugate
STOPPED = "stopped"        # exit reason of a direction halted by another's exit
CONJUGATE_POINT = "conjugate-point"
EXIT_LABELS = ("chart-exit", "degenerate-or-cone", "degenerate-or-cone", CONJUGATE_POINT)
SCAN_POINTS = 1024         # dense-output margin scan resolution
SCAN_BLOCK = 4096          # fan states per block of the dense-output margin scan
DIP_THRESHOLD = 1e-2       # local margin minima below this get refined
# sigma = t + (the fan's RMS Euclidean path length), so a fan keeping its start
# speed reaches t_target at sigma = t_target (1 + |eta'(0)|), and a path out of the
# chart is about its diameter long.  The solve's sigma span is SIGMA_SPAN times
# their sum; a flow that uses it up before t_target is a numerical abort.
SIGMA_SPAN = 2.0


def _chart_margin(m: FinslerModel, x):
    lo = np.asarray(m.chart_lo)
    hi = np.asarray(m.chart_hi)
    return np.minimum(np.min(x - lo, axis=-1), np.min(hi - x, axis=-1))


def _conditioning(g, screen=False):
    """min|eig g| / max|eig g| for a stack of symmetric d x d metrics g.

    With screen, a metric whose certified lower bound
    b = |det g| (d-1)^((d-1)/2) / |g|_F^d <= min|eig| / max|eig| is at
    least 2 DIP_THRESHOLD reads b, and ``eigvalsh`` runs only on the rest
    (b below that, or NaN).  The bound: |det g| is min|eig| times the
    other d-1 moduli, whose product AM-GM caps at (|g|_F^2 / (d-1))^((d-1)/2),
    and |g|_F >= max|eig|.
    """
    if screen:
        d = g.shape[-1]
        with np.errstate(all="ignore"):
            ratio = (np.abs(np.linalg.det(g)) * (d - 1) ** ((d - 1) / 2)
                     / np.sum(g * g, axis=(-2, -1)) ** (d / 2))
        need = ~(ratio >= 2 * DIP_THRESHOLD)
        ratio[need] = _conditioning(g[need])
        return ratio
    aeig = np.abs(np.linalg.eigvalsh(g))
    return np.min(aeig, axis=-1) / np.max(aeig, axis=-1)


def _margins(m: FinslerModel, st, t, L0, parts=False, screen=False):
    """Per-point validity margin of an unpacked flow state at time t:
    positive while the state is usable.

    The parts are chart, conditioning, causal and, for a state carrying a
    frame V and Jacobi fields J, conjugate: the singularity measure of A/t
    with A = V g J, read as 1 at t = 0.  Deliberately avoids anything that
    inverts g, so it stays evaluable right at (and past) a degeneration.

    screen (the post-scan's sampled margins only) reads the conditioning
    part from ``_conditioning``'s screen.  The scan feeds those margins to
    ``_scan_candidates`` alone, and its candidates come out the same: a
    screened state's screened and exact conditioning parts are both above
    DIP_THRESHOLD (2 DIP_THRESHOLD - METRIC_COND_FLOOR at least), so its
    screened and exact margins are equal wherever either is at or below
    DIP_THRESHOLD and both exceed it elsewhere, which leaves every
    ``margin <= 0`` and every ``margin < DIP_THRESHOLD`` local-minimum test
    as it was.  The event, the exit labels, the refinement and
    ``check_base_point`` keep the exact margins.
    """
    x, v = st["eta"], st["etadot"]
    g = fundamental_tensor(m, x, v)
    out = [_chart_margin(m, x),
           _conditioning(g, screen) - METRIC_COND_FLOOR,
           -lagrangian(m, x, v) / np.abs(L0) - CAUSAL_FLOOR]
    if "V" in st and "J" in st:
        with np.errstate(divide="ignore", invalid="ignore"):
            sing = _singularity(st["V"] @ g @ st["J"]) / t
        out.append(np.where(t > 0, sing, 1.0) - CONJUGATE_FLOOR)
    return out if parts else np.min(np.broadcast_arrays(*out), axis=0)


def _singularity(A):
    """sqrt(n) det A / |adj A|_F = sign(det A) sqrt(n) / |A^-1|_F for a stack of
    n x n matrices: 1 at A = I, between sigma_min(A) and sqrt(n) sigma_min(A) in
    size, so it vanishes exactly where A is singular, linearly at a conjugate
    point of any multiplicity.  Closed form up to n = 3, a seventh of an SVD's cost.
    """
    n = A.shape[-1]
    if n > 3:
        s = np.linalg.svd(A, compute_uv=False)
        return np.sign(np.linalg.det(A)) * np.sqrt(n / np.sum(s ** -2.0, axis=-1))
    a = np.moveaxis(A, -1, 0)                       # the columns of A
    if n == 1:
        return a[0][..., 0]
    if n == 2:
        det = a[0][..., 0] * a[1][..., 1] - a[0][..., 1] * a[1][..., 0]
        return det * np.sqrt(2.0 / np.sum(A * A, axis=(-2, -1)))
    adj = np.cross(a[[1, 2, 0]], a[[2, 0, 1]])     # the rows of adj A
    det = np.sum(a[0] * adj[0], axis=-1)
    return det * np.sqrt(3.0 / np.sum(adj * adj, axis=(0, -1)))


def _exit_label(m, st, t, L0val):
    """Label of the smallest margin part; the chart wins ties, then the metric."""
    parts = _margins(m, st, t, L0val, parts=True)
    low = min(parts) + EXIT_TOL
    return next(label for p, label in zip(parts, EXIT_LABELS) if p <= low)


def _scan_candidates(ms):
    """Dips and sign changes of sampled margins ms (directions x samples).

    Event detection by the ODE solver can step clean over a narrow dip
    (e.g. a scale factor whose square touches zero and recovers, or a
    conjugate point of even multiplicity), so a dip, a sampled local
    minimum below DIP_THRESHOLD before a direction's first sample <= 0, is
    a candidate too.  Returns boolean (directions x samples) arrays dip
    and bad (margin <= 0).
    """
    ns = ms.shape[1]
    bad = ms <= 0.0
    upper = np.where(bad.any(axis=1), np.argmax(bad, axis=1), ns)
    mid = ms[:, 1:-1]
    dip = np.zeros_like(bad)
    dip[:, 1:-1] = ((mid < DIP_THRESHOLD) & (mid <= ms[:, :-2]) & (mid <= ms[:, 2:])
                    & (np.arange(1, ns - 1) < upper[:, None] - 1))
    return dip, bad


def _first_margin_crossing(margin_fn, ts, dips, bad):
    """First zero of the margin along a sampled track (ts ascending), or None.

    dips and bad are the track's candidate sample indices, ascending (see
    ``_scan_candidates``): each dip is refined by a bounded minimizer,
    then each sampled sign change by a root bracket.
    """
    for j in dips:
        x, fx, _ = fminbound(margin_fn, float(ts[j - 1]), float(ts[j + 1]))
        if fx <= 0.0:
            t = _refine_crossing(margin_fn, float(ts[j - 1]), float(x))
            if t is not None:
                return t
    for j in bad:
        if j == 0:
            return float(ts[0])
        t = _refine_crossing(margin_fn, float(ts[j - 1]), float(ts[j]))
        if t is not None:
            return t
    return None


def _refine_crossing(margin_fn, lo, hi):
    """Zero of the margin in [lo, hi], tolerating re-evaluation noise at ~0."""
    flo, fhi = margin_fn(lo), margin_fn(hi)
    if flo <= 0.0:
        return lo
    if fhi > 0.0:
        return hi if fhi < EXIT_TOL else None
    return float(brentq(margin_fn, lo, hi, xtol=1e-12))


# ------------------------------------------------------------ speed clock


class _Clock:
    """The clock row t(sigma) of a flow's dense output, and its inverse.

    t(sigma) is evaluated as ``OdeSolution`` evaluates that row: the same
    step for each sigma and the same Horner steps, so reading the full
    state at sigma(t) gives back t to round-off.  The inverse runs a
    safeguarded Newton iteration on the step polynomial that brackets t,
    one scalar per sample time, and keeps the closest float; it is exact
    at 0 and at the end of the solve, where t = t_end.
    """

    def __init__(self, sol, t_end):
        self.ts = sol.ts
        parts = sol.interpolants
        self.s_old = np.array([p.t_old for p in parts])
        self.h = np.array([p.h for p in parts])
        self.F = np.array([p.F[:, -1] for p in parts]).T      # (7, steps)
        self.y_old = np.array([p.y_old[-1] for p in parts])
        self.s_end = float(sol.ts[-1])
        self.t_end = float(t_end)
        self.t_nodes = self.t(self.ts)

    def _poly(self, s, k):
        """t and dt/dsigma at s on the polynomial of step k."""
        x = (s - self.s_old[k]) / self.h[k]
        y = np.zeros_like(x)
        dy = np.zeros_like(x)
        for i, f in enumerate(self.F[::-1]):
            y += f[k]
            if i % 2 == 0:
                dy = dy * x + y
                y *= x
            else:
                dy = dy * (1 - x) - y
                y *= 1 - x
        return y + self.y_old[k], dy / self.h[k]

    def t(self, s):
        """Clock readings at sigma values s (any shape)."""
        k = np.clip(np.searchsorted(self.ts, s, side="left") - 1, 0, len(self.h) - 1)
        return self._poly(s, k)[0]

    def sigma(self, t):
        """sigma with t(sigma) = t, for t in [0, t_end] (any shape).

        The Newton loop stops once every time of the call has converged, so
        a time's last bits depend on which other times share the call: the
        same t may map to a neighbouring float in a call of its own.  Every
        blocked reader therefore maps all its times in one call and reads
        each block at its slice of the result (``RadialFlow.eval_blocks``).
        """
        t = np.asarray(t, dtype=float)
        s = np.where(t <= 0.0, 0.0, self.s_end)
        inner = (t > 0.0) & (t < self.t_end)
        tt = t[inner]
        k = np.clip(np.searchsorted(self.t_nodes, tt, side="left") - 1, 0, len(self.h) - 1)
        lo, hi = self.ts[k], self.ts[k + 1]
        si = lo + self.h[k] * (tt - self.t_nodes[k]) / (self.t_nodes[k + 1] - self.t_nodes[k])
        si = np.minimum(si, hi)   # t may exceed the last clock reading by a few ulp
        for _ in range(64):
            p, dp = self._poly(si, k)
            lo = np.where(p < tt, si, lo)
            hi = np.where(p < tt, hi, si)
            new = si + (tt - p) / dp
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done = np.all(np.abs(new - si) <= 4 * np.spacing(si))
            si = new
            if done:
                break
        # the closest of si and its two neighbours, read as OdeSolution reads them
        cand = np.clip([np.nextafter(si, -np.inf), si, np.nextafter(si, np.inf)], 0.0, self.s_end)
        pick = np.argmin(np.abs(self.t(cand) - tt), axis=0)
        s[inner] = np.take_along_axis(cand, pick[None], axis=0)[0]
        return s


# --------------------------------------------------------- single geodesic


@dataclass
class GeodesicSegment:
    """One geodesic out of x0: the dense solution and how it ended."""

    t_max: float
    t_end: float
    status: str                   # completed | chart-exit | degenerate-or-cone
    sol: object                   # ode.OdeSolution over the clock sigma, state (eta, eta', t)
    clock: _Clock

    def state(self, t):
        """(eta, eta') at t in [0, t_end] (any shape); no state past the exit."""
        t = np.asarray(t, dtype=float)
        if t.size and (t.min() < 0 or t.max() > self.t_end + 1e-12):
            raise ValueError(f"the geodesic only reaches t={self.t_end}")
        y = self.sol(self.clock.sigma(t))
        d = len(y) // 2
        return np.moveaxis(y[:d], 0, -1), np.moveaxis(y[d:2 * d], 0, -1)

    def position(self, t):
        return self.state(t)[0]


def integrate_geodesic(m: FinslerModel, x0, v0, t_max) -> GeodesicSegment:
    """Integrate eta'' = -G from (x0, v0) up to t_max or a validity boundary.

    A one-direction, post-scanned ``radial_flow``: the same stepping,
    margin event, dip scan and exit labels as every SCLV flow.
    """
    flow = radial_flow(m, x0, np.asarray(v0, dtype=float)[None], float(t_max),
                       post_scan=True)
    return GeodesicSegment(t_max=float(t_max), t_end=float(flow.t_reached[0]),
                           status=flow.exit_reason[0] or "completed",
                           sol=flow.segments[0][2], clock=flow.clock)


# ------------------------------------------------------------- fused flows


@dataclass
class _Layout:
    d: int
    n_frame: int
    n_jac: int

    @property
    def width(self):
        return 2 * self.d + self.n_frame * self.d + 2 * self.d * self.n_jac

    def unpack(self, row):
        """row: (..., width), or the leading components without J' -> dict of views."""
        d = self.d
        out = {"eta": row[..., :d], "etadot": row[..., d:2 * d]}
        off = 2 * d
        if self.n_frame:
            out["V"] = row[..., off:off + self.n_frame * d].reshape(
                row.shape[:-1] + (self.n_frame, d))
            off += self.n_frame * d
        if self.n_jac:
            out["J"] = row[..., off:off + d * self.n_jac].reshape(
                row.shape[:-1] + (d, self.n_jac))
            off += d * self.n_jac
            if row.shape[-1] > off:
                out["Jdot"] = row[..., off:off + d * self.n_jac].reshape(
                    row.shape[:-1] + (d, self.n_jac))
        return out


@dataclass
class RadialFlow:
    """Dense fused solution for a fan of geodesics out of one base point.

    Every direction runs towards the one horizon t_target.  Per direction i
    the data are valid for t in [0, t_reached[i]]; if t_reached[i] <
    t_target, exit_reason[i] says why the direction ended early: its own
    exit label, or STOPPED when the fused flow stopped at the exit of
    another direction.  After a post-scan that found an exit, only the
    earliest one, min(t_reached) and its direction, is located exactly;
    the other directions' t_reached are upper bounds of their valid range
    (see ``_post_scan_flow``).  A completed flow has t_reached == t_target
    exactly.  The solve runs in the speed clock sigma; ``eval`` and
    ``eval_blocks`` take times t and read the dense output at clock.sigma(t).
    """

    model: FinslerModel
    x0: np.ndarray
    dirs: np.ndarray
    t_target: float
    t_reached: np.ndarray
    exit_reason: list
    layout: _Layout
    segments: list       # [(s0, s1, dense sol over sigma, dir index array)]: the one solve
    clock: _Clock        # t(sigma) and its inverse

    def eval(self, i, ts):
        """States of direction i at times ts (ascending array or scalar); for
        an index array i, stacked over those directions (leading axis len(i)).

        Reads only those directions' rows of the dense output, the same bits
        as a whole-fan read, into C-contiguous arrays: a strided view would
        change the summation order of reductions over it, such as the
        coordinate oracle's Simpson sums.  The times are not independent in
        the same way: the sigma of a time depends on the other times of the
        call (see ``_Clock.sigma``), so a reader that splits its times into
        blocks maps them all at once, as ``eval_blocks`` does.
        """
        ids = np.atleast_1d(i)
        who = f"direction {i}" if np.ndim(i) == 0 else "some direction"
        states = self._rows(ids, self._sigma(ids, ts, who))
        return self.layout.unpack(states if np.ndim(i) else states[0])

    def eval_blocks(self, blocks, ts):
        """``eval`` of each block (ids, span) of ``blocks`` in turn: the
        directions ids (an index array) at the times ts[span] (a slice), so
        a fan can be read in blocks of directions, of times, or both.

        An iterator that maps all of ts to sigma once and reads a block's
        rows only when it reaches that block, so the caller holds one
        block's states at a time.  Mapping once is what keeps every block
        equal to the same rows and times of one ``eval`` of the whole fan
        bit for bit: sigma depends on the times that share a
        ``clock.sigma`` call."""
        s = self._sigma(np.concatenate([ids for ids, _ in blocks]), ts)
        return (self.layout.unpack(self._rows(ids, s[span])) for ids, span in blocks)

    def _sigma(self, ids, ts, who="some direction"):
        """clock.sigma(ts), once every time lies in the valid range of directions ids."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        t_max = float(np.min(self.t_reached[ids]))
        if ts.size and (ts.min() < 0 or ts.max() > t_max + 1e-12):
            raise ValueError(f"{who} only reaches t={t_max}")
        return self.clock.sigma(ts)

    def _rows(self, ids, s):
        """Packed states (len(ids), len(s), width) of directions ids at sigma values s."""
        w = self.layout.width
        rows = (ids[:, None] * w + np.arange(w)).ravel()
        vals = self.segments[0][2](s, rows)     # (len(ids) * w, len(s))
        return np.ascontiguousarray(np.swapaxes(vals.reshape(len(ids), w, -1), 1, 2))


def _fused_rhs(m, layout, order):
    """d/dsigma of (flow state, t): the t-derivatives times dt/dsigma =
    1 / (1 + |eta'|), |eta'| the RMS over the fan of each direction's
    Euclidean coordinate speed."""
    def rhs(s, yflat):
        Y = yflat[:-1].reshape(-1, layout.width)
        st = layout.unpack(Y)
        try:
            c = eval_connection(m, st["eta"], st["etadot"], order=order, validate=False)
        except JetDomainError:  # abort: smaller steps would only grind through restarts
            raise
        except ArithmeticError:
            return np.full_like(yflat, np.nan)
        dY = np.empty_like(Y)
        out = layout.unpack(dY)
        out["eta"][...] = st["etadot"]
        out["etadot"][...] = -c.G
        if layout.n_frame:
            out["V"][...] = -(st["V"] @ np.swapaxes(c.N, -1, -2))
        if layout.n_jac:
            out["J"][...] = st["Jdot"]
            out["Jdot"][...] = -(c.dG_dx @ st["J"] + 2.0 * (c.N @ st["Jdot"]))
        dt = 1.0 / (1.0 + np.sqrt(np.mean(np.sum(st["etadot"] ** 2, axis=-1))))
        return np.append(dY.ravel() * dt, dt)

    return rhs


def check_base_point(m: FinslerModel, x0, dirs):
    """L at each direction (B, d) out of x0, once the base point passes the
    checks of every flow: future timelike directions, x0 inside the chart,
    and a positive metric conditioning margin."""
    if not np.all(classify(m, x0, dirs) == "future-timelike"):
        raise CausalityError("all directions must be future timelike")
    if _chart_margin(m, x0) <= 0:
        raise ValueError("base point outside the model chart")
    L0 = lagrangian(m, x0, dirs)
    # the chart part was checked above and the causal part is positive for
    # timelike directions, so only the conditioning part can fail here
    st = {"eta": np.broadcast_to(x0, dirs.shape), "etadot": dirs}
    cond = _margins(m, st, 0.0, L0, parts=True)[1]
    if np.any(cond <= 0):
        raise DegenerateMetricError(
            f"metric conditioning margin {float(np.min(cond)):.6g} <= 0 at the base point")
    return L0


def radial_flow(m: FinslerModel, x0, dirs, t_target, *, frames=None, jac_seeds=None,
                rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, post_scan=False) -> RadialFlow:
    """Fused geodesic/transport/Jacobi flow for many directions from x0 up to t_target.

    frames: optional (B, k, d) vectors to parallel-transport along each
    direction.  jac_seeds: optional pair (J0, Jdot0) of (B, d, k) arrays
    seeding the variational flow (requires fourth-order pipeline data).
    One solve in the speed clock sigma; it stops when t reaches t_target
    or at the first validity event, and a solver failure raises
    RuntimeError.
    """
    x0 = np.asarray(x0, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    B, d = dirs.shape
    t_target = float(t_target)
    if t_target <= 0:
        raise ValueError("the target time must be positive")
    L0 = check_base_point(m, x0, dirs)

    n_frame = 0 if frames is None else frames.shape[1]
    n_jac = 0 if jac_seeds is None else jac_seeds[0].shape[2]
    layout = _Layout(d=d, n_frame=n_frame, n_jac=n_jac)
    order = 4 if n_frame or n_jac else 3   # frames and Jacobi fields read N

    Y0 = np.zeros((B, layout.width))
    st = layout.unpack(Y0)
    st["eta"][...] = x0
    st["etadot"][...] = dirs
    if n_frame:
        st["V"][...] = frames
    if n_jac:
        st["J"][...] = jac_seeds[0]
        st["Jdot"][...] = jac_seeds[1]

    def event(s, yflat):
        stt = layout.unpack(yflat[:-1].reshape(-1, layout.width))
        return min(float(np.min(_margins(m, stt, yflat[-1], L0))), t_target - yflat[-1])

    event.direction = -1
    speed0 = float(np.sqrt(np.mean(np.sum(dirs ** 2, axis=-1))))
    diam = float(np.linalg.norm(np.subtract(m.chart_hi, m.chart_lo)))
    s_span = SIGMA_SPAN * (t_target * (1.0 + speed0) + diam)
    sol = solve_ivp(_fused_rhs(m, layout, order), (0.0, s_span), np.append(Y0.ravel(), 0.0),
                    rtol=rtol, atol=atol, event=event)
    s_end, t_end = float(sol.t[-1]), float(sol.y[-1, -1])
    if sol.status != 1:
        why = sol.message if sol.status else "the speed clock ran out"
        raise RuntimeError(f"flow integration failed at t={t_end:.6g}: {why}")
    Y = sol.y[:-1, -1].reshape(-1, layout.width)
    mg = _margins(m, layout.unpack(Y), t_end, L0)
    reason = [None] * B
    if t_target - t_end <= np.min(mg):
        t_end = t_target          # the clock event: every direction completed
    else:
        # margin event: label the directions sitting on the boundary
        hit = mg <= EXIT_TOL
        if not np.any(hit):
            hit = mg == mg.min()
        reason = [_exit_label(m, layout.unpack(Y[i]), t_end, L0[i])
                  if hit[i] else STOPPED for i in range(B)]
    flow = RadialFlow(model=m, x0=x0, dirs=dirs, t_target=t_target,
                      t_reached=np.full(B, t_end), exit_reason=reason, layout=layout,
                      segments=[(0.0, s_end, sol.sol, np.arange(B))],
                      clock=_Clock(sol.sol, t_end))
    if post_scan:
        _post_scan_flow(m, flow, L0)
    return flow


def _post_scan_flow(m, flow, L0):
    """Tighten t_reached by scanning the dense solution for margin dips.

    The scan reads the dense output in blocks of about SCAN_BLOCK fan
    states and only the rows the margins read (eta, eta', V, J and the
    clock), so it holds no more than one block's states next to the
    (directions x samples) margins (cache blocking: Lam, Rothberg & Wolf,
    ASPLOS 1991).  Every candidate direction is
    refined on the exact margins of its own rows, in the order of its
    first candidate, and only the earliest exit is located exactly: once
    a candidate lies after the earliest crossing found, the remaining
    directions keep the solver's t_reached and exit reason.
    """
    _, s1, dense, _ = flow.segments[0]
    lay = flow.layout
    B, w = len(flow.dirs), lay.width
    mw = w - lay.d * lay.n_jac                      # all but J': what the margins read
    frac = flow.t_reached.max() / flow.t_target
    sg = np.linspace(0.0, s1, max(3, int(np.ceil(frac * SCAN_POINTS)) + 1))
    rows = np.append(np.arange(B)[:, None] * w + np.arange(mw), B * w)
    ms, tg = np.empty((B, len(sg))), np.empty(len(sg))
    step = max(1, SCAN_BLOCK // B)
    for k in range(0, len(sg), step):
        vals = dense(sg[k:k + step], rows)
        tg[k:k + step] = vals[-1]
        st = lay.unpack(np.moveaxis(vals[:-1].reshape(B, mw, -1), 1, 2))
        ms[:, k:k + step] = _margins(m, st, vals[-1], L0[:, None], screen=True)
    sg, tg, ms = sg[1:], tg[1:], ms[:, 1:]        # sigma = 0 is the base point
    dip, bad = _scan_candidates(ms)
    cand = dip | bad
    has = np.nonzero(cand.any(axis=1))[0]
    left = np.maximum(np.argmax(cand[has], axis=1) - 1, 0)   # first candidate's bracket
    t_best = np.inf
    for i, lo in sorted(zip(has, left), key=lambda p: (tg[p[1]], p[0])):
        if tg[lo] > t_best:
            break
        rows_i = np.append(i * w + np.arange(mw), B * w)

        def state(s, rows_i=rows_i):
            y = dense(s, rows_i)
            return lay.unpack(y[:-1]), y[-1]

        def margin_fn(s, i=i, state=state):
            return float(_margins(m, *state(s), L0[i]))

        s_cross = _first_margin_crossing(margin_fn, sg, np.nonzero(dip[i])[0],
                                         np.nonzero(bad[i])[0])
        if s_cross is None:
            continue
        t_cross = float(flow.clock.t(s_cross))
        if t_cross < flow.t_reached[i] - 1e-12:
            flow.t_reached[i] = t_cross
            flow.exit_reason[i] = _exit_label(m, *state(s_cross), L0[i])
        t_best = min(t_best, flow.t_reached[i])


def find_validity_times(m: FinslerModel, x0, dirs, t_cap):
    """Largest parameter time each direction stays inside the valid region.

    Each direction runs as its own flow, so one exit does not stop the
    others.  Returns (t_valid, reasons); reasons entries are None for
    directions that reach the cap untroubled.
    """
    flows = [radial_flow(m, x0, v[None], float(t_cap), post_scan=True)
             for v in np.asarray(dirs, dtype=float)]
    return (np.array([f.t_reached[0] for f in flows]),
            [f.exit_reason[0] for f in flows])
