"""DOP853 flows, terminal-event location and quadrature, ported from SciPy.

Every geodesic, transport and Jacobi flow in lfgeom is integrated by the
explicit Runge-Kutta method of order 8(5,3) of Dormand and Prince, with its
7th-order dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Springer 1993, Sec. II.10).  Validity
exits are located on that dense output by Brent's method (Brent,
*Algorithms for Minimization without Derivatives*, 1973, Ch. 4), a
margin that dips to zero without a sign change by Brent's bounded
minimizer (Ch. 5), and sampled densities are integrated by Simpson's and
the trapezoidal rule.

This module ports exactly the SciPy 1.17 code those paths run:
``integrate/_ivp/{ivp,rk,base,common,dop853_coefficients}.py``,
``integrate/_quadrature.py``, the C ``brentq`` behind ``optimize.brentq``
and ``optimize/_optimize.py::_minimize_scalar_bounded`` behind
``minimize_scalar(method="bounded")``.  It does the same floating-point
operations in the same order, so its results equal SciPy's bit for bit,
without importing SciPy, whose import graph dominated the start-up of
every ``lfgeom`` process.  Only what lfgeom calls is ported: forward
integration of real states over a non-empty span, dense output always
on, at most one event (always terminal), no ``t_eval``, ``max_step``,
``args`` or ``vectorized``; the bounded minimizer on finite ordered
bounds, without ``args``, ``disp`` or a status flag; Simpson's rule on
odd counts of evenly spaced samples only, and the running trapezoid on
1-D samples only.

SciPy's license, under which this port is distributed:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import groupby

import numpy as np

__all__ = ["OdeResult", "OdeSolution", "brentq", "cumulative_trapezoid", "fminbound",
           "simpson", "solve_ivp"]

EPS = np.finfo(float).eps

# ------------------------------------------------- DOP853 coefficients

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
              1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, [0]] = [5.26001519587677318785587544488e-2]
A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
    -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
    -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1]

# the dense output's coefficients past the first three, which are computed separately
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [-0.84289382761090128651353491142e+1,
    0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1]
D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [0.10427508642579134603413151009e+2,
    0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2]
D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [0.19985053242002433820987653617e+2,
    -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2]
D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [-0.25693933462703749003312586129e+2,
    -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3]

# the method proper: its first 12 stages; the dense output adds stages 13-15
A_STEP, C_STEP = A[:N_STAGES, :N_STAGES], C[:N_STAGES]
A_EXTRA, C_EXTRA = A[N_STAGES + 1:], C[N_STAGES + 1:]

SAFETY = 0.9       # multiplies steps computed from the asymptotic error behaviour
MIN_FACTOR = 0.2   # minimum allowed decrease in a step size
MAX_FACTOR = 10    # maximum allowed increase in a step size
ERROR_ORDER = 7    # order of the error estimator
ERROR_EXPONENT = -1 / (ERROR_ORDER + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}


# ------------------------------------------------------------ stepping


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer, Norsett & Wanner's empirical first step (Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One step of the 12-stage method; stages go into the rows of K."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A_STEP[1:], C_STEP[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


class _Dop853:
    """Stepper state: SciPy's ``OdeSolver``, ``RungeKutta`` and ``DOP853``."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        y0 = np.asarray(y0).astype(float, copy=False)
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if np.any(rtol < 100 * EPS):
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
            rtol = np.maximum(rtol, 100 * EPS)
        atol = np.asarray(atol)
        if atol.ndim > 0 and atol.shape != y0.shape:
            raise ValueError("`atol` has wrong shape.")
        if np.any(atol < 0):
            raise ValueError("`atol` must be positive.")
        self._fun, self.rtol, self.atol = fun, rtol, atol
        self.t_old, self.t, self.y, self.t_bound = None, t0, y0, t_bound
        self.y_old = self.h_previous = None
        self.status = "running"
        self.f = self.fun(t0, y0)
        self.h_abs = _select_initial_step(self.fun, t0, y0, t_bound, self.f, rtol, atol)
        self.K_extended = np.empty((N_STAGES_EXTENDED, y0.size))
        self.K = self.K_extended[:N_STAGES + 1]

    def fun(self, t, y):
        return np.asarray(self._fun(t, y), dtype=float)

    def _error_norm(self, K, h, scale):
        err5 = np.dot(K.T, E5) / scale
        err3 = np.dot(K.T, E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def step(self):
        """Advance one accepted step and update ``status``; return a failure
        message or None."""
        t = self.t
        y = self.y
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)

            y_new, f_new = _rk_step(self.fun, t, y, self.f, h, self.K)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(self.K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True

        self.h_previous = h
        self.t_old, self.y_old = t, y
        self.t, self.y = t_new, y_new
        self.h_abs = h_abs
        self.f = f_new
        if self.t - self.t_bound >= 0:
            self.status = "finished"
        return None

    def dense_output(self):
        """Interpolant over the last accepted step (three more rhs calls)."""
        K = self.K_extended
        h = self.h_previous
        for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=N_STAGES + 1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(self.t_old + c * h, self.y_old + dy)

        F = np.empty((INTERPOLATOR_POWER, self.y.size), dtype=self.y_old.dtype)
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)
        return _Dop853Dense(self.t_old, self.t, self.y_old, F)


class _Dop853Dense:
    """The 7th-order interpolant of one step."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old = t_old
        self.h = t - t_old
        self.F = F
        self.y_old = y_old

    def __call__(self, t, rows=None):
        """The state at t, or only its components ``rows`` (an index array):
        the same per-component arithmetic, so the same bits.  The rows of
        one coefficient at a time are gathered, never a copy of all of F."""
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        y_old = self.y_old if rows is None else self.y_old[rows]
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
        for i, f in enumerate(reversed(self.F)):
            y += f if rows is None else f[rows]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        return y.T


class OdeSolution:
    """Dense solution over the ascending step times ``ts``: one interpolant
    per step, and at a step time the earlier step's interpolant.  Called
    with a scalar it returns the state (n,), with a 1-D array (n, points);
    ``rows`` (an index array) keeps only those components, bit for bit."""

    def __init__(self, ts, interpolants):
        self.ts = np.asarray(ts)
        self.interpolants = interpolants
        self.n_segments = len(interpolants)

    def _call_single(self, t, rows):
        ind = np.searchsorted(self.ts, t, side="left")
        segment = min(max(ind - 1, 0), self.n_segments - 1)
        return self.interpolants[segment](t, rows)

    def __call__(self, t, rows=None):
        t = np.asarray(t)
        if t.ndim == 0:
            return self._call_single(t, rows)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.searchsorted(self.ts, t_sorted, side="left")
        segments -= 1
        segments[segments < 0] = 0
        segments[segments > self.n_segments - 1] = self.n_segments - 1
        ys = []
        group_start = 0
        for segment, group in groupby(segments):
            group_end = group_start + len(list(group))
            ys.append(self.interpolants[segment](t_sorted[group_start:group_end], rows))
            group_start = group_end
        ys = np.hstack(ys)
        return ys[:, reverse]


@dataclass
class OdeResult:
    """One `solve_ivp` run: step times ``t``, states ``y`` (n, len(t)),
    dense solution ``sol``, and status: 0 reached the end, 1 stopped at the
    event (at ``t[-1]``), -1 failed."""

    t: np.ndarray
    y: np.ndarray
    sol: OdeSolution
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status >= 0


def _event_crossed(g, g_new, direction):
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    return bool(up & (direction > 0) | down & (direction < 0) | (up | down) & (direction == 0))


def solve_ivp(fun, t_span, y0, *, rtol=1e-3, atol=1e-6, event=None) -> OdeResult:
    """Integrate y' = fun(t, y) forward over the non-empty t_span with DOP853.

    ``event``, if given, is a function ``event(t, y)`` with an optional
    ``direction`` attribute (0, the default: either sign change; -1: from
    positive to negative; +1: the reverse).  The integration stops at its
    first zero, located by `brentq` on the dense output of the step in
    which it changed sign, as a SciPy event with ``terminal=True`` does.
    """
    t0, tf = map(float, t_span)
    if tf <= t0:
        raise ValueError("only forward integration over a non-empty span is supported")
    solver = _Dop853(fun, t0, y0, tf, rtol, atol)
    ts = [t0]
    ys = [y0]
    interpolants = []
    if event is not None:
        direction = getattr(event, "direction", 0)
        g = event(t0, y0)
    status = None
    while status is None:
        message = solver.step()
        if solver.status == "finished":
            status = 0
        elif solver.status == "failed":
            status = -1
            break
        t_old = solver.t_old
        t = solver.t
        y = solver.y
        sol = solver.dense_output()
        interpolants.append(sol)
        if event is not None:
            g_new = event(t, y)
            if _event_crossed(g, g_new, direction):
                t = brentq(lambda t: event(t, sol(t)), t_old, t, xtol=4 * EPS, rtol=4 * EPS)
                status = 1
                y = sol(t)
            g = g_new
        if len(ts) > 1 and ts[-1] == t:  # the event sits on the last step time
            interpolants.pop()
        else:
            ts.append(t)
            ys.append(y)
    return OdeResult(t=np.array(ts), y=np.vstack(ys).T, sol=OdeSolution(ts, interpolants),
                     status=status, message=MESSAGES.get(status, message))


# ------------------------------------------------------------- brentq


def _signbit(x):
    return math.copysign(1.0, x) < 0


def _div(a, b):
    """a / b as C computes it, also for b == 0."""
    if b == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / np.float64(b))
    return a / b


def brentq(f, a, b, xtol=2e-12, rtol=4 * EPS, maxiter=100):
    """A zero of f in [a, b], where f(a) and f(b) differ in sign.

    SciPy's C ``brentq`` statement for statement, with its Python
    wrapper's defaults, argument checks and errors: a NaN value of f raises
    ValueError, as does a bracket without a sign change; running out of
    iterations raises RuntimeError.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:             # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre = scur  # good short step
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


FMIN_XATOL = 1e-12  # the one tolerance a margin dip is located to
FMIN_MAXITER = 500  # SciPy's default evaluation cap


def fminbound(func, x1, x2):
    """(x, func(x), evaluations) at a local minimum of func on [x1, x2].

    SciPy's ``_minimize_scalar_bounded`` statement for statement: parabolic
    steps safeguarded by golden-section ones, until x is known to about
    FMIN_XATOL, or for at most FMIN_MAXITER evaluations.
    """
    xatol, maxiter = FMIN_XATOL, FMIN_MAXITER
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


# ---------------------------------------------------------- quadrature


def _tupleset(t, i, value):
    lst = list(t)
    lst[i] = value
    return tuple(lst)


def cumulative_trapezoid(y, x):
    """Running trapezoid integrals of the samples y over the 1-D points x,
    along y's last axis: len(x) - 1 values per row, the first over [x0, x1]."""
    y = np.asarray(y)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("x must be 1-D")
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ValueError("At least one point is required.")
    d = np.diff(x)
    if d.shape[0] != y.shape[-1] - 1:
        raise ValueError("If given, length of x along axis must be the same as y.")
    return np.cumsum(d * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def simpson(y, *, dx=1.0, axis=-1):
    """Composite Simpson integral of y along axis, over an odd number of
    samples at spacing dx."""
    y = np.asarray(y)
    N = y.shape[axis]
    if N % 2 == 0:
        raise ValueError("simpson takes an odd number of samples")
    slice_all = (slice(None),) * y.ndim
    slice0 = _tupleset(slice_all, axis, slice(0, N - 2, 2))
    slice1 = _tupleset(slice_all, axis, slice(1, N - 1, 2))
    slice2 = _tupleset(slice_all, axis, slice(2, N, 2))
    result = np.sum(y[slice0] + 4.0 * y[slice1] + y[slice2], axis=axis)
    result *= dx / 3.0
    return result
