"""Lorentz-Finsler model layer.

A model is a positively 2-homogeneous Lagrangian L(x, v) on the slit
tangent bundle of a coordinate chart, smooth away from v = 0, whose
velocity Hessian g_v = (1/2) d^2L/dv dv has signature (-, +, ..., +) on
the directions of interest.  Vectors with L(v) < 0 are timelike; the
future component is certified per model by the sign of v^0 (every
library Lagrangian is strictly positive on {v^0 = 0, v != 0}, so the
timelike set cannot cross that hyperplane).

Lagrangians and weights are written ring-generically: the same code
runs on floats, numpy batches, and jets, which is how the connection
layer extracts exact derivatives.

Library models
--------------
minkowski        flat quadratic metric
flrw             -(v0)^2 + a(x0)^2 |v_s|^2 with a in {exp, cosh, affine}
quartic_finsler  flat quartic perturbation; genuinely non-quadratic g_v
quartic_flrw     expanding version of the quartic model (position and
                 direction dependence at once)
einstein_static  product metric with round spherical slices in
                 stereographic coordinates; exhibits timelike conjugate
                 points inside the chart
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import jets
from .jets import jet_derivative, jetspace

__all__ = [
    "FinslerModel",
    "CausalityError",
    "model_library",
    "lagrangian",
    "fundamental_tensor",
    "signature_check",
    "classify",
    "lorentz_norm",
    "weight",
    "WEIGHT_TERMS",
    "LIGHTLIKE_BAND",
    "SIGNATURE_TOL",
]

LIGHTLIKE_BAND = 1e-9    # |L| <= band * |v|_euclid^2 counts as lightlike
SIGNATURE_TOL = 1e-10    # eigenvalue margin, relative to the largest magnitude


class CausalityError(ValueError):
    """Raised when a causal-character precondition fails."""


@dataclass(frozen=True)
class FinslerModel:
    name: str
    n: int                       # spatial dimension; chart is (1+n)-dimensional
    L_fn: Callable               # L_fn(x_components, v_components) -> ring element
    weight_fn: Callable | None = None
    chart_lo: tuple = ()
    chart_hi: tuple = ()
    params: Mapping = field(default_factory=dict)
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.n + 1

    def program(self, key, record):
        """This model's jet program ``key``, recorded by ``record()`` on first use."""
        prog = self._programs.get(key)
        if prog is None:
            prog = self._programs[key] = record()
        return prog


# ------------------------------------------------------------- components


def components(arr, dim):
    a = np.asarray(arr, dtype=float)
    if a.shape[-1] != dim:
        raise ValueError(f"expected trailing axis {dim}, got shape {a.shape}")
    return [a[..., k] for k in range(dim)]


def _spatial_sum_sq(v, n):
    s = v[1] * v[1]
    for i in range(2, n + 1):
        s = s + v[i] * v[i]
    return s


# ---------------------------------------------------------------- library


def _make_scale_fn(spec: str, params: dict):
    if spec == "exp":
        H = float(params.pop("H", 0.1))
        return (lambda t: jets.exp(H * t)), {"H": H}
    if spec == "cosh":
        om = float(params.pop("omega", 1.0))
        return (lambda t: jets.cosh(om * t)), {"omega": om}
    if spec == "affine":
        a0 = float(params.pop("a0", 1.0))
        q = float(params.pop("q", 0.5))
        return (lambda t: a0 + q * t), {"a0": a0, "q": q}
    raise ValueError(f"unknown flrw scale factor {spec!r}; use exp, cosh, or affine")


WEIGHT_TERMS = ("const", "linear_x0", "boost_ratio")


def make_weight(terms) -> Callable | None:
    """Build psi(x, v) as a sum of library terms.

    ``terms`` is a sequence of (kind, parameter) pairs; kinds:
    const (k), linear_x0 (alpha * x^0), boost_ratio (beta * v^1/v^0).
    Every term is 0-homogeneous in v.
    """
    terms = [(str(k), float(p)) for k, p in terms]
    if not terms:
        return None
    for kind, _ in terms:
        if kind not in WEIGHT_TERMS:
            raise ValueError(f"unknown weight term {kind!r}; use one of {WEIGHT_TERMS}")

    def psi(x, v):
        acc = 0.0
        for kind, p in terms:
            if kind == "const":
                acc = acc + p
            elif kind == "linear_x0":
                acc = acc + p * x[0]
            else:  # boost_ratio
                acc = acc + p * (v[1] / v[0])
        return acc

    return psi


def model_library(name: str, n: int, weight=None, **params) -> FinslerModel:
    """Construct a library model; unknown names raise ValueError."""
    if n < 1:
        raise ValueError("spatial dimension n must be >= 1")
    known = ("minkowski", "flrw", "quartic_finsler", "quartic_flrw", "einstein_static")
    box = float(params.pop("chart_half_width", 10.0))
    weight_fn = make_weight(weight) if weight else None

    if name == "minkowski":
        def L_fn(x, v, n=n):
            return -(v[0] * v[0]) + _spatial_sum_sq(v, n)
        meta = {}

    elif name == "flrw":
        scale = str(params.pop("scale", "exp"))
        a_fn, meta = _make_scale_fn(scale, params)
        meta = {"scale": scale, **meta}

        def L_fn(x, v, n=n, a_fn=a_fn):
            a = a_fn(x[0])
            return -(v[0] * v[0]) + (a * a) * _spatial_sum_sq(v, n)

    elif name == "quartic_finsler":
        eps = float(params.pop("eps", 0.05))
        meta = {"eps": eps}

        def L_fn(x, v, n=n, eps=eps):
            s = _spatial_sum_sq(v, n)
            q = v[1] * v[1]
            return -(v[0] * v[0]) + s + eps * (q * q) / (v[0] * v[0] + s)

    elif name == "quartic_flrw":
        eps = float(params.pop("eps", 0.05))
        H = float(params.pop("H", 0.1))
        meta = {"eps": eps, "H": H}

        def L_fn(x, v, n=n, eps=eps, H=H):
            a = jets.exp(H * x[0])
            s = _spatial_sum_sq(v, n)
            q = v[1] * v[1]
            return -(v[0] * v[0]) + (a * a) * (s + eps * (q * q) / (v[0] * v[0] + s))

    elif name == "einstein_static":
        if n < 2:
            raise ValueError("einstein_static needs n >= 2 (round spherical slices)")
        R = float(params.pop("radius", 1.0))
        meta = {"radius": R}

        def L_fn(x, v, n=n, R=R):
            r2 = x[1] * x[1]
            for i in range(2, n + 1):
                r2 = r2 + x[i] * x[i]
            conf = (2.0 * R * R) / (R * R + r2)
            return -(v[0] * v[0]) + (conf * conf) * _spatial_sum_sq(v, n)

    else:
        raise ValueError(f"unknown model {name!r}; known: {known}")

    if params:
        raise ValueError(f"unused parameters for {name}: {sorted(params)}")
    dim = n + 1
    return FinslerModel(
        name=name,
        n=n,
        L_fn=L_fn,
        weight_fn=weight_fn,
        chart_lo=tuple([-box] * dim),
        chart_hi=tuple([box] * dim),
        params=meta,
    )


# ------------------------------------------------------------- evaluation


def lagrangian(m: FinslerModel, x, v):
    """L(x, v); broadcasts over leading batch axes."""
    return np.asarray(m.L_fn(components(x, m.dim), components(v, m.dim)))


def weight(m: FinslerModel, x, v):
    """psi(x, v), one value per point of the batch shape of x and v (a
    constant weight too); zero when the model is unweighted."""
    out = np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(v)[:-1]))
    if m.weight_fn is not None:
        out[...] = m.weight_fn(components(x, m.dim), components(v, m.dim))
    return out


def fundamental_tensor(m: FinslerModel, x, v) -> np.ndarray:
    """g_v = (1/2) Hessian_v L at (x, v); shape (..., 1+n, 1+n) (recorded jets in v)."""
    d = m.dim
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(np.all(v == 0.0, axis=-1)):
        raise ValueError("fundamental tensor is undefined at v = 0")

    def hessian(xv):  # d^2 L / dv^a dv^b, a <= b row-major, as order-0 jets
        L = m.L_fn(xv[:d], xv[d:])
        return [jet_derivative(jet_derivative(L, a), b) for a in range(d) for b in range(a, d)]

    values = components(x, d) + components(v, d)
    program = m.program(("fundamental_tensor", 2), lambda: jets.record(
        hessian, jetspace(d, 2), list(range(d, 2 * d)), [np.ravel(c)[:1] for c in values]))
    entries = iter(program.run(values))
    g = np.empty(np.broadcast_shapes(x.shape[:-1], v.shape[:-1]) + (d, d))
    for a in range(d):
        for b in range(a, d):
            g[..., a, b] = g[..., b, a] = 0.5 * next(entries)[0]
    return g


def signature_check(m: FinslerModel, x, v):
    """Validate the (-, +, ..., +) signature of g_v.

    Returns (valid, eigenvalues); never raises on wrong signature.
    """
    g = fundamental_tensor(m, x, v)
    eig = np.linalg.eigvalsh(g)
    scale = np.max(np.abs(eig), axis=-1)
    tol = SIGNATURE_TOL * np.maximum(scale, 1e-300)
    valid = (eig[..., 0] < -tol) & (eig[..., 1] > tol)
    return valid, eig


def classify(m: FinslerModel, x, v):
    """Causal character: future/past timelike or lightlike, else spacelike.

    The lightlike band is |L| <= LIGHTLIKE_BAND * |v|^2 (Euclidean).
    Scale-invariant by 2-homogeneity of both sides.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.all(v == 0.0, axis=-1)):
        raise ValueError("cannot classify the zero vector")
    L = lagrangian(m, x, v)
    band = LIGHTLIKE_BAND * np.sum(v * v, axis=-1)
    future = v[..., 0] > 0
    labels = np.where(
        L < -band,
        np.where(future, "future-timelike", "past-timelike"),
        np.where(
            np.abs(L) <= band,
            np.where(future, "future-lightlike", "past-lightlike"),
            "spacelike",
        ),
    )
    return labels if labels.shape else labels.item()


def lorentz_norm(m: FinslerModel, x, v):
    """F(v) = sqrt(-L(v)) for causal v; raises CausalityError on spacelike input."""
    L = lagrangian(m, x, v)
    v = np.asarray(v, dtype=float)
    band = LIGHTLIKE_BAND * np.sum(v * v, axis=-1)
    if np.any(L > band):
        raise CausalityError("lorentz_norm needs a causal vector (L <= 0)")
    return np.sqrt(np.maximum(-L, 0.0))
