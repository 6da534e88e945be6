"""Spray curvature, flag curvature, and weighted Ricci quantities.

The curvature endomorphism at reference vector v is

    R^a_b = dG^a/dx^b - v^c dN^a_b/dx^c + G^c dN^a_b/dv^c - N^a_c N^c_b.

(Shen, Lectures on Finsler Geometry, 2001).  dG/dx and the outer
derivatives of N, dN^a_b/dx^c = (1/2) d^2 G^a/dx^c dv^b and
dN^a_b/dv^c = (1/2) d^2 G^a/dv^c dv^b, come exactly out of one order-5
pass of the jet pipeline.  Flag curvature follows the convention that
makes it the squared frequency of the frame Jacobi equation A'' = -K A,
i.e. an exponentially expanding warped product has K < 0 and
a round static universe has K > 0 on tangential flags:

    K(v, w) = g_v(R(w), w) / (g_v(v,w)^2 - g_v(v,v) g_v(w,w)).

The weight psi enters through its first two derivatives along the
geodesic t -> (eta(t), eta'(t)), computed exactly by lifting the
second-order Taylor expansion of the flow into one-variable jets:

    eta''  = -G,      eta''' = -(dG/dx) eta' + 2 N G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import ConnectionData, eval_connection
from .jets import Jet, jetspace
from .models import FinslerModel

__all__ = [
    "CurvatureData",
    "riemann_matrix",
    "flag_curvature",
    "ricci",
    "weight_along",
    "ricci_weighted",
    "ric_N",
]

DPSI_TOL = 1e-10


@dataclass
class CurvatureData:
    """Curvature endomorphism plus the pipeline values it was built from."""

    center: ConnectionData
    R: np.ndarray                # (..., a, b)

    @property
    def ric(self):
        return np.einsum("...aa->...", self.R)


def riemann_matrix(m: FinslerModel, x, v) -> CurvatureData:
    """Curvature endomorphism R^a_b at (x, v); batched over leading axes."""
    d = m.dim
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
    vb = np.broadcast_to(v, batch + (d,))
    c = eval_connection(m, np.broadcast_to(x, batch + (d,)), vb, order=5)
    R = (c.dG_dx
         - np.einsum("...c,...cab->...ab", vb, c.dN_dx)
         + np.einsum("...c,...cab->...ab", c.G, c.dN_dv)
         - np.einsum("...ac,...cb->...ab", c.N, c.N))
    return CurvatureData(center=c, R=R)


def flag_curvature(m: FinslerModel, x, v, w, data: CurvatureData | None = None):
    """Flag curvature of the plane span(v, w) with flagpole v.

    Invariant under w -> w + c v and under rescaling of either vector.
    """
    if data is None:
        data = riemann_matrix(m, x, v)
    g = data.center.g
    w = np.asarray(w, dtype=float)
    Rw = np.einsum("...ab,...b->...a", data.R, w)
    num = np.einsum("...a,...ab,...b->...", Rw, g, w)
    v = np.broadcast_to(np.asarray(v, dtype=float), w.shape)
    gvw = np.einsum("...a,...ab,...b->...", v, g, w)
    gvv = np.einsum("...a,...ab,...b->...", v, g, v)
    gww = np.einsum("...a,...ab,...b->...", w, g, w)
    den = gvw**2 - gvv * gww
    return num / den


def ricci(m: FinslerModel, x, v, data: CurvatureData | None = None):
    """Ricci scalar Ric(v) = trace of the curvature endomorphism."""
    if data is None:
        data = riemann_matrix(m, x, v)
    return data.ric


def weight_along(m: FinslerModel, x, v, conn: ConnectionData | None = None):
    """(psi, psi', psi'') of the weight along the geodesic through (x, v).

    Derivatives are with respect to the geodesic parameter of the canonical
    lift t -> (eta(t), eta'(t)); exact via one-variable order-2 jets.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    d = m.dim
    batch = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
    if m.weight_fn is None:
        z = np.zeros(batch)
        return z, z.copy(), z.copy()
    if conn is None:
        conn = eval_connection(m, x, v, order=4)
    xb = np.broadcast_to(x, batch + (d,))
    vb = np.broadcast_to(v, batch + (d,))
    acc = -conn.G
    jerk = -(np.einsum("...ab,...b->...a", conn.dG_dx, vb)
             - 2.0 * np.einsum("...ab,...b->...a", conn.N, conn.G))
    sp = jetspace(1, 2)
    xj = [Jet(sp, 2, np.stack([xb[..., a], vb[..., a], 0.5 * acc[..., a]]))
          for a in range(d)]
    vj = [Jet(sp, 2, np.stack([vb[..., a], acc[..., a], 0.5 * jerk[..., a]]))
          for a in range(d)]
    psi = m.weight_fn(xj, vj)
    if not isinstance(psi, Jet):
        val = np.broadcast_to(np.asarray(psi, dtype=float), batch)
        return val.copy(), np.zeros(batch), np.zeros(batch)
    c = psi.coeffs
    return (np.broadcast_to(c[0], batch).copy(),
            np.broadcast_to(c[1], batch).copy(),
            np.broadcast_to(2.0 * c[2], batch).copy())


def ricci_weighted(m: FinslerModel, x, v, N, data: CurvatureData | None = None):
    """Weighted Ricci Ric_N(v) for effective dimension N in R u {oo}.

    Ric_N = Ric + psi'' - (psi')^2 / (N - n), with the N = oo limit
    dropping the last term and N = n defined as Ric + psi'' where
    psi' = 0 and -oo elsewhere.  The formula itself is evaluated for any
    real N != n (the density inequalities consume N in (-oo,0) u (n,oo);
    the volume-ratio theorem consumes N in (n, oo]) -- restricting the
    domain is the caller's job.
    """
    if data is None:
        data = riemann_matrix(m, x, v)
    _, dpsi, d2psi = weight_along(m, x, v, conn=data.center)
    return ric_N(data.ric, dpsi, d2psi, N, m.n)


def ric_N(ric, dpsi, d2psi, N, n):
    """Ric_N from sampled Ric, psi', psi'' (see `ricci_weighted`), elementwise."""
    if np.isinf(N):
        return ric + d2psi
    if abs(N - n) <= 1e-12:
        return np.where(np.abs(dpsi) <= DPSI_TOL, ric + d2psi, -np.inf)
    return ric + d2psi - dpsi**2 / (N - n)
