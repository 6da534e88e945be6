"""Connection coefficients of a Lorentz-Finsler Lagrangian.

Everything here derives from one batched jet evaluation of L over joint
(x, v) jet variables:

    g_ab        = (1/2) d^2 L / dv^a dv^b          (fundamental tensor)
    Gamma~^a_bc = (1/2) g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc)
    G^a         = Gamma~^a_bc v^b v^c              (spray)
    N^a_b       = (1/2) dG^a/dv^b                  (nonlinear connection)
    dN^a_b/dx^c = (1/2) d^2 G^a/dx^c dv^b          (outer derivatives of N,
    dN^a_b/dv^c = (1/2) d^2 G^a/dv^c dv^b           for the curvature)
    Gamma^a_bc  = Chern connection (Gamma~ corrected by the Cartan tensor
                  contracted with N)

The spray is assembled *inside* jet arithmetic (the metric inverse is
computed by LDL^T factorization over the jet ring), so dG/dx, N and the
outer derivatives of N come out exact to round-off rather than via
finite differences: an order-k pass carries the spray jets to order
k - 3.  By Euler's theorem for the 2-homogeneous spray,
sum_b N^a_b v^b = G^a; the transport matrix M^a_c = Gamma^a_bc(v) v^b
needed for parallel transport reduces to Gamma~ v minus a single Cartan
term in G because the Cartan tensor annihilates v in every slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, gradient, jet_derivative, jetspace, lift, partial
from .models import CausalityError, FinslerModel, components

__all__ = [
    "ConnectionData",
    "DegenerateMetricError",
    "eval_connection",
    "gamma_tilde",
    "spray",
    "nonlinear_connection",
    "chern_gamma",
    "transport_matrix",
    "covariant_derivative",
    "ldl_factor",
    "ldl_apply",
]

PIVOT_TOL = 1e-12


class DegenerateMetricError(ArithmeticError):
    """LDL^T pivot collapsed: g_v is numerically degenerate."""


def _const_of(e):
    return np.asarray(e.value) if isinstance(e, Jet) else np.asarray(e)


def ldl_factor(mat):
    """Symmetric LDL^T factorization over any commutative ring with division.

    ``mat`` is a d x d nested list (symmetric; the lower triangle is
    read).  Entries may be floats, numpy batches, or jets.  Pivots whose
    constant part falls below PIVOT_TOL relative to the matrix scale
    raise DegenerateMetricError (plain Cholesky would be inapplicable:
    the signature is indefinite, so pivots change sign).
    """
    d = len(mat)
    scale = max(float(np.max(np.abs(_const_of(mat[i][j]))))
                for i in range(d) for j in range(i + 1)) or 1.0
    L = [[None] * d for _ in range(d)]
    D = [None] * d
    for j in range(d):
        pivot = mat[j][j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k] * D[k]
        if np.min(np.abs(_const_of(pivot))) <= PIVOT_TOL * scale:
            raise DegenerateMetricError(f"pivot {j} below tolerance; g_v degenerate")
        D[j] = pivot
        for i in range(j + 1, d):
            acc = mat[i][j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k] * D[k]
            L[i][j] = acc / pivot
    return L, D


def ldl_apply(L, D, rhs):
    """Solve (L D L^T) z = rhs for one right-hand side (list of entries)."""
    d = len(D)
    y = list(rhs)
    for i in range(d):
        for k in range(i):
            y[i] = y[i] - L[i][k] * y[k]
    for i in range(d):
        y[i] = y[i] / D[i]
    for i in range(d - 1, -1, -1):
        for k in range(i + 1, d):
            y[i] = y[i] - L[k][i] * y[k]
    return y


@dataclass
class ConnectionData:
    """Values of the connection pipeline at (x, v); leading axes are batch.

    Index conventions: dg_dx[..., c, a, b] = d g_ab / d x^c and likewise
    dg_dv; dG_dx[..., a, b] = d G^a / d x^b; dN_dx[..., c, a, b] =
    d N^a_b / d x^c and likewise dN_dv.  Fields beyond the requested order
    are None.
    """

    L: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg_dx: np.ndarray | None = None
    dg_dv: np.ndarray | None = None
    G: np.ndarray | None = None
    M: np.ndarray | None = None
    N: np.ndarray | None = None
    dG_dx: np.ndarray | None = None
    dN_dx: np.ndarray | None = None
    dN_dv: np.ndarray | None = None


def _require_future_timelike(L, v):
    v0 = np.asarray(v)[..., 0]
    bad = ~((np.asarray(L) < 0.0) & (v0 > 0.0))
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), np.shape(bad)) if np.shape(bad) else ()
        raise CausalityError(
            f"connection pipeline needs future timelike v; offending batch index {idx}"
        )


def eval_connection(m: FinslerModel, x, v, order: int = 4, validate: bool = True) -> ConnectionData:
    """One pass of the jet pipeline at (x, v).

    order = 2: fundamental tensor only; order = 3 adds metric slopes,
    the spray, and the transport matrix; order = 4 adds N and dG/dx;
    order = 5 adds dN/dx and dN/dv.
    """
    if order < 2 or order > 5:
        raise ValueError("order must be 2, 3, 4, or 5")
    d = m.dim
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
    sp = jetspace(2 * d, order)
    lifted = lift(sp, list(components(x, d)) + list(components(v, d)), active=list(range(2 * d)))
    Lj = m.L_fn(lifted[:d], lifted[d:])

    Lval = np.broadcast_to(Lj.value, batch)
    if validate:
        _require_future_timelike(Lval, np.broadcast_to(v, batch + (d,)))

    # second v-derivatives of the L jet: order-(order-2) jets of g entries
    gj = [[None] * d for _ in range(d)]
    for a in range(d):
        da = jet_derivative(Lj, d + a)
        for b in range(a, d):
            gj[a][b] = gj[b][a] = 0.5 * jet_derivative(da, d + b)

    g = np.empty(batch + (d, d))
    for a in range(d):
        for b in range(a, d):
            g[..., a, b] = g[..., b, a] = np.broadcast_to(gj[a][b].value, batch)

    gfac = ldl_factor([[g[..., i, j] for j in range(d)] for i in range(d)])
    eye = np.eye(d)
    ginv_cols = [ldl_apply(*gfac, [np.broadcast_to(eye[i, j], batch) for i in range(d)])
                 for j in range(d)]
    ginv = np.stack([np.stack(col, axis=-1) for col in ginv_cols], axis=-1)
    # ginv[..., i, j]: stacked solves of unit columns; symmetric to round-off

    out = ConnectionData(L=Lval, g=g, ginv=ginv)
    if order == 2:
        return out

    # metric slopes (values)
    dg_dx = np.empty(batch + (d, d, d))
    dg_dv = np.empty(batch + (d, d, d))
    for a in range(d):
        for b in range(a, d):
            for c in range(d):
                dg_dx[..., c, a, b] = dg_dx[..., c, b, a] = np.broadcast_to(
                    jet_derivative(gj[a][b], c).value, batch)
                dg_dv[..., c, a, b] = dg_dv[..., c, b, a] = np.broadcast_to(
                    jet_derivative(gj[a][b], d + c).value, batch)
    out.dg_dx = dg_dx
    out.dg_dv = dg_dv

    # spray, assembled in jet arithmetic at the remaining order
    rem = order - 3
    vj = [lifted[d + k].truncated(rem) for k in range(d)]
    dgx = [[[jet_derivative(gj[a][b], c).truncated(rem) for b in range(d)]
            for a in range(d)] for c in range(d)]
    P = [[vj[bq] * vj[cq] for cq in range(d)] for bq in range(d)]
    rhs = []
    for dq in range(d):
        acc = None
        for bq in range(d):
            for cq in range(d):
                term = dgx[bq][dq][cq] * P[bq][cq] - 0.5 * (dgx[dq][bq][cq] * P[bq][cq])
                acc = term if acc is None else acc + term
        rhs.append(acc)
    gj_t = [[gj[i][j].truncated(rem) for j in range(d)] for i in range(d)]
    Gj = ldl_apply(*ldl_factor(gj_t), rhs)

    G = np.stack([np.broadcast_to(Gj[a].value, batch) for a in range(d)], axis=-1)
    out.G = G

    # transport matrix M^a_c = Gamma^a_bc(v) v^b; only the first Cartan
    # term survives the contraction, with N v = G by Euler's theorem
    T1 = np.einsum("...bdg,...b->...dg", dg_dx, v)                             # d_b g_dg v^b
    T2 = np.einsum("...gbd,...b->...dg", dg_dx, v)                             # d_g g_bd v^b
    T3 = np.einsum("...dbg,...b->...dg", dg_dx, v)                             # d_d g_bg v^b
    cartan_G = np.einsum("...mdg,...m->...dg", dg_dv, G)
    out.M = 0.5 * np.einsum("...ad,...dg->...ag", ginv, T1 + T2 - T3 - cartan_G)

    if order == 3:
        return out

    # first-order coefficients of the spray jets: dG/dx and N
    dG_dx = np.empty(batch + (d, d))
    N = np.empty(batch + (d, d))
    for a in range(d):
        grad = gradient(Gj[a])
        for b in range(d):
            dG_dx[..., a, b] = np.broadcast_to(grad[b], batch)
            N[..., a, b] = 0.5 * np.broadcast_to(grad[d + b], batch)
    out.dG_dx = dG_dx
    out.N = N
    if order == 4:
        return out

    # second-order coefficients of the spray jets: the outer derivatives of N
    unit = np.eye(2 * d, dtype=int)
    d2G = np.empty(batch + (2 * d, d, d))  # d^2 G^a / dy^c dv^b over y = (x, v)
    for a in range(d):
        for b in range(d):
            for c in range(2 * d):
                d2G[..., c, a, b] = np.broadcast_to(partial(Gj[a], unit[c] + unit[d + b]), batch)
    out.dN_dx = 0.5 * d2G[..., :d, :, :]
    out.dN_dv = 0.5 * d2G[..., d:, :, :]
    return out


# ------------------------------------------------------------ public ops


def gamma_tilde(m: FinslerModel, x, v) -> np.ndarray:
    """Formal (metric) Christoffel symbols at reference vector v."""
    c = eval_connection(m, x, v, order=3)
    P1 = np.einsum("...bdg->...dbg", c.dg_dx)            # d_b g_dg
    P2 = np.einsum("...gbd->...dbg", c.dg_dx)            # d_g g_bd
    P3 = c.dg_dx                                          # d_d g_bg
    return 0.5 * np.einsum("...ad,...dbg->...abg", c.ginv, P1 + P2 - P3)


def spray(m: FinslerModel, x, v) -> np.ndarray:
    """G^a(v) = Gamma~^a_bc(v) v^b v^c; positively 2-homogeneous."""
    return eval_connection(m, x, v, order=3).G


def nonlinear_connection(m: FinslerModel, x, v) -> np.ndarray:
    """N^a_b = (1/2) dG^a/dv^b; positively 1-homogeneous, N v = G."""
    return eval_connection(m, x, v, order=4).N


def chern_gamma(m: FinslerModel, x, v) -> np.ndarray:
    """Chern connection coefficients at reference vector v."""
    c = eval_connection(m, x, v, order=4)
    gt = gamma_tilde(m, x, v)
    E1 = np.einsum("...mdg,...mb->...dbg", c.dg_dv, c.N)
    E2 = np.einsum("...mbd,...mg->...dbg", c.dg_dv, c.N)
    E3 = np.einsum("...mbg,...md->...dbg", c.dg_dv, c.N)
    return gt - 0.5 * np.einsum("...ad,...dbg->...abg", c.ginv, E1 + E2 - E3)


def transport_matrix(m: FinslerModel, x, v) -> np.ndarray:
    """M^a_c = Gamma^a_bc(v) v^b, the parallel-transport generator along v."""
    return eval_connection(m, x, v, order=3).M


def covariant_derivative(m: FinslerModel, field, x, v, w) -> np.ndarray:
    """Covariant derivative of a vector field along v with reference vector w.

    ``field(x_components) -> list of 1+n ring elements``; its position
    derivatives are taken by jets, so any smooth closed-form field works.
    """
    d = m.dim
    x = np.asarray(x, dtype=float)
    sp = jetspace(d, 1)
    xj = lift(sp, components(x, d), active=list(range(d)))
    X = field(xj)
    Xval = np.stack([np.asarray(Xi.value if isinstance(Xi, Jet) else Xi) for Xi in X], axis=-1)
    dX = np.stack(
        [np.moveaxis(gradient(Xi), 0, -1) if isinstance(Xi, Jet)
         else np.zeros(np.shape(np.asarray(Xi)) + (d,))
         for Xi in X],
        axis=-2,
    )  # dX[..., a, b] = dX^a/dx^b
    gamma = chern_gamma(m, x, w)
    v = np.asarray(v, dtype=float)
    return (np.einsum("...ab,...b->...a", dX, v)
            + np.einsum("...abg,...b,...g->...a", gamma, v, Xval))
