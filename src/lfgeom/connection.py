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

The jet part of the pass (`_jet_section`: L, the g-entry jets, the spray
and its LDL^T solve) is recorded once per model and order (`jets.record`)
and replayed on every call; its outputs are truncated to the rows the
fields read, so the replay computes nothing else.  The fields are gathered
from those outputs; ginv and M are computed on first read, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import jets
from .jets import Jet, gradient, jet_derivative, jetspace, lift
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


def _check_pivot(j, pivot, scale):
    if np.min(np.abs(pivot)) <= PIVOT_TOL * scale:
        raise DegenerateMetricError(f"pivot {j} below tolerance; g_v degenerate")


def ldl_factor(mat):
    """Symmetric LDL^T factorization over any commutative ring with division.

    ``mat`` is a d x d nested list (symmetric; the lower triangle is
    read).  Entries may be floats, numpy batches, or jets.  Pivots whose
    constant part falls below PIVOT_TOL relative to the matrix scale
    raise DegenerateMetricError (plain Cholesky would be inapplicable:
    the signature is indefinite, so pivots change sign).
    """
    d = len(mat)
    scale = jets.apply(lambda *entries: max(float(np.max(np.abs(e))) for e in entries) or 1.0,
                       *[mat[i][j] for i in range(d) for j in range(i + 1)])
    return _ldl(mat, lambda j, pivot: jets.apply(partial(_check_pivot, j), pivot, scale,
                                                 check=True))


def _ldl(mat, check=None):
    """The LDL^T factorization of `ldl_factor`; ``check(j, pivot)`` runs on
    each pivot before it divides."""
    d = len(mat)
    L = [[None] * d for _ in range(d)]
    D = [None] * d
    for j in range(d):
        pivot = mat[j][j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k] * D[k]
        if check is not None:
            check(j, pivot)
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
    are None.  The metric slopes, ``ginv`` and ``M`` are computed on first
    read, once; reading them never raises (every check ran in
    `eval_connection`).
    """

    L: np.ndarray
    g: np.ndarray
    G: np.ndarray | None = None
    N: np.ndarray | None = None
    dG_dx: np.ndarray | None = None
    dN_dx: np.ndarray | None = None
    dN_dv: np.ndarray | None = None
    v: np.ndarray | None = field(default=None, repr=False)  # the reference vectors, for M
    gc: list | None = field(default=None, repr=False)  # the g-entry outputs, rows to order 1
    gfac: tuple | None = field(default=None, repr=False)  # the checked LDL^T of g, at order 2

    @cached_property
    def dg_dx(self) -> np.ndarray | None:
        return self._slopes(0)

    @cached_property
    def dg_dv(self) -> np.ndarray | None:
        return self._slopes(1)

    @cached_property
    def _gv(self):
        return np.stack(self.gc)  # [entry, row] + batch

    def _slopes(self, half):
        """dg[..., c, a, b]: row first[c] (c over x) or first[d + c] (over v) of entry (a, b)."""
        if self.gc is None:
            return None
        d = self.g.shape[-1]
        _, sym, first = _tables(d)
        return _batch_first(self._gv[sym, first[half * d:(half + 1) * d, None, None]], 3)

    @cached_property
    def ginv(self) -> np.ndarray:
        """Stacked LDL^T solves of unit columns; symmetric to round-off."""
        d = self.g.shape[-1]
        fac = self.gfac or _ldl([[self.g[..., i, j] for j in range(d)] for i in range(d)])
        eye = np.eye(d)
        cols = [ldl_apply(*fac, [eye[i, j] for i in range(d)]) for j in range(d)]
        return np.stack([np.stack(col, axis=-1) for col in cols], axis=-1)

    @cached_property
    def M(self) -> np.ndarray | None:
        """M^a_c = Gamma^a_bc(v) v^b; only the first Cartan term survives the
        contraction, with N v = G by Euler's theorem."""
        if self.G is None:
            return None
        dg_dx, v = self.dg_dx, self.v
        T1 = np.einsum("...bdg,...b->...dg", dg_dx, v)                             # d_b g_dg v^b
        T2 = np.einsum("...gbd,...b->...dg", dg_dx, v)                             # d_g g_bd v^b
        T3 = np.einsum("...dbg,...b->...dg", dg_dx, v)                             # d_d g_bg v^b
        cartan_G = np.einsum("...mdg,...m->...dg", self.dg_dv, self.G)
        return 0.5 * np.einsum("...ad,...dg->...ag", self.ginv, T1 + T2 - T3 - cartan_G)


def _require_future_timelike(L, v):
    v0 = np.asarray(v)[..., 0]
    bad = ~((np.asarray(L) < 0.0) & (v0 > 0.0))
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), np.shape(bad)) if np.shape(bad) else ()
        raise CausalityError(
            f"connection pipeline needs future timelike v; offending batch index {idx}"
        )


def _jet_section(m: FinslerModel, order: int):
    """The jet part of the pipeline, to record: from the lifted x and v, L
    (order 0), the g-entry jets (upper triangle, row-major; order <= 1) and,
    for order >= 3, the spray jets G^a (carried to order ``order - 3``); at
    order 5 they stop at order 1 and are followed by their v^b-derivatives
    (row-major in (a, b)), so the d^2 G / dx dx rows are never computed."""
    d = m.dim

    def section(inputs):
        Lj = m.L_fn(inputs[:d], inputs[d:])
        # second v-derivatives of the L jet: order-(order-2) jets of g entries
        gj = [[None] * d for _ in range(d)]
        for a in range(d):
            da = jet_derivative(Lj, d + a)
            for b in range(a, d):
                gj[a][b] = gj[b][a] = 0.5 * jet_derivative(da, d + b)
        out = [Lj.truncated(0)] + [gj[a][b].truncated(1) for a in range(d) for b in range(a, d)]
        if order == 2:
            return out

        # spray, assembled in jet arithmetic at the remaining order
        rem = order - 3
        vj = [inputs[d + k].truncated(rem) for k in range(d)]
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
        if order < 5:
            return out + Gj
        return (out + [G.truncated(1) for G in Gj]
                + [jet_derivative(G, d + b) for G in Gj for b in range(d)])

    return section


def _batch_first(arr, k):  # the k leading (index) axes of arr go behind its batch axes
    return np.ascontiguousarray(arr.transpose(tuple(range(k, arr.ndim)) + tuple(range(k))))


def eval_connection(m: FinslerModel, x, v, order: int = 4, validate: bool = True) -> ConnectionData:
    """One pass of the connection pipeline at (x, v).

    order = 2: fundamental tensor only; order = 3 adds metric slopes,
    the spray, and the transport matrix; order = 4 adds N and dG/dx;
    order = 5 adds dN/dx and dN/dv.
    """
    if order < 2 or order > 5:
        raise ValueError("order must be 2, 3, 4, or 5")
    d = m.dim
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    values = components(x, d) + components(v, d)
    program = m.program(("connection", order), lambda: jets.record(
        _jet_section(m, order), jetspace(2 * d, order), list(range(2 * d)),
        [np.ravel(c)[:1] for c in values]))
    return _connection_data(program.run(values), m, v, order, validate)


@lru_cache(maxsize=None)
def _tables(d: int):
    """Index tables of `_connection_data`: the g-entry output of each (a, b)
    and the graded-lex row of d/dy over y = (x, v)."""
    upper = [(a, b) for a in range(d) for b in range(a, d)]  # the g-entry outputs
    sym = np.array([[upper.index((min(a, b), max(a, b))) for b in range(d)] for a in range(d)])
    return len(upper), sym, 2 * d - np.arange(2 * d)


def _connection_data(outputs, m: FinslerModel, v, order: int, validate: bool) -> ConnectionData:
    """ConnectionData from the output coefficient arrays of `_jet_section`."""
    d = m.dim
    nu, sym, first = _tables(d)
    Lc, gc, Gc = outputs[0], outputs[1:1 + nu], outputs[1 + nu:1 + nu + d]
    batch = Lc.shape[1:]
    Lval = np.array(Lc[0])
    if validate:
        _require_future_timelike(Lval, np.broadcast_to(v, batch + (d,)))

    g = _batch_first(np.stack([c[0] for c in gc])[sym], 2)
    if order == 2:  # no jet LDL^T was recorded: check g's pivots now
        return ConnectionData(L=Lval, g=g,
                              gfac=ldl_factor([[g[..., i, j] for j in range(d)] for i in range(d)]))

    out = ConnectionData(L=Lval, g=g, v=np.array(v, dtype=float), gc=gc)
    Gs = np.stack(Gc)  # [a, row] + batch
    out.G = _batch_first(Gs[:, 0], 1)
    if order == 3:
        return out

    # first-order coefficients of the spray jets: dG/dx and N
    out.dG_dx = _batch_first(Gs[:, first[:d]], 2)
    out.N = 0.5 * _batch_first(Gs[:, first[d:]], 2)
    if order == 4:
        return out

    # d2G[..., c, a, b] = d^2 G^a / dy^c dv^b: row first[c] of the v^b-derivative of G^a
    dG = np.stack(outputs[1 + nu + d:])
    dG = dG.reshape((d, d) + dG.shape[1:])  # [a, b, row] + batch
    d2G = _batch_first(np.moveaxis(dG[:, :, first], 2, 0), 3)
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
