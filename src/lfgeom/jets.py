"""Truncated multivariate Taylor arithmetic (jets).

A jet stores the Taylor coefficients of a smooth function at a point,
truncated at a fixed total degree, over a fixed number of variables.
Arithmetic on jets implements truncated power-series algebra, so pushing
a point "lifted" to jet variables through any composite of +, -, *, /,
and the elementary functions below yields the exact mixed partial
derivatives of the composite at that point (up to the truncation order).

Multi-indices are enumerated in graded lexicographic order, so the
coefficients of a jet of order k are a prefix of the coefficients of the
same function at any higher order.  Coefficient arrays may carry a
trailing batch axis: operations broadcast over it, which is how the rest
of the package evaluates geometry at many (point, vector) pairs at once.

Orders up to at least 5 are supported (the curvature layer needs fifth
derivatives of the Lagrangian); there is no hard upper limit beyond the
combinatorial growth of the coefficient table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as _sp

__all__ = [
    "Jet",
    "JetSpace",
    "JetDomainError",
    "OrderExceededError",
    "jetspace",
    "lift",
    "constant",
    "partial",
    "gradient",
    "jet_derivative",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "sinh",
    "cosh",
    "powr",
]

DIV_TOL = 1e-12  # constant-term magnitude below which division is refused


class JetDomainError(ValueError):
    """Raised when a jet operation leaves the domain of the function."""


class OrderExceededError(ValueError):
    """Raised when a partial of higher degree than the truncation is requested."""


def _compositions(dim: int, deg: int):
    """Multi-indices of total degree ``deg`` in ascending lexicographic order."""
    if dim == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _compositions(dim - 1, deg - first):
            yield (first,) + rest


def _graded_multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    return [m for deg in range(order + 1) for m in _compositions(dim, deg)]


class JetSpace:
    """Precomputed tables for jets of a given dimension and maximum order."""

    def __init__(self, dim: int, order: int):
        if dim < 1 or order < 0:
            raise ValueError("jet space needs dim >= 1 and order >= 0")
        if (order + 1) ** dim >= 2**63:
            raise ValueError("jet space too large for int64 multi-index codes")
        self.dim = dim
        self.order = order
        self.mindex = _graded_multi_indices(dim, order)
        self.index_of = {m: i for i, m in enumerate(self.mindex)}
        midx = np.array(self.mindex, dtype=np.int64)
        self.degrees = midx.sum(axis=1)
        # ncoef_at[k]: number of coefficients of an order-k jet (prefix length)
        self.ncoef_at = [int(np.sum(self.degrees <= k)) for k in range(order + 1)]
        self.ncoef = self.ncoef_at[order]
        # factorial(m) = prod_i m_i!, used when reading off partials
        self.fact = np.array([math.prod(math.factorial(mi) for mi in m) for m in self.mindex], dtype=float)
        # mixed-radix codes add like multi-indices while no component exceeds the order
        self._radix = (order + 1) ** np.arange(dim, dtype=np.int64)
        self._code = midx @ self._radix
        self._code_rank = np.argsort(self._code)
        self._mult_tables: dict[int, tuple[np.ndarray, np.ndarray, _sp.csr_matrix]] = {}
        self._deriv_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _index_of_codes(self, codes: np.ndarray) -> np.ndarray:
        rank = self._code_rank
        return rank[np.searchsorted(self._code[rank], codes)]

    def mult_table(self, out_order: int):
        """Gather/scatter tables for the truncated product at a given order.

        Pairs (I, J) run i-major, j-minor; S scatters each to its product slot.
        """
        tab = self._mult_tables.get(out_order)
        if tab is None:
            nc = self.ncoef_at[out_order]
            deg = self.degrees[:nc]
            I, J = np.nonzero(deg[:, None] + deg[None, :] <= out_order)
            K = self._index_of_codes(self._code[I] + self._code[J])
            S = _sp.csr_matrix((np.ones(len(K)), (K, np.arange(len(K)))), shape=(nc, len(K)))
            tab = (I, J, S)
            self._mult_tables[out_order] = tab
        return tab

    def deriv_table(self, var: int):
        """Index/multiplier tables mapping a jet to its derivative in one variable.

        The destination enumeration covers all multi-indices of degree
        <= order-1 (a prefix), so the same table serves every order by
        slicing: d/dx_var of an order-k jet keeps the first ncoef_at[k-1]
        entries.
        """
        tab = self._deriv_tables.get(var)
        if tab is None:
            nc_out = self.ncoef_at[self.order - 1] if self.order >= 1 else 0
            src = self._index_of_codes(self._code[:nc_out] + self._radix[var])
            mult = np.array([m[var] + 1 for m in self.mindex[:nc_out]], dtype=float)
            tab = (src, mult)
            self._deriv_tables[var] = tab
        return tab


@lru_cache(maxsize=None)
def jetspace(dim: int, order: int) -> JetSpace:
    return JetSpace(dim, order)


def _as_batch(value, width):
    arr = np.asarray(value, dtype=float)
    if width is None:
        return arr
    return np.broadcast_to(arr, width).copy() if arr.shape != tuple(width) else arr


@dataclass(eq=False)
class Jet:
    """Truncated Taylor expansion; ``coeffs[k]`` pairs with ``space.mindex[k]``.

    ``coeffs`` has shape ``(ncoef,)`` or ``(ncoef, batch)``.
    """

    space: JetSpace
    order: int
    coeffs: np.ndarray

    __array_ufunc__ = None  # keep numpy from claiming mixed expressions
    __array_priority__ = 1000.0

    # -- helpers ---------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[1:]

    def _coerce(self, other) -> "Jet | None":
        """Return ``other`` as a Jet in this space, or None if not possible."""
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces cannot be combined")
            return other
        return None

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.space, order, self.coeffs[: self.space.ncoef_at[order]])

    def copy(self) -> "Jet":
        return Jet(self.space, self.order, self.coeffs.copy())

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            c = self.coeffs.copy()
            c[0] = c[0] + np.asarray(other, dtype=float)
            return Jet(self.space, self.order, c)
        order = min(self.order, o.order)
        nc = self.space.ncoef_at[order]
        return Jet(self.space, order, self.coeffs[:nc] + o.coeffs[:nc])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.space, self.order, self.coeffs * np.asarray(other, dtype=float))
        order = min(self.order, o.order)
        I, J, S = self.space.mult_table(order)
        # Skip index pairs hitting all-zero coefficient rows: early pipeline
        # operands (lifted coordinates, constants) have only a couple of
        # nonzero rows, and the gather temporaries dominate large batches.
        nza = np.any(self.coeffs != 0.0, axis=tuple(range(1, self.coeffs.ndim)))
        nzb = np.any(o.coeffs != 0.0, axis=tuple(range(1, o.coeffs.ndim)))
        keep = nza[I] & nzb[J]
        if not np.any(keep):
            nc = self.space.ncoef_at[order]
            batch = np.broadcast_shapes(self.batch_shape, o.batch_shape)
            return Jet(self.space, order, np.zeros((nc,) + batch))
        if not np.all(keep):
            I, J, S = I[keep], J[keep], S[:, keep]
        prod = self.coeffs[I] * o.coeffs[J]
        if prod.ndim > 2:  # sparse matmul is 2-D only; flatten batch axes
            out = S @ prod.reshape(prod.shape[0], -1)
            return Jet(self.space, order, out.reshape((out.shape[0],) + prod.shape[1:]))
        return Jet(self.space, order, S @ prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self * (1.0 / np.asarray(other, dtype=float))
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            if p < 0:
                return _reciprocal(self.__pow__(-p))
            out = constant(self.space, 1.0, self.order, like=self)
            base = self
            k = int(p)
            while k:
                if k & 1:
                    out = out * base
                base = base * base if k > 1 else base
                k >>= 1
            return out
        return powr(self, float(p))


# -- construction ---------------------------------------------------------


def constant(space: JetSpace, value, order: int | None = None, like: Jet | None = None) -> Jet:
    order = space.order if order is None else order
    val = np.asarray(value, dtype=float)
    shape = (space.ncoef_at[order],) + (like.batch_shape if like is not None else val.shape)
    c = np.zeros(shape)
    c[0] = val
    return Jet(space, order, c)


def lift(space: JetSpace, values, active, order: int | None = None) -> list[Jet]:
    """Lift a coordinate tuple into jets.

    ``values`` is a sequence of scalars or batch arrays.  ``active`` lists,
    for each of the space's ``dim`` variables, which entry of ``values``
    that variable differentiates; those entries get a unit first-order
    seed in their own slot.  Entries not named in ``active`` become
    constant jets.
    """
    if len(active) != space.dim:
        raise ValueError("need exactly one value index per jet variable")
    order = space.order if order is None else order
    vals = [np.asarray(v, dtype=float) for v in values]
    batch = np.broadcast_shapes(*[v.shape for v in vals]) if vals else ()
    out = []
    for pos, v in enumerate(vals):
        c = np.zeros((space.ncoef_at[order],) + batch)
        c[0] = v
        if pos in active and order >= 1:
            var = active.index(pos)
            seed = tuple(1 if q == var else 0 for q in range(space.dim))
            c[space.index_of[seed]] = 1.0
        out.append(Jet(space, order, c))
    return out


# -- derivative extraction -------------------------------------------------


def partial(jet: Jet, midx) -> np.ndarray:
    """Mixed partial derivative keyed by multi-index (coefficient times factorial)."""
    midx = tuple(int(k) for k in midx)
    if len(midx) != jet.space.dim:
        raise ValueError("multi-index length must equal jet dimension")
    if sum(midx) > jet.order:
        raise OrderExceededError(f"partial {midx} exceeds truncation order {jet.order}")
    k = jet.space.index_of[midx]
    return jet.coeffs[k] * jet.space.fact[k]


def gradient(jet: Jet) -> np.ndarray:
    """All first partials, stacked along a leading axis."""
    idx = [jet.space.index_of[tuple(1 if q == v else 0 for q in range(jet.space.dim))]
           for v in range(jet.space.dim)]
    return jet.coeffs[idx]


def jet_derivative(jet: Jet, var: int) -> Jet:
    """d(jet)/d(variable) as a jet one order lower."""
    if jet.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    src, mult = jet.space.deriv_table(var)
    nc_out = jet.space.ncoef_at[jet.order - 1]
    c = jet.coeffs[src[:nc_out]] * (mult[:nc_out].reshape((-1,) + (1,) * len(jet.batch_shape)))
    return Jet(jet.space, jet.order - 1, c)


# -- composition and elementary functions ----------------------------------


def _compose(jet: Jet, taylor: np.ndarray) -> Jet:
    """Evaluate sum_k taylor[k] * (jet - jet.value)^k by Horner's rule.

    ``taylor[k]`` is f^(k)(a0)/k! evaluated at the constant term; shapes
    broadcast over any batch axis.
    """
    u = jet.copy()
    u.coeffs[0] = np.zeros_like(u.coeffs[0])
    out = constant(jet.space, taylor[jet.order], jet.order, like=jet)
    for k in range(jet.order - 1, -1, -1):
        out = out * u
        out.coeffs[0] = out.coeffs[0] + taylor[k]
    return out


def _reciprocal(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    if np.any(np.abs(a0) < DIV_TOL):
        raise JetDomainError("division by jet with near-zero constant term")
    K = jet.order
    taylor = np.stack([(-1.0) ** k / a0 ** (k + 1) for k in range(K + 1)])
    return _compose(jet, taylor)


def _dispatch(fn_jet, fn_np):
    def wrapped(x):
        if isinstance(x, Jet):
            return fn_jet(x)
        return fn_np(np.asarray(x, dtype=float))

    return wrapped


def _sqrt_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    if np.any(a0 <= 0.0):
        raise JetDomainError("sqrt of jet with non-positive constant term")
    K = jet.order
    coef = np.stack([math.comb(2 * k, k) * (-1.0) ** (k + 1) / (4.0 ** k * (2 * k - 1))
                     for k in range(K + 1)])  # binom(1/2, k)
    taylor = coef.reshape((-1,) + (1,) * a0.ndim) * a0 ** (0.5 - np.arange(K + 1).reshape((-1,) + (1,) * a0.ndim))
    return _compose(jet, taylor)


def _exp_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    e = np.exp(a0)
    taylor = np.stack([e / math.factorial(k) for k in range(jet.order + 1)])
    return _compose(jet, taylor)


def _log_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    if np.any(a0 <= 0.0):
        raise JetDomainError("log of jet with non-positive constant term")
    taylor = [np.log(a0)]
    for k in range(1, jet.order + 1):
        taylor.append((-1.0) ** (k + 1) / (k * a0 ** k))
    return _compose(jet, np.stack(taylor))


def _trig_taylor(a0, order, pair):
    f, g = pair  # f = value function, g = derivative partner with sign cycle
    vals = []
    for k in range(order + 1):
        cyc = k % 4
        if cyc == 0:
            d = f(a0)
        elif cyc == 1:
            d = g(a0)
        elif cyc == 2:
            d = -f(a0)
        else:
            d = -g(a0)
        vals.append(d / math.factorial(k))
    return np.stack(vals)


def _sin_jet(jet: Jet) -> Jet:
    return _compose(jet, _trig_taylor(np.asarray(jet.value), jet.order, (np.sin, np.cos)))


def _cos_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    vals = []
    for k in range(jet.order + 1):
        cyc = k % 4
        d = (np.cos(a0), -np.sin(a0), -np.cos(a0), np.sin(a0))[cyc]
        vals.append(d / math.factorial(k))
    return _compose(jet, np.stack(vals))


def _sinh_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    vals = [(np.sinh(a0) if k % 2 == 0 else np.cosh(a0)) / math.factorial(k)
            for k in range(jet.order + 1)]
    return _compose(jet, np.stack(vals))


def _cosh_jet(jet: Jet) -> Jet:
    a0 = np.asarray(jet.value)
    vals = [(np.cosh(a0) if k % 2 == 0 else np.sinh(a0)) / math.factorial(k)
            for k in range(jet.order + 1)]
    return _compose(jet, np.stack(vals))


sqrt = _dispatch(_sqrt_jet, np.sqrt)
exp = _dispatch(_exp_jet, np.exp)
log = _dispatch(_log_jet, np.log)
sin = _dispatch(_sin_jet, np.sin)
cos = _dispatch(_cos_jet, np.cos)
sinh = _dispatch(_sinh_jet, np.sinh)
cosh = _dispatch(_cosh_jet, np.cosh)


def powr(x, p: float):
    """Real power with positive base (jets or arrays)."""
    if not isinstance(x, Jet):
        return np.asarray(x, dtype=float) ** p
    a0 = np.asarray(x.value)
    if np.any(a0 <= 0.0):
        raise JetDomainError("real power of jet with non-positive constant term")
    K = x.order
    coef = []
    c = 1.0
    for k in range(K + 1):
        coef.append(c / math.factorial(k))
        c = c * (p - k)
    coef = np.array(coef)
    taylor = coef.reshape((-1,) + (1,) * a0.ndim) * a0 ** (p - np.arange(K + 1).reshape((-1,) + (1,) * a0.ndim))
    return _compose(x, taylor)
