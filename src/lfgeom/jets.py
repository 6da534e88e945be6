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

`record` runs a function once on one batch row while every primitive
also appends an op to a straight-line `Program` (a Taylor tape: Griewank &
Walther, *Evaluating Derivatives*, SIAM 2008), with product tables pruned
by which rows can be nonzero for any input.  A backward liveness pass then
keeps only the ops and rows that an output or a check reads and that an
input can change; each slot holds just those rows.  `Program.run` replays it, checks included,
bit-identical to evaluating the function on jets.

A batch at most `LEVEL_WIDTH` columns wide, where numpy dispatch costs
more than the arithmetic, replays level by level: each op's level is one
more than its deepest input's, all adds, all multiplies by constants,
all negations and all products of one level run as one numpy call each
over one stacked ``(rows, width)`` buffer, whose row ranges are reused once
their last reader has run, and truncations and constants are aliases that
do no work.  Wider batches replay op by op: `LEVEL_WIDTH` = 128 sits at the
measured crossover (see `Program`).  Either way the earliest recorded check
that fails is the one that raises.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
    "sin",
    "cos",
    "cosh",
    "apply",
    "record",
]

DIV_TOL = 1e-12  # constant-term magnitude below which division is refused
LEVEL_WIDTH = 128  # widest batch a `Program` replays by level (see `Program`)


class JetDomainError(ArithmeticError):
    """Raised when a jet operation leaves the domain of the function: a
    numerical abort, like the other ``ArithmeticError``s."""


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
        self._mult_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._deriv_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _index_of_codes(self, codes: np.ndarray) -> np.ndarray:
        rank = self._code_rank
        return rank[np.searchsorted(self._code[rank], codes)]

    def mult_table(self, out_order: int):
        """Gather/scatter tables for the truncated product at a given order.

        Pairs (I, J) run i-major, j-minor; pair p adds into coefficient K[p].
        Indices are graded by degree, so the partners j of row i are the
        prefix ``range(ncoef_at[out_order - deg i])``: the tables are built
        from those prefix lengths, in memory proportional to the pairs.
        """
        tab = self._mult_tables.get(out_order)
        if tab is None:
            nc = self.ncoef_at[out_order]
            counts = np.array(self.ncoef_at)[out_order - self.degrees[:nc]]
            I = np.repeat(np.arange(nc), counts)
            J = np.arange(len(I)) - np.repeat(np.cumsum(counts) - counts, counts)
            tab = (I, J, self._index_of_codes(self._code[I] + self._code[J]))
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


_recorder: "_Recorder | None" = None  # active while `record` runs a function


@dataclass(eq=False)
class Jet:
    """Truncated Taylor expansion; ``coeffs[k]`` pairs with ``space.mindex[k]``.

    ``coeffs`` has shape ``(ncoef,)`` or ``(ncoef, batch)``.
    """

    space: JetSpace
    order: int
    coeffs: np.ndarray
    slot: int | None = field(default=None, repr=False)  # while recorded

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
        nc = self.space.ncoef_at[order]
        return _apply("trunc", lambda a: a[:nc], (self,), self.space, order, lambda m: m[:nc])

    def copy(self) -> "Jet":
        return Jet(self.space, self.order, self.coeffs.copy())

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            row0 = lambda m, *_: m | _rows(len(m), 0)
            if isinstance(other, _Value):
                return _apply("shift", _add_constant, (self, other), self.space, self.order, row0)
            k = _scalar(other)
            return _apply("shift", lambda a: _add_constant(a, k), (self,), self.space, self.order,
                          row0, k)
        order = min(self.order, o.order)
        nc = self.space.ncoef_at[order]
        return _apply("add", lambda a, b: a[:nc] + b[:nc], (self, o), self.space, order,
                      lambda ma, mb: ma[:nc] | mb[:nc])

    __radd__ = __add__

    def __neg__(self):
        return _apply("neg", np.negative, (self,), self.space, self.order, lambda m: m)

    def __sub__(self, other):
        return self + (-other if isinstance(other, (Jet, _Value)) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, _Value):
                return _apply("scale", np.multiply, (self, other), self.space, self.order,
                              lambda m, _: m)
            k = _scalar(other)
            return _apply("scale", lambda a: a * k, (self,), self.space, self.order,
                          lambda m: m, k)
        order = min(self.order, o.order)
        if _recorder is not None:
            return _recorder.product(self, o, order)
        I, J, K = self.space.mult_table(order)
        # Skip index pairs hitting all-zero coefficient rows: early pipeline
        # operands (lifted coordinates, constants) have only a couple of
        # nonzero rows, and the gather temporaries dominate large batches.
        nza = np.any(self.coeffs != 0.0, axis=tuple(range(1, self.coeffs.ndim)))
        nzb = np.any(o.coeffs != 0.0, axis=tuple(range(1, o.coeffs.ndim)))
        keep = nza[I] & nzb[J]
        if not np.all(keep):
            I, J, K = I[keep], J[keep], K[keep]
        return Jet(self.space, order,
                   _pair_sum(I, J, K, self.space.ncoef_at[order])(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self * (1.0 / (other if isinstance(other, _Value)
                                  else np.asarray(other, dtype=float)))
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other


def _apply(kind, fn, args, space, order, rule, const=None) -> Jet:
    """The jet ``fn(*operand arrays)``; while recording, one op of ``kind``
    (``rule`` maps row masks; ``const`` is the op's bound constant)."""
    out = Jet(space, order, fn(*[a.coeffs if isinstance(a, Jet) else a.val for a in args]))
    if _recorder is not None:
        _recorder.emit(kind, args, out, rule(*[_recorder.masks[_recorder.slot_of(a)] for a in args]),
                       const)
    return out


def _add_constant(a, k):
    row0 = a[0] + k
    c = np.empty(a.shape[:1] + row0.shape)
    c[...] = a  # a recorded constant's one column widens to k's batch
    c[0] = row0
    return c


def _rows(n, *rows):
    mask = np.zeros(n, dtype=bool)
    mask[list(rows)] = True
    return mask


def _scalar(value):
    if _recorder is not None and np.ndim(value):
        raise ValueError("an array operand of a recorded op must come from its inputs")
    return np.asarray(value, dtype=float)


# -- construction ---------------------------------------------------------


def constant(space: JetSpace, value, order: int | None = None, like: Jet | None = None) -> Jet:
    order = space.order if order is None else order
    val = np.asarray(value, dtype=float)
    nc = space.ncoef_at[order]

    def fill(*ref):
        c = np.zeros((nc,) + (ref[0].shape[1:] if ref else val.shape))
        c[0] = val
        return c

    return _apply("const", fill, () if like is None else (like,), space, order,
                  lambda *_: _rows(nc, 0), val)


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
    src = src[:nc_out]
    mult = mult[:nc_out].reshape((-1,) + (1,) * len(jet.batch_shape))
    return _apply("deriv", lambda a: a.take(src, 0) * mult, (jet,), jet.space, jet.order - 1,
                  lambda m: m[src], (src, mult.ravel()))


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


def _elementary(jet: Jet, check, taylor) -> Jet:
    """f(jet) from ``taylor(a0, order)``, the f^(k)(a0)/k!; ``check(a0)``
    raises JetDomainError outside the domain of f."""
    if _recorder is not None:
        return _recorder.elementary(jet, check, taylor)
    a0 = np.asarray(jet.value)
    if check is not None:
        check(a0)
    return _compose(jet, taylor(a0, jet.order))


def _domain(outside, message):
    def check(a0):
        if outside(a0).any():
            raise JetDomainError(message)
    return check


_nonzero = _domain(lambda a0: np.abs(a0) < DIV_TOL, "division by jet with near-zero constant term")


def _positive(what):
    return _domain(lambda a0: a0 <= 0.0, f"{what} of jet with non-positive constant term")


def _reciprocal_taylor(a0, K):
    return np.array([(-1.0) ** k / a0 ** (k + 1) for k in range(K + 1)])


def _reciprocal(jet: Jet) -> Jet:
    return _elementary(jet, _nonzero, _reciprocal_taylor)


def _sqrt_taylor(a0, K):
    shape = (-1,) + (1,) * a0.ndim
    coef = np.array([math.comb(2 * k, k) * (-1.0) ** (k + 1) / (4.0 ** k * (2 * k - 1))
                     for k in range(K + 1)])  # binom(1/2, k)
    return coef.reshape(shape) * a0 ** (0.5 - np.arange(K + 1).reshape(shape))


def _exp_taylor(a0, K):
    e = np.exp(a0)
    return np.array([e / math.factorial(k) for k in range(K + 1)])


def _sin_taylor(a0, K):
    s, c = np.sin(a0), np.cos(a0)
    return np.array([(s, c, -s, -c)[k % 4] / math.factorial(k) for k in range(K + 1)])


def _cos_taylor(a0, K):
    s, c = np.sin(a0), np.cos(a0)
    return np.array([(c, -s, -c, s)[k % 4] / math.factorial(k) for k in range(K + 1)])


def _cosh_taylor(a0, K):
    return np.array([(np.cosh(a0), np.sinh(a0))[k % 2] / math.factorial(k) for k in range(K + 1)])


def _dispatch(check, taylor, fn_np):
    def wrapped(x):
        if isinstance(x, Jet):
            return _elementary(x, check, taylor)
        return fn_np(x if isinstance(x, _Value) else np.asarray(x, dtype=float))

    return wrapped


sqrt = _dispatch(_positive("sqrt"), _sqrt_taylor, np.sqrt)
exp = _dispatch(None, _exp_taylor, np.exp)
sin = _dispatch(None, _sin_taylor, np.sin)
cos = _dispatch(None, _cos_taylor, np.cos)
cosh = _dispatch(None, _cosh_taylor, np.cosh)


# -- record and replay ------------------------------------------------------


def apply(fn, *args, check=False):
    """``fn`` of the constant terms of args (a jet's value, others as they
    are); while recording, one op whose result is a runtime value.  A
    ``check`` (``fn`` raises on failure) runs on every replay, not on the trace."""
    if _recorder is not None and any(isinstance(a, (Jet, _Value)) for a in args):
        return _recorder.value_op(fn, args, check)
    return fn(*[np.asarray(a.value if isinstance(a, Jet) else a) for a in args])


class _Value(np.lib.mixins.NDArrayOperatorsMixin):
    """A runtime array in a recorded function (an input that is not lifted,
    or a value computed from one); each ufunc applied to it is one op."""

    def __init__(self, val, slot):
        self.val, self.slot = val, slot

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs or any(isinstance(a, Jet) for a in args):
            return NotImplemented
        fn = operator.pow if ufunc is np.power else ufunc  # ndarray's ** has fast paths
        return _recorder.value_op(fn, args)


def _pair_sum(I, J, K, n):
    """The product kernel ``(a, b[, out]) -> n rows``: row k sums a[I[q]] * b[J[q]]
    over the pairs q with K[q] = k, from +0 in the order of q, as a CSR
    matvec adds them, so the two agree bit for bit (signed zeros and inf
    included, nan where it has nan); a row with no pair is +0.  The pairs are regrouped column by
    column (the c-th pair of every row that has one, rows by descending
    count), so each column is one slice add."""
    count = np.bincount(K, minlength=n)
    order = np.argsort(-count, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    by_row = np.argsort(K, kind="stable")
    col = np.empty(len(K), dtype=np.int64)
    col[by_row] = np.arange(len(K)) - (np.cumsum(count) - count)[K[by_row]]
    perm = np.argsort(col * n + rank[K])
    I, J = I[perm], J[perm]
    width = np.bincount(col)
    n0 = int(width[0]) if len(width) else 0
    cols = [(int(e - w), int(e)) for w, e in zip(width[1:], np.cumsum(width)[1:])]
    inv = None if n0 == n and np.array_equal(order, np.arange(n)) else rank

    def run(a, b, out=None):
        p = np.multiply(a.take(I, 0), b.take(J, 0))
        if inv is None:
            acc = np.add(p[:n0], 0.0, out=out)
        else:
            acc = np.zeros((n,) + p.shape[1:])
            np.add(p[:n0], 0.0, out=acc[:n0])
        for lo, hi in cols:
            acc[:hi - lo] += p[lo:hi]
        return acc if inv is None else np.take(acc, inv, 0, out=out, mode="clip")

    return run


def _trace_product(a, b, I, J, K, nc):
    """`_pair_sum` for a trace column: ``np.add.at`` adds the pairs in
    order too, without the regrouping that pays off on a batch."""
    out = np.zeros((nc,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    np.add.at(out, K, a[I] * b[J])
    return out


class _Recorder:
    """The ops (kind, output slot, input slots, bound data) of one recorded
    function.  Each jet slot has a row mask, the rows that can be nonzero
    for any input (lifted inputs have rows {0, seed}, and each op maps masks
    to masks), its trace column, and ``var``, the rows whose values depend
    on an input: a lifted input's row 0, and what ops make of such rows.
    Every other row holds its trace value for any input.  Products leave +0
    outside their mask and the other ops keep the signs of zeros fixed, so
    zero rows are in ``var`` only where a runtime value scales them."""

    def __init__(self):
        self.ops, self.inputs, self.elementaries = [], [], {}
        self.masks, self.traces, self.var = [None], [None], [None]  # slot 0 takes checks

    def new_slot(self, mask=None, trace=None, var=None) -> int:
        self.masks.append(mask)
        self.traces.append(trace)
        self.var.append(var)
        return len(self.masks) - 1

    def slot_of(self, x) -> int:
        if x.slot is None:
            raise ValueError("a jet from outside the recorded function reached a recorded op")
        return x.slot

    def emit(self, kind, args, out, mask, data=None):
        ins = tuple(self.slot_of(a) for a in args)
        var = [self.var[i] for i in ins]  # None for a runtime value
        nc = len(mask)
        if kind == "prod":
            I, J, K = data
            var = np.bincount(K[var[0][I] | var[1][J]], minlength=nc) > 0
        elif kind == "elem":  # its Taylor coefficients come from the constant term
            var = mask & var[0].any()
        elif kind == "deriv":
            var = var[0][data[0]]
        elif kind == "scale" and var[-1] is None:  # zeros take the value's signs
            var = np.ones(nc, dtype=bool)
        elif kind == "const":
            var = np.zeros(nc, dtype=bool)
        else:  # add, neg, shift, scale by a constant, trunc: row r from row r
            var = np.logical_or.reduce([v[:nc] if v is not None else _rows(nc, 0) for v in var])
        out.slot = self.new_slot(mask, out.coeffs.reshape(nc, -1)[:, :1], var)
        self.ops.append((kind, out.slot, ins, data))
        return out

    def product(self, a: Jet, b: Jet, order: int) -> Jet:
        I, J, K = a.space.mult_table(order)
        keep = self.masks[self.slot_of(a)][I] & self.masks[self.slot_of(b)][J]
        I, J, K = I[keep], J[keep], K[keep]
        nc = a.space.ncoef_at[order]
        out = Jet(a.space, order, _trace_product(a.coeffs, b.coeffs, I, J, K, nc))
        return self.emit("prod", (a, b), out, np.bincount(K, minlength=nc) > 0, (I, J, K))

    def elementary(self, jet: Jet, check, taylor) -> Jet:
        """`_compose` with step tables resolved now, once per (jet, function):
        u = jet - a0 has the rows of ``jet`` but row 0."""
        key = (self.slot_of(jet), taylor, check)
        if key in self.elementaries:
            return self.elementaries[key]
        K, nc = jet.order, jet.space.ncoef_at[jet.order]
        I, J, Kk = jet.space.mult_table(K)
        mask_u, mask, steps = self.masks[jet.slot] & ~_rows(nc, 0), _rows(nc, 0), []
        for _ in range(K):
            keep = mask[I] & mask_u[J]
            steps.append((I[keep], J[keep], Kk[keep]))
            mask = np.bincount(Kk[keep], minlength=nc) > 0
            mask[0] = True
        a = jet.coeffs
        coef = taylor(a[0], K)
        out = np.zeros((nc,) + a.shape[1:])
        out[0] = coef[K]
        for k, step in zip(range(K - 1, -1, -1), steps):
            out = _trace_product(out, a, *step, nc)  # a has the rows of u but row 0
            out[0] = out[0] + coef[k]
        out = self.emit("elem", (jet,), Jet(jet.space, K, out), mask, (check, taylor, steps))
        self.elementaries[key] = out
        return out

    def value_op(self, fn, args, check=False):
        """An op computing ``fn`` of a jet's constant term or a `_Value`'s
        array; any other argument is bound now."""
        kinds = [1 if isinstance(a, Jet) else 0 if isinstance(a, _Value) else 2 for a in args]
        if any(kind == 2 and np.ndim(a) for a, kind in zip(args, kinds)):
            raise ValueError("an array operand of a recorded op must come from its inputs")
        ins = tuple(self.slot_of(a) for a, kind in zip(args, kinds) if kind < 2)

        def replay(*xs):
            it = iter(xs)
            return fn(*[a if kind == 2 else next(it)[0] if kind else next(it)
                        for a, kind in zip(args, kinds)])

        if check:
            return self.ops.append(("check", 0, ins, replay))
        out = _Value(replay(*[a.coeffs if k else a.val for a, k in zip(args, kinds) if k < 2]),
                     self.new_slot())
        self.ops.append(("value", out.slot, ins, replay))
        return out


def _liveness(rec: _Recorder, outputs):
    """Backward pass: the rows each slot must hold (True for a read value),
    the ops to replay, and the rows each Horner stage of a replayed
    elementary keeps.  An op runs if it computes a held row or runs a check.
    A row an op reads by value is held only if an input changes it (else it
    is read from the trace); a product or Horner operand holds every row its
    pairs read."""
    masks, var = rec.masks, rec.var
    need = [None] * len(masks)

    def want(slot, rows, operand=False):
        if masks[slot] is None:
            need[slot] = True
            return
        if not operand:
            rows = rows & var[slot]
        need[slot] = rows if need[slot] is None else need[slot] | rows

    def rows_of(slot, idx):  # the rows idx of a jet slot, as a mask
        rows = np.zeros(len(masks[slot]), dtype=bool)
        rows[idx] = True
        return rows

    for o in outputs:
        want(o, None if masks[o] is None else rows_of(o, slice(None)))
    live, stages = [], {}
    for n in range(len(rec.ops) - 1, -1, -1):
        kind, out, ins, data = rec.ops[n]
        rows = need[out]
        if rows is None or (rows is not True and not rows.any()):
            if kind != "check" and not (kind == "elem" and data[0] is not None):
                continue
            rows = None  # only the check runs
        live.append(n)
        if kind in ("add", "neg", "shift", "scale", "trunc"):  # row r reads row r
            for i in ins:
                want(i, None if masks[i] is None else rows_of(i, np.flatnonzero(rows)))
        elif kind == "deriv":
            want(ins[0], rows_of(ins[0], data[0][:len(rows)][rows]))
        elif kind == "prod":
            sel = rows[data[2]]
            want(ins[0], rows_of(ins[0], data[0][sel]), operand=True)
            want(ins[1], rows_of(ins[1], data[1][sel]), operand=True)
        elif kind == "elem":
            want(ins[0], rows_of(ins[0], 0))  # the check and the Taylor coefficients
            u = rows_of(ins[0], [])
            if rows is not None:
                stage, per_step = rows.copy(), []
                for I, J, K in reversed(data[2]):
                    stage[0] = True  # each Horner stage adds its coefficient to row 0
                    per_step.append(stage)
                    sel = stage[K]
                    u[J[sel]] = True
                    stage = np.zeros_like(stage)
                    stage[I[sel]] = True
                stages[n] = per_step[::-1]
            want(ins[0], u, operand=True)
        elif kind in ("value", "check"):  # reads row 0 of jets
            for i in ins:
                want(i, None if masks[i] is None else rows_of(i, 0))
    return need, live[::-1], stages


def _identity(x):
    return x


def _gather(held, trace, rows):
    """``x -> `` the ``rows`` of a slot whose array ``x`` holds its rows
    ``held``; a row not held has its trace value."""
    if len(rows) == len(held) and np.array_equal(rows, held):
        return _identity
    pos = np.searchsorted(held, rows)
    hit = pos < len(held)
    hit[hit] = held[pos[hit]] == rows[hit]
    if hit.all():
        lo = int(pos[0]) if len(pos) else 0
        if np.array_equal(pos, np.arange(lo, lo + len(pos))):
            return lambda x: x[lo:lo + len(pos)]
        return lambda x: x.take(pos, 0)
    known = trace[rows[~hit]]
    if not hit.any():
        return lambda x: known
    at, src, miss = np.flatnonzero(hit), pos[hit], np.flatnonzero(~hit)

    def fill(x):
        out = np.empty((len(rows),) + x.shape[1:])
        out[at] = x.take(src, 0)
        out[miss] = known
        return out

    return fill


class _RowPool:
    """First-fit allocation of row ranges in one buffer; freed ranges merge."""

    def __init__(self):
        self.free, self.top = [], 0  # sorted disjoint (lo, hi) ranges below top

    def take(self, n):
        for k, (lo, hi) in enumerate(self.free):
            if hi - lo >= n:
                self.free[k:k + 1] = [(lo + n, hi)] if hi - lo > n else []
                return lo
        lo = self.free.pop()[0] if self.free and self.free[-1][1] == self.top else self.top
        self.top = lo + n
        return lo

    def give(self, lo, hi):
        k = bisect.bisect(self.free, (lo, hi))
        if k < len(self.free) and self.free[k][0] == hi:
            hi = self.free.pop(k)[1]
        if k and self.free[k - 1][1] == lo:
            k -= 1
            lo = self.free.pop(k)[0]
        self.free.insert(k, (lo, hi))


# step classes, in the order they run within a level: the ops of one level
# and one of the first four classes run as one step, a single op as its own
# step, and an alias does no work
_ADD, _MUL, _NEG, _PROD, _SINGLE, _ALIAS = range(6)


def _step_class(kind, rows, ins):
    """The step class of a live op with held rows ``rows``."""
    if kind in ("trunc", "const") or (kind == "shift" and rows[0] != 0):
        return _ALIAS
    if kind == "add" or (kind == "shift" and len(ins) == 1):  # a constant shift: row 0
        return _ADD
    if kind == "deriv" or (kind == "scale" and len(ins) == 1):
        return _MUL
    if kind in ("neg", "prod"):
        return _NEG if kind == "neg" else _PROD
    return _SINGLE  # elementaries, value ops, checks, a scale or shift by a runtime value


def _shaped(x, batch, width):
    """An output's ``(rows, width)`` or ``(width,)`` array with the batch shape."""
    if x.shape[-1] != width:  # computed from no input: widen it
        x = np.broadcast_to(x, x.shape[:-1] + (width,))
    return x.reshape(x.shape[:-1] + batch)


class _Levels:
    """A `Program`'s live ops as a level schedule over one stacked buffer
    (level scheduling: Anderson & Saad, Int. J. High Speed Computing 1(1),
    1989).

    An op's level is one more than its deepest input's; an alias (a
    truncation, a constant, the rows of a shift but row 0) adds none.  A
    row range of the buffer is reused once the last step reading it has
    run, and the trace values that ops read (constants, a seed's 1, rows
    no input changes) sit in a block at its top.  A step reads its
    operands out of the buffer before it writes, and each product row
    still adds its pairs from +0 in recorded order, so every row has the
    bits of the op-by-op replay."""

    def __init__(self, rec, live, need, held, fns, inputs, outputs):
        ops, nslot = rec.ops, len(rec.masks)
        level, seq = [0] * nslot, []
        for n, fn in zip(live, fns):
            kind, out, ins, _ = ops[n]
            rank = _step_class(kind, held[out], ins)
            level[out] = lv = max([level[i] for i in ins], default=0) + (rank != _ALIAS)
            seq.append((lv, rank, n, fn))
        seq.sort(key=lambda item: item[:3])
        plan = []  # (rank, members): one per (level, class) group or single op
        for lv, rank, n, fn in seq:
            if rank < _SINGLE and plan and plan[-1][2] == (lv, rank):
                plan[-1][1].append((n, fn))
            else:
                plan.append((rank, [(n, fn)], (lv, rank)))
        # a computed slot owns a block of rows; an alias keeps its inputs' alive
        step, made, last, blocks = -1, {}, [-1] * nslot, [()] * nslot
        for slot, _, _ in inputs:
            blocks[slot] = (slot,)
        for rank, members, _ in plan:
            step += rank != _ALIAS
            for n, _ in members:
                kind, out, ins, _ = ops[n]
                if rank == _ALIAS:
                    blocks[out] = tuple({b for i in ins for b in blocks[i]})
                    continue
                for i in ins:
                    last[i] = step
                if out and held[out] is not None:
                    made[out] = step
                    blocks[out] = (out,) + (blocks[ins[0]] if kind == "shift" else ())
        for o in outputs:
            last[o] = step + 1
        end = {}
        for slot, bs in enumerate(blocks):
            for b in bs:
                end[b] = max(end.get(b, made.get(b, -1)), last[slot])
        dying = {}
        for b, e in end.items():
            dying.setdefault(e, []).append(b)

        # Row r of jet slot s is the cell base[s] + r; the cells past them hold
        # the constants of shifts.  where[cell] is the buffer row holding the
        # cell, or -1 if none does: a read then takes its trace value from the
        # constant block.
        base = np.cumsum([0] + [0 if m is None else len(m) for m in rec.masks])
        where, extra = np.full(base[-1], -1), []
        pool, span, cells, values = _RowPool(), {}, [], {}

        def read(codes):  # a handle on the buffer rows of cells, resolved below
            cells.append(codes)
            return len(cells) - 1

        def runtime(slot):  # the index of a runtime value in a replay's list of them
            return values.setdefault(slot, len(values))

        def place(out, rows, at):
            where[base[out] + rows] = np.arange(at, at + len(rows))
            span[out] = (at, at + len(rows))

        self.feed = []  # (input position, buffer row of its row 0 or None, value index)
        for slot, pos, row0 in inputs:
            if row0 is None:
                self.feed.append((pos, None, runtime(slot)))
            elif row0 and row0[0]:  # its other rows are seeds, a trace 1
                place(slot, held[slot][:1], pool.take(1))
                self.feed.append((pos, span[slot][0], None))

        specs, step = [], -1
        for rank, members, _ in plan:
            if rank == _ALIAS:
                (n, _), = members
                kind, out, ins, _ = ops[n]
                if kind != "const":  # a const's rows have their trace values
                    where[base[out] + held[out]] = where[base[ins[0]] + held[out]]
                continue
            step += 1
            for b in dying.get(step, ()):  # the step reads all it reads before it writes
                if b in span:
                    pool.give(*span.pop(b))
            sizes = [0 if held[ops[n][1]] is None else 1 if ops[n][0] == "shift"
                     else len(held[ops[n][1]]) for n, _ in members]
            lo = at = pool.take(sum(sizes)) if sum(sizes) else 0
            cols = ([], [], [])
            for (n, fn), k in zip(members, sizes):
                kind, out, ins, data = ops[n]
                rows, a = held[out], base[ins[0]] if ins else 0
                if k:
                    place(out, rows[:k], at)
                if kind == "shift":  # row 0 is computed, the others alias
                    where[base[out] + rows[1:]] = where[a + rows[1:]]
                if kind == "add":
                    parts = a + rows, base[ins[1]] + rows
                elif kind == "neg":
                    parts = a + rows,
                elif kind == "deriv":
                    parts = a + data[0][rows], data[1][rows]
                elif kind == "prod":
                    I, J, K = data
                    sel = need[out][K]
                    parts = (a + I[sel], base[ins[1]] + J[sel],
                             at - lo + np.searchsorted(rows, K[sel]))
                elif rank == _ADD:  # row 0 of a shift by a constant
                    extra.append(data)
                    parts = a + rows[:1], base[-1:] + len(extra) - 1
                elif rank == _MUL:  # a scale by a constant
                    parts = a + rows, np.full(len(rows), data, dtype=float)
                elif kind in ("value", "check"):  # they read row 0 of a jet
                    parts = kind, fn, runtime(out) if kind == "value" else None, [
                        (None, runtime(i)) if held[i] is None else
                        (read(base[i:i + 1]) if len(held[i]) and held[i][0] == 0 else None, None)
                        for i in ins]
                elif kind == "elem":
                    parts = kind, fn, out, read(a + held[ins[0]])
                else:  # a scale or shift by a runtime value
                    parts = kind, None, runtime(ins[1]), read(a + rows[:k])
                for col, part in zip(cols, parts if rank < _SINGLE else ()):
                    col.append(part)
                at += k
            if rank < _SINGLE:  # the cell columns, then constants or product rows
                parts = [np.concatenate(col) for col in cols if col]
                parts = [read(c) if j < 1 + (rank in (_ADD, _PROD)) else c for j, c in enumerate(parts)]
            specs.append((rank, lo, at, parts))

        outs = [None if held[o] is None else read(base[o] + np.arange(base[o + 1] - base[o]))
                for o in outputs]
        top = pool.top
        known = np.concatenate([t for t in rec.traces if t is not None]
                               + [np.reshape(np.array(extra, dtype=float), (-1, 1))])[:, 0]
        codes = np.concatenate(cells + [np.zeros(0, dtype=np.int64)])
        got = np.concatenate((where, np.full(len(extra), -1)))[codes]
        miss = got < 0
        uniq, inv = np.unique(known[codes[miss]].view(np.int64), return_inverse=True)
        got[miss] = top + inv
        self.height, self.top, self.consts = top + len(uniq), top, uniq.view(float)[:, None]
        ends = np.cumsum([len(c) for c in cells])
        rows = [got[e - len(c):e] for c, e in zip(cells, ends)]
        self.steps = [self._step(rank, lo, hi, parts, rows) for rank, lo, hi, parts in specs]
        self.gather = np.concatenate([rows[h] for h in outs if h is not None] + [[]]).astype(np.int64)
        self.outs, at = [], 0  # per output: its rows of the gathered block, or a value's index
        for h, o in zip(outs, outputs):
            if h is None:
                self.outs.append(runtime(o))
            else:
                self.outs.append(slice(at, at + len(rows[h])))
                at += len(rows[h])
        self.nvalues = len(values)

    @staticmethod
    def _step(rank, lo, hi, parts, rows):
        """The function ``(buf, values) -> None`` running one step
        (``rows[handle]``: the buffer rows of a handle in ``parts``)."""
        if rank == _ADD:
            A, B = rows[parts[0]], rows[parts[1]]
            return lambda buf, _: np.add(buf.take(A, 0), buf.take(B, 0), out=buf[lo:hi])
        if rank == _MUL:
            A, C = rows[parts[0]], parts[1][:, None]
            return lambda buf, _: np.multiply(buf.take(A, 0), C, out=buf[lo:hi])
        if rank == _NEG:
            A = rows[parts[0]]
            return lambda buf, _: np.negative(buf.take(A, 0), out=buf[lo:hi])
        if rank == _PROD:
            kernel = _pair_sum(rows[parts[0]], rows[parts[1]], parts[2], hi - lo)
            return lambda buf, _: kernel(buf, buf, buf[lo:hi])
        kind, fn, out, arg = parts
        if kind in ("value", "check"):
            args = [(None if h is None else int(rows[h][0]), i) for h, i in arg]

            def call(buf, vals):
                return fn(*[vals[i] if i is not None else None if p is None else buf[p:p + 1]
                            for p, i in args])

            if kind == "check":
                return call

            def value(buf, vals):
                vals[out] = call(buf, vals)
            return value
        A = rows[arg]
        if kind == "elem":
            if lo == hi:  # only its domain check runs
                return lambda buf, _: fn(buf.take(A, 0))

            def elem(buf, _):
                buf[lo:hi] = fn(buf.take(A, 0))
            return elem
        if kind == "scale":
            return lambda buf, vals: np.multiply(buf.take(A, 0), vals[out], out=buf[lo:hi])
        return lambda buf, vals: np.add(buf.take(A, 0), vals[out], out=buf[lo:hi])

    def run(self, vals, batch, width):
        """The outputs at ``vals``, as `Program.run` gives them."""
        buf = np.empty((self.height, width))
        buf[self.top:] = self.consts
        values = [None] * self.nvalues
        for pos, row, k in self.feed:
            if row is None:
                values[k] = np.broadcast_to(vals[pos], batch).reshape(width)
            else:
                buf[row].reshape(batch)[...] = vals[pos]
        for step in self.steps:
            step(buf, values)
        got = buf.take(self.gather, 0)
        return [_shaped(got[o] if isinstance(o, slice) else values[o], batch, width)
                for o in self.outs]


class Program:
    """A recorded straight-line jet program; `run` replays it on any batch.

    `_liveness` (activity analysis over the tape: Griewank & Walther ch. 7;
    Hascoët & Pascual, ACM TOMS 39(3), 2013) decides what is replayed:
    every op that computes a held row, and every op that runs a check.
    Each jet slot holds only the rows it must, as an array of those rows,
    and products, derivatives, truncations and Horner steps are re-indexed
    to them; any other row has its trace value.  Outputs come back with
    their full row set.

    A batch at most `LEVEL_WIDTH` columns wide replays by level
    (`_Levels`): all adds, all multiplies by constants, all negations and
    all products of one DAG level run as one numpy step each, on one
    stacked buffer whose row ranges are reused, so numpy dispatch is paid
    per step, not per op; elementaries, value ops, checks and scalings by
    a runtime value still run one by one.  A wider batch replays op by op,
    in recorded order, each slot in its own array freed after its last
    reader: there the arithmetic dominates, and gathering every operand
    into a step only copies more.  The switch sits at the measured
    crossover (`scripts/replay_timing.py`, shared 2-core host): by level,
    `eval_connection` is 1.2-2.4x faster up to 128 columns, the
    `quartic_flrw` n=3 order-5 program already falls behind at 256, and
    every program is about 2x slower at 1,536.  A level may run a check
    before one recorded earlier, so a level replay that fails, or meets a
    floating-point event numpy would report, is dropped and the batch
    replays op by op: the earliest recorded failing check raises, with
    the warnings the op-by-op replay gives."""

    def __init__(self, rec: _Recorder, outputs):
        self.outputs = outputs
        need, live, stages = _liveness(rec, outputs)
        held = [np.flatnonzero(r) if isinstance(r, np.ndarray) else None for r in need]
        traces = rec.traces
        ops = []
        for n in live:
            kind, out, ins, data = rec.ops[n]
            fn, ins = self._compile(kind, need[out], ins, data, held, traces, stages.get(n))
            ops.append((fn, out, ins))
        last = {i: n for n, (_, _, ins) in enumerate(ops) for i in ins}
        for o in outputs:
            last[o] = len(ops)
        release = {}  # op index -> slots whose last reader it is
        for slot, n in last.items():
            release.setdefault(n, []).append(slot)
        self.ops = [(fn, out, ins, tuple(release.get(n, []) + ([out] if out not in last else [])))
                    for n, (fn, out, ins) in enumerate(ops)]
        self.inputs = [(slot, pos, None if held[slot] is None else
                        [r == 0 for r in held[slot]]) for slot, pos in rec.inputs
                       if slot in last]  # per held row of a lifted input: is it row 0
        self.widen = [None if held[o] is None else (len(rec.masks[o]), held[o], traces[o])
                      for o in outputs]
        self.slots = [None] * len(rec.masks)
        self.levels = _Levels(rec, live, need, held, [fn for fn, _, _ in ops], self.inputs, outputs)

    @staticmethod
    def _compile(kind, read, ins, data, held, traces, stages):
        """The replay function of one live op, on held rows, and its inputs
        (``read``: the output rows read)."""
        rows = np.flatnonzero(read) if isinstance(read, np.ndarray) else None
        jet = [held[i] is not None for i in ins]
        g = [_gather(held[i], traces[i], rows) if j and rows is not None else None
             for i, j in zip(ins, jet)]
        if kind == "add":
            ga, gb = g
            if ga is _identity and gb is _identity:
                return np.add, ins
            return (lambda a, b: ga(a) + gb(b)), ins
        if kind == "neg":
            ga = g[0]
            return (lambda a: np.negative(ga(a))), ins
        if kind == "scale":
            ga = g[0]
            if len(ins) == 2:  # by a runtime value
                return (lambda a, v: np.multiply(ga(a), v)), ins
            return (lambda a: ga(a) * data), ins
        if kind == "shift":
            ga, k = g[0], data
            if not len(rows) or rows[0] != 0:
                return (lambda a, *_: ga(a)), ins
            if len(ins) == 2:  # by a runtime value
                return (lambda a, v: _add_constant(ga(a), v)), ins
            return (lambda a: _add_constant(ga(a), k)), ins
        if kind == "trunc":
            return g[0], ins
        if kind == "deriv":
            src, mult = data
            ga, m = _gather(held[ins[0]], traces[ins[0]], src[rows]), mult[rows][:, None]
            return (lambda a: ga(a) * m), ins
        if kind == "const":
            c = np.reshape(np.asarray(data, dtype=float), (1, -1))
            return (lambda: c), ()
        if kind == "prod":
            I, J, K = data
            sel = read[K]
            return _pair_sum(np.searchsorted(held[ins[0]], I[sel]),
                             np.searchsorted(held[ins[1]], J[sel]),
                             np.searchsorted(rows, K[sel]), len(rows)), ins
        # the rest read row 0 of their jet inputs; a jet that does not hold
        # row 0 passes its trace column instead
        subs = [traces[i] if j and not (len(held[i]) and held[i][0] == 0) else None
                for i, j in zip(ins, jet)]
        if kind in ("value", "check"):
            if all(z is None for z in subs):
                return data, ins
            return (lambda *xs: data(*[x if z is None else z for x, z in zip(xs, subs)])), ins
        check, taylor, steps = data  # kind == "elem"
        z0 = subs[0]
        first = (lambda a: a[0]) if z0 is None else (lambda a: z0[0])
        if stages is None:
            return (lambda a: check(first(a))), ins
        arows, prev, plans = held[ins[0]], np.zeros(1, dtype=np.int64), []
        for (I, J, K), stage in zip(steps, stages):
            keep = np.flatnonzero(stage)
            sel = stage[K]
            plans.append((len(keep), _pair_sum(np.searchsorted(prev, I[sel]),
                                               np.searchsorted(arows, J[sel]),
                                               np.searchsorted(keep[1:], K[sel]),
                                               len(keep) - 1)))
            prev = keep
        tail = 0 if len(rows) == len(prev) else 1  # row 0 is computed, but not read
        order = len(steps)

        def horner(a):
            a0 = first(a)
            if check is not None:
                check(a0)
            coef = taylor(a0, order)
            shape = coef.shape[1:] if a is None else np.broadcast_shapes(a.shape[1:], coef.shape[1:])
            acc = (coef[order:] if coef.shape[1:] == shape
                   else np.broadcast_to(coef[order], shape)[None])
            for k, (n, plan) in zip(range(order - 1, -1, -1), plans):
                nxt = np.empty((n,) + shape)
                if n > 1:  # rows besides row 0 (none if u holds no row)
                    plan(acc, a, nxt[1:])
                nxt[0] = 0.0 + coef[k]
                acc = nxt
            return acc[tail:]

        return horner, ins

    def run(self, values) -> list:
        """The outputs at ``values`` (one scalar or batch array per input):
        ``(ncoef,) + batch`` arrays for jets, ``batch`` arrays for values."""
        vals = [np.asarray(v, dtype=float) for v in values]
        shapes = {v.shape for v in vals}
        batch = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        width = math.prod(batch)
        if width <= LEVEL_WIDTH:
            strict = {k: "ignore" if v == "ignore" else "raise" for k, v in np.geterr().items()}
            try:
                with np.errstate(**strict):
                    return self.levels.run(vals, batch, width)
            except Exception:  # any failure: the op-by-op replay below says which comes first
                pass
        s = self.slots.copy()
        for slot, pos, row0 in self.inputs:  # as `lift` would, only the rows read
            s[slot] = val = np.broadcast_to(vals[pos], batch).reshape(width)
            if row0 is not None:
                s[slot] = x = np.empty((len(row0), width))
                for r, first in enumerate(row0):
                    x[r] = val if first else 1.0
        for fn, out, ins, free in self.ops:
            s[out] = fn(*[s[i] for i in ins])
            for i in free:
                s[i] = None
        return self._widen([s[o] for o in self.outputs], batch, width)

    def _widen(self, held, batch, width):
        """The outputs from the held rows (a value's array) of each."""
        outs = []
        for x, widen in zip(held, self.widen):
            if widen is not None and len(widen[1]) < widen[0]:  # the others: trace values
                nc, rows, trace = widen
                if len(rows):
                    full = np.empty((nc, width))
                    full[...] = trace
                    full[rows] = x
                    x = full
                else:
                    x = trace
            outs.append(_shaped(x, batch, width))
        return outs


def record(fn, space: JetSpace, active, sample) -> Program:
    """Record ``fn`` into a `Program`.  ``fn`` takes one input per entry of
    ``sample`` (the jet `lift` makes of it if its position is in ``active``,
    else a runtime value) and returns a list of output jets or values.
    ``sample`` is one batch row (zeros if empty): checks are recorded, not
    run on it, and no value computed from it shapes the program."""
    global _recorder
    rec = _Recorder()
    inputs = lift(space, [np.resize(v, 1) for v in sample], active)
    for pos, x in enumerate(inputs):
        if pos in active:  # rows 0 and the seed, where lift put a 1 (no seed at order 0)
            seed = 1 + np.flatnonzero(x.coeffs[1:, 0])
            x.slot = rec.new_slot(_rows(space.ncoef, 0, *seed), x.coeffs, _rows(space.ncoef, 0))
        else:
            inputs[pos] = x = _Value(x.coeffs[0], rec.new_slot())
        rec.inputs.append((x.slot, pos))
    _recorder = rec
    try:
        with np.errstate(all="ignore"):
            outputs = [rec.slot_of(o) for o in fn(inputs)]
    finally:
        _recorder = None
    return Program(rec, outputs)
