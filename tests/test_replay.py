"""Recorded jet programs against direct jet evaluation.

`eval_connection` and `fundamental_tensor` record their jet part once per
model and order and replay it on every call.  The reference here runs
the same recorded function directly on `Jet`s, which is what every call
did before recording existed; the two must agree bit for bit, signed
zeros included.
"""

import warnings

import numpy as np
import pytest

from lfgeom import jets
from lfgeom.connection import (
    ConnectionData,
    DegenerateMetricError,
    _connection_data,
    _jet_section,
    eval_connection,
)
from lfgeom.jets import JetDomainError, jetspace, lift, partial
from lfgeom.models import CausalityError, components, fundamental_tensor, model_library

WEIGHT = [("const", 0.2), ("linear_x0", 0.8), ("boost_ratio", 0.45)]


def library_models():
    return [
        model_library("minkowski", n=2),
        model_library("flrw", n=2, scale="exp", H=0.3),
        model_library("flrw", n=1, scale="cosh", omega=0.7),
        model_library("flrw", n=2, scale="affine", a0=1.2, q=0.3),
        model_library("quartic_finsler", n=2, eps=0.3),
        model_library("quartic_flrw", n=3, eps=0.2, H=0.4),
        model_library("einstein_static", n=2, radius=1.3),
        model_library("flrw", n=2, scale="affine", a0=1.2, q=0.3, weight=WEIGHT),
    ]


def _ids(m):
    return f"{m.name}-n{m.n}-" + "-".join(str(p) for p in m.params.values()) + (
        "-weighted" if m.weight_fn else "")


def points(m, batch, seed=0):
    """Generic chart points and future timelike vectors of a batch shape."""
    rng = np.random.default_rng(seed)
    d = m.dim
    x = 0.3 * rng.uniform(-1.0, 1.0, size=batch + (d,))
    v = 0.3 * rng.uniform(-1.0, 1.0, size=batch + (d,))
    v[..., 0] = 1.0 + 0.2 * rng.uniform(size=batch)
    return x, v


def direct_connection(m, x, v, order, validate=True):
    """The recorded function of `eval_connection`, evaluated on jets."""
    d = m.dim
    values = components(np.asarray(x, dtype=float), d) + components(np.asarray(v, dtype=float), d)
    lifted = lift(jetspace(2 * d, order), values, active=list(range(2 * d)))
    outputs = [j.coeffs for j in _jet_section(m, order)(lifted)]
    return _connection_data(outputs, m, np.asarray(v, dtype=float), order, validate)


def direct_fundamental_tensor(m, x, v):
    """Order-2 jets in v with x as plain arrays, evaluated directly."""
    d = m.dim
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    Lj = m.L_fn(components(x, d), lift(jetspace(d, 2), components(v, d), active=list(range(d))))
    g = np.empty(np.broadcast_shapes(x.shape[:-1], v.shape[:-1]) + (d, d))
    for a in range(d):
        for b in range(a, d):
            val = 0.5 * partial(Lj, tuple(int(q == a) + int(q == b) for q in range(d)))
            g[..., a, b] = g[..., b, a] = val
    return g


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# every field, the lazily computed ginv included; N is also the transport matrix
FIELDS = ("L", "g", "ginv", "dg_dx", "dg_dv", "G", "N", "dG_dx", "dN_dx", "dN_dv")


def assert_same_connection(got: ConnectionData, want: ConnectionData):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert same_bits(a, b), name


@pytest.mark.parametrize("m", library_models(), ids=_ids)
@pytest.mark.parametrize("order", [3, 4, 5])
def test_replay_matches_direct_evaluation(m, order):
    for seed, batch in enumerate([(), (1,), (5,), (2, 3)]):
        x, v = points(m, batch, seed)
        assert_same_connection(eval_connection(m, x, v, order), direct_connection(m, x, v, order))
    # x shared by the whole batch
    x, v = points(m, (4,), 9)
    assert_same_connection(eval_connection(m, x[0], v, order), direct_connection(m, x[0], v, order))


@pytest.mark.parametrize("m", library_models(), ids=_ids)
def test_fundamental_tensor_replay_matches_direct_evaluation(m):
    for seed, batch in enumerate([(), (1,), (5,), (2, 3)]):
        x, v = points(m, batch, seed)
        assert same_bits(fundamental_tensor(m, x, v), direct_fundamental_tensor(m, x, v))
    x, v = points(m, (4,), 9)
    assert same_bits(fundamental_tensor(m, x[0], v), direct_fundamental_tensor(m, x[0], v))


@pytest.mark.parametrize("index", range(len(library_models())))
def test_program_traced_at_apex_replays_at_generic_points(index):
    # x = 0 zeroes every x-term of the trace values; the program must keep them
    m = library_models()[index]  # a fresh model: its programs are traced here
    d = m.dim
    for order in (3, 4, 5):
        eval_connection(m, np.zeros(d), np.eye(d)[0], order)
    fundamental_tensor(m, np.zeros(d), np.eye(d)[0])
    assert len(m._programs) == 4
    x, v = points(m, (6,), 3)
    for order in (3, 4, 5):
        assert_same_connection(eval_connection(m, x, v, order), direct_connection(m, x, v, order))
    assert same_bits(fundamental_tensor(m, x, v), direct_fundamental_tensor(m, x, v))


def test_one_trace_per_model_and_order(monkeypatch):
    traces = []
    record = jets.record

    def counting(fn, space, active, sample):
        traces.append((space.dim, space.order))
        return record(fn, space, active, sample)

    monkeypatch.setattr(jets, "record", counting)
    m = model_library("einstein_static", n=2)
    for batch in [(), (1,), (7,), (2, 3)]:
        x, v = points(m, batch)
        for order in (3, 4):
            eval_connection(m, x, v, order, validate=False)
        fundamental_tensor(m, x, v)
    assert sorted(traces) == [(3, 2), (6, 3), (6, 4)]
    other = model_library("einstein_static", n=2)
    eval_connection(other, *points(other, (2,)), 3)
    assert len(traces) == 4


def test_models_with_different_params_never_share_a_program():
    slow = model_library("flrw", n=1, scale="exp", H=0.1)
    fast = model_library("flrw", n=1, scale="exp", H=0.9)
    x, v = points(slow, (3,))
    a, b = eval_connection(slow, x, v, 4), eval_connection(fast, x, v, 4)
    assert not np.array_equal(a.G, b.G)
    assert slow._programs[("connection", 4)] is not fast._programs[("connection", 4)]
    assert_same_connection(a, direct_connection(slow, x, v, 4))
    assert_same_connection(b, direct_connection(fast, x, v, 4))
    # a model built after another is gone may reuse its id(), never its program
    for H in (0.2, 0.5, 0.8):
        m = model_library("flrw", n=1, scale="exp", H=H)
        assert_same_connection(eval_connection(m, x, v, 4), direct_connection(m, x, v, 4))
        del m


def test_degenerate_metric_is_caught_at_replay():
    m = model_library("flrw", n=1, scale="affine", a0=1.0, q=-0.5)  # a = 0 at x0 = 2
    v = np.array([1.0, 0.3])
    for order in (3, 4):
        eval_connection(m, np.zeros(2), v, order)
        with pytest.raises(DegenerateMetricError):
            eval_connection(m, np.array([2.0, 0.0]), v, order)
    # the pivot check recorded in the jet LDL^T solve fires on its own too
    with pytest.raises(DegenerateMetricError):
        m._programs[("connection", 4)].run([2.0, 0.0, 1.0, 0.3])


def test_domain_error_is_caught_at_replay():
    m = model_library("quartic_finsler", n=2, eps=0.3)  # divides by v0^2 + |v_s|^2
    d = m.dim
    for order in (3, 4):
        eval_connection(m, np.zeros(d), np.eye(d)[0], order, validate=False)
        with pytest.raises(JetDomainError):
            eval_connection(m, np.zeros(d), np.zeros(d), order, validate=False)

    def section(inputs):
        x, = inputs
        return [jets.sqrt(x) + jets.exp(x) + 1.0 / x]

    program = jets.record(section, jetspace(1, 3), [0], [2.0])
    program.run([np.array([0.5, 3.0])])
    for bad in ([0.5, 0.0], [1.0, -1.0]):
        with pytest.raises(JetDomainError):
            program.run([np.array(bad)])


def test_ops_no_output_reads_are_not_replayed():
    slots = {}

    def section(inputs):
        x, = inputs
        e = jets.exp(x)
        dead = e * x
        slots.update(exp=e.slot, dead=dead.slot)
        return [x * x]

    program = jets.record(section, jetspace(1, 3), [0], [0.5])
    outs = [out for _, out, _, _ in program.ops]
    assert slots["exp"] not in outs and slots["dead"] not in outs
    assert len(outs) == 1  # x * x alone
    got, = program.run([np.array([0.5, -2.0])])
    want, = section(lift(jetspace(1, 3), [np.array([0.5, -2.0])], active=[0]))
    assert same_bits(got, want.coeffs)


def test_dead_op_still_runs_its_check():
    def section(inputs):
        x, = inputs
        jets.sqrt(x - 3.0)  # read by no output: only its domain check runs
        return [x * x]

    program = jets.record(section, jetspace(1, 3), [0], [5.0])
    assert len(program.ops) == 3  # x - 3, the check, x * x
    program.run([np.array([4.0, 5.0])])
    with pytest.raises(JetDomainError):
        program.run([np.array([4.0, 1.0])])


def test_causality_is_checked_at_replay():
    m = model_library("minkowski", n=2)
    eval_connection(m, np.zeros(3), np.array([1.0, 0.2, 0.0]), 4)
    with pytest.raises(CausalityError):
        eval_connection(m, np.zeros(3), np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0]]), 4)
    eval_connection(m, np.zeros(3), np.array([0.2, 1.0, 0.0]), 4, validate=False)


def test_first_error_in_pipeline_order_wins():
    # v = 0 both divides by zero in L and is not timelike: L comes first
    m = model_library("quartic_finsler", n=2, eps=0.3)
    eval_connection(m, np.zeros(3), np.array([1.0, 0.1, 0.0]), 3)
    with pytest.raises(JetDomainError):
        eval_connection(m, np.zeros(3), np.array([[1.0, 0.1, 0.0], [0.0, 0.0, 0.0]]), 3)


class EarlyCheckFailed(ArithmeticError):
    pass


class LateCheckFailed(ArithmeticError):
    pass


def _fails_past(limit, error):
    def check(x):
        if np.any(x > limit):
            raise error(f"above {limit}")
    return check


def test_earliest_recorded_check_raises_whatever_its_level():
    # the first check reads a deep chain, the second a shallow exp: a level
    # schedule meets the second first, but the first must raise, and the
    # exp, which runs after it in recorded order, must not warn
    def section(inputs):
        x, = inputs
        y = x
        for _ in range(6):
            y = y * x + 1.0
        jets.apply(_fails_past(2.0, EarlyCheckFailed), y, check=True)
        big = jets.exp(1e3 * x)
        jets.apply(_fails_past(1e250, LateCheckFailed), big, check=True)
        return [y, big]

    program = jets.record(section, jetspace(1, 2), [0], [0.1])
    for batch in [(3,), (jets.LEVEL_WIDTH + 1,)]:
        xs = np.full(batch, 0.1)
        program.run([xs])
        for bad in (0.6, 6.0):  # both checks fail; exp(6000) also overflows
            xs[-1] = bad
            with np.errstate(all="ignore"), pytest.raises(LateCheckFailed):  # the level order
                program.levels.run([xs], batch, xs.size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(EarlyCheckFailed):
                    program.run([xs])
            assert not caught


@pytest.mark.parametrize("name, params, live, steps", [
    ("einstein_static", dict(n=2, radius=1.3), 83, 40),
    ("quartic_flrw", dict(n=3, eps=0.2, H=0.4), 348, 90),
])
def test_level_schedule_size(name, params, live, steps):
    m = model_library(name, **params)
    eval_connection(m, *points(m, (2,)), 4)
    program = m._programs[("connection", 4)]
    assert len(program.ops) == live
    assert len(program.levels.steps) <= steps


def test_constant_outputs_widen_to_the_batch():
    m = model_library("minkowski", n=2)
    x, v = points(m, (4,))
    eval_connection(m, x, v, 4)
    program = m._programs[("connection", 4)]
    constants = list(program.slots)
    # minkowski's spray is zero for any input: all-constant outputs widen to the batch
    for batch in [(), (3,), (2, 5)]:
        x, v = points(m, batch)
        c = eval_connection(m, x, v, 4)
        assert c.G.shape == batch + (3,) and c.N.shape == batch + (3, 3)
        assert same_bits(c.G, np.zeros(batch + (3,)))
    assert all(a is b for a, b in zip(program.slots, constants))  # replays copy the slot list


def test_zero_rows_keep_their_signs():
    # a structurally zero jet is a constant of signed zeros, unless a runtime
    # value scales it: then its signs follow that value on every replay
    sp = jetspace(1, 2)

    def section(inputs):
        x, v = inputs
        zero = jets.jet_derivative(jets.jet_derivative(v, 0), 0)
        return [-zero, zero * x, v * x]

    program = jets.record(section, sp, [1], [1.0, 0.5])
    xs, vs = np.array([2.0, -3.0, -0.0]), np.array([0.5, -0.25, 1.0])
    want = [j.coeffs for j in section([xs, lift(sp, [vs], active=[0])[0]])]
    got = program.run([xs, vs])
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same_bits(a, b)


def test_runtime_values_follow_numpy():
    # inputs that are not lifted stay arrays: ** keeps ndarray's fast paths
    sp = jetspace(1, 2)

    def section(inputs):
        x, v = inputs
        a = 2.0 / (1.0 + x * x)
        return [v * (x ** 0.5) + x ** 1.5 - a * v + jets.exp(-x) * jets.sqrt(x), a]

    program = jets.record(section, sp, [1], [1.0, 0.5])
    xs, vs = np.array([0.3, 2.0, 7.0]), np.array([1.0, 2.0, -1.0])
    want = section([xs, lift(sp, [vs], active=[0])[0]])
    got = program.run([xs, vs])
    assert same_bits(got[0], want[0].coeffs) and same_bits(got[1], want[1])


def test_empty_first_batch_records_and_replays():
    m = model_library("einstein_static", n=2)
    x, v = points(m, (0,))
    assert same_bits(fundamental_tensor(m, x, v), direct_fundamental_tensor(m, x, v))
    x, v = points(m, (4,))
    assert same_bits(fundamental_tensor(m, x, v), direct_fundamental_tensor(m, x, v))


def random_section(seed):
    """A random straight-line jet function of its inputs: every primitive,
    runtime values included, and outputs drawn from the last results."""
    def section(inputs):
        rng = np.random.default_rng(seed)
        pool = list(inputs)
        for _ in range(rng.integers(5, 25)):
            js = [x for x in pool if isinstance(x, jets.Jet)]
            vs = [x for x in pool if not isinstance(x, jets.Jet)]
            a, b = js[rng.integers(len(js))], js[rng.integers(len(js))]
            op = rng.integers(12)
            if op == 0:
                y = a + b
            elif op == 1:
                y = a - b
            elif op == 2:
                y = -a
            elif op == 3:
                y = a * float(rng.choice([0.5, -2.0, 0.0, -0.0]))
            elif op == 4:
                y = a + float(rng.choice([1.0, -0.0, 0.0]))
            elif op == 5 and vs:
                y = a * vs[rng.integers(len(vs))]
            elif op == 6 and vs:
                y = a + vs[rng.integers(len(vs))]
            elif op == 7 and a.order >= 1:
                y = jets.jet_derivative(a, int(rng.integers(a.space.dim)))
            elif op == 8:
                y = a.truncated(int(rng.integers(a.order + 1)))
            elif op == 9:
                y = jets.exp(0.1 * a)
            elif op == 10:
                y = jets.sqrt(2.0 + a * a)
            else:
                y = a * b
            pool.append(y)
        return [pool[-1 - int(i)] for i in rng.integers(0, min(len(pool), 6), rng.integers(1, 4))]
    return section


@pytest.mark.parametrize("seed", range(120))
def test_random_programs_replay_bit_identically(seed):
    rng = np.random.default_rng(1000 + seed)
    dim, order, nval = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
    if seed >= 100:  # order 0: an active input is a one-row slot with no seed
        order = 0
    sp, active = jetspace(dim, order), list(range(nval, nval + dim))
    section = random_section(seed)
    with np.errstate(all="ignore"):
        program = jets.record(section, sp, active, list(rng.normal(size=nval + dim)))
    # replayed by level, op by op (wider than jets.LEVEL_WIDTH), and on a 2-D batch
    for batch in [(3,), (jets.LEVEL_WIDTH + 1,), (2, 3)]:
        vals = [rng.normal(size=batch) for _ in range(nval + dim)]
        for v in vals:
            v[rng.random(batch) < 0.3] = -0.0
        with np.errstate(all="ignore"):
            lifted = lift(sp, vals, active)
            want = section([lifted[i] if i in active else vals[i] for i in range(nval + dim)])
            got = program.run(vals)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            b = b.coeffs if isinstance(b, jets.Jet) else np.broadcast_to(b, a.shape)
            assert same_bits(a, b)
