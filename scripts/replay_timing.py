#!/usr/bin/env python3
"""Time `eval_connection` replays by level and op by op, and the schedule build.

Usage:
    PYTHONPATH=src python3 scripts/replay_timing.py

For `flrw` n=1, `einstein_static` n=2 and `quartic_flrw` n=3 at orders 4
and 5, prints:

* the time `jets.record` takes for the connection program, and the part of
  it spent building the level schedule (`jets._Levels`), each the best of 5
  fresh recordings;
* `eval_connection` milliseconds per call, best of 7 rounds of 20 calls,
  for batches B = 1, 4, 48, 128, 256 and 1536, once by level and once op
  by op (the replay every batch wider than `jets.LEVEL_WIDTH` takes), and
  their ratio.

`jets.LEVEL_WIDTH` should sit where that ratio falls below 1.
"""

import time

import numpy as np

from lfgeom import jets
from lfgeom.connection import eval_connection
from lfgeom.models import model_library

MODELS = [("flrw", dict(n=1, scale="cosh", omega=0.7)),
          ("einstein_static", dict(n=2, radius=1.3)),
          ("quartic_flrw", dict(n=3, eps=0.2, H=0.4))]
BATCHES = (1, 4, 48, 128, 256, 1536)


def points(m, batch, seed=0):
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.uniform(-1.0, 1.0, size=(batch, m.dim))
    v = 0.3 * rng.uniform(-1.0, 1.0, size=(batch, m.dim))
    v[:, 0] = 1.0 + 0.2 * rng.uniform(size=batch)
    return x, v


def per_call_ms(m, x, v, order, rounds=7, calls=20):
    """Best ms per call (by level, op by op), the two alternating round by round."""
    best, level_width = [float("inf")] * 2, jets.LEVEL_WIDTH
    try:
        for _ in range(rounds):
            for k, width in enumerate((len(x), -1)):  # by level, then op by op
                jets.LEVEL_WIDTH = width
                t = time.perf_counter()
                for _ in range(calls):
                    eval_connection(m, x, v, order, validate=False)
                best[k] = min(best[k], (time.perf_counter() - t) / calls)
    finally:
        jets.LEVEL_WIDTH = level_width
    return [1e3 * b for b in best]


def record_times(name, params, x, v, order, rounds=5):
    """Best of ``rounds`` fresh recordings of one connection program: (ms in
    `jets.record`, ms of it building the level schedule)."""
    spent, build, record, init = [], [], jets.record, jets._Levels.__init__

    def timed_build(self, *args):
        t = time.perf_counter()
        init(self, *args)
        build.append(time.perf_counter() - t)

    def timed_record(*args):
        t = time.perf_counter()
        try:
            return record(*args)
        finally:
            spent.append(time.perf_counter() - t)

    jets._Levels.__init__, jets.record = timed_build, timed_record
    try:
        for _ in range(rounds):
            eval_connection(model_library(name, **params), x[:1], v[:1], order, validate=False)
    finally:
        jets._Levels.__init__, jets.record = init, record
    return 1e3 * min(spent), 1e3 * min(build)


def main():
    print("model                o  B     level ms  op ms   ratio")
    for name, params in MODELS:
        for order in (4, 5):
            m = model_library(name, **params)
            x, v = points(m, max(BATCHES))
            rec_ms, build_ms = record_times(name, params, x, v, order)
            eval_connection(m, x[:1], v[:1], order, validate=False)
            program = m._programs[("connection", order)]
            print(f"{name} n={m.n} order {order}: record {rec_ms:.1f} ms, schedule build "
                  f"{build_ms:.1f} ms ({100 * build_ms / rec_ms:.0f}%), {len(program.ops)} live ops, "
                  f"{len(program.levels.steps)} steps, buffer {program.levels.height} rows")
            for batch in BATCHES:
                level, op = per_call_ms(m, x[:batch], v[:batch], order)
                print(f"  {name:18s} {order} {batch:5d} {level:8.3f} {op:7.3f} {op / level:6.2f}x")


if __name__ == "__main__":
    main()
