"""Span tracer installed from outside the ``lfgeom`` package.

``Tracer.install`` replaces selected public functions of the ``lfgeom``
modules with wrappers that record one span per call: name, start, end,
parent span and self time (duration minus the time covered by child
spans).  A function imported by name into another module (for example
``eval_connection`` in ``geodesics``, ``jacobi`` and ``curvature``) is
replaced in every ``lfgeom`` module that holds it, so intra-package calls
are seen too.

``Jet.__mul__`` runs 10^5-10^6 times per op, so it is not stored as a
span: its calls, table pairs (mult-table pairs x batch points) and time
are summed, and its time is charged to the enclosing span as child time.

Spans stay in memory until ``dump`` writes them, once, at the end of
the op.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

import numpy as np

def _connection_attrs(args, kwargs, result):
    order = kwargs.get("order", args[3] if len(args) > 3 else 4)
    x, v = np.shape(args[1])[:-1], np.shape(args[2])[:-1]
    return {"order": int(order), "batch": math.prod(np.broadcast_shapes(x, v))}


def _points_attrs(args, kwargs, result):
    x, v = np.shape(args[1])[:-1], np.shape(args[2])[:-1]
    return {"points": math.prod(np.broadcast_shapes(x, v))}


def _flow_attrs(args, kwargs, result):
    if result is None:
        return {}
    # a segment that stops before s = 1 ended at a validity event (or a
    # solver failure): directions were dropped there and the rest restarted
    return {"segments": len(result.segments),
            "steps": sum(len(seg[2].ts) - 1 for seg in result.segments),
            "peels": sum(1 for seg in result.segments if seg[1] < 1.0 - 1e-12),
            "solver_failures": sum(1 for r in result.exit_reason
                                   if r == "solver-failure")}


def _segment_attrs(args, kwargs, result):
    if result is None:
        return {}
    return {"steps": len(result.sol.ts) - 1}


# span name -> (module, attribute, attrs function or None)
TARGETS = {
    "models.fundamental_tensor": ("lfgeom.models", "fundamental_tensor", None),
    "connection.eval_connection": ("lfgeom.connection", "eval_connection",
                                   _connection_attrs),
    "curvature.riemann_matrix": ("lfgeom.curvature", "riemann_matrix",
                                 _points_attrs),
    "curvature.weight_along": ("lfgeom.curvature", "weight_along", None),
    "geodesics.radial_flow": ("lfgeom.geodesics", "radial_flow", _flow_attrs),
    "geodesics.integrate_geodesic": ("lfgeom.geodesics", "integrate_geodesic",
                                     _segment_attrs),
    "geodesics.find_validity_times": ("lfgeom.geodesics", "find_validity_times",
                                      None),
    "jacobi.variational_paths": ("lfgeom.jacobi", "variational_paths", None),
    "jacobi.scalars_for_paths": ("lfgeom.jacobi", "scalars_for_paths", None),
    "jacobi.sample_all": ("lfgeom.jacobi", "sample_all", None),
    "jacobi.riccati_quantities": ("lfgeom.jacobi", "riccati_quantities", None),
    "comparison.build_quadrature": ("lfgeom.comparison", "build_quadrature", None),
    "comparison.build_sclv_data": ("lfgeom.comparison", "build_sclv_data", None),
    "comparison.bishop_gromov_check": ("lfgeom.comparison",
                                       "bishop_gromov_check", None),
    "comparison.gunther_check": ("lfgeom.comparison", "gunther_check", None),
    "comparison.bg_infinity_check": ("lfgeom.comparison", "bg_infinity_check",
                                     None),
    "comparison.ball_bound_check": ("lfgeom.comparison", "ball_bound_check", None),
    "comparison.coordinate_volume": ("lfgeom.comparison", "coordinate_volume",
                                     None),
    "scenario.load_scenario": ("lfgeom.scenario", "load_scenario", None),
    "cli.main": ("lfgeom.cli", "main", None),
}


class Tracer:
    """In-memory spans for one op (one CLI process)."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []     # [name, start, end, parent index, child time, attrs]
        self._stack = []
        self.mul_calls = 0
        self.mul_pairs = 0
        self.mul_s = 0.0

    def _span(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
                if attrs_fn is not None:
                    rec[5] = attrs_fn(args, kwargs, result)

        return wrapper

    def _mul(self, fn, jet_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def mul(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            dt = perf_counter() - t0
            self.mul_calls += 1
            self.mul_s += dt
            if stack:
                spans[stack[-1]][4] += dt
            if isinstance(b, jet_type):
                pairs = a.space.mult_table(out.order)[0].size
                self.mul_pairs += pairs * (out.coeffs.size // out.coeffs.shape[0])
            return out

        return mul

    def install(self):
        """Wrap every target in every loaded ``lfgeom`` module."""
        import lfgeom.cli  # noqa: F401  (loads every module the CLI uses)
        from lfgeom.jets import Jet

        package = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "lfgeom" or name.startswith("lfgeom."))]
        for span_name, (mod_name, attr, attrs_fn) in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._span(span_name, original, attrs_fn)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        mul = self._mul(Jet.__mul__, Jet)
        Jet.__mul__ = mul
        Jet.__rmul__ = mul

    def dump(self):
        """Spans as plain lists: name, start, end, parent, self time, attrs."""
        return {
            "op": self.op_id,
            "spans": [[name, t0, t1, parent, (t1 - t0) - child, attrs]
                      for name, t0, t1, parent, child, attrs in self.spans],
            "jets": {"mul_calls": self.mul_calls, "mul_pairs": self.mul_pairs,
                     "mul_s": self.mul_s},
        }
