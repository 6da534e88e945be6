"""The benchmark's span tracer against the package it wraps.

``bench/tracer.py`` wraps ``lfgeom`` functions by name and reads flow and
segment attributes off their results, so a refactor that renames a target
or reshapes ``RadialFlow.segments`` would break ``bench/run.py --trace 1``
without failing any other test.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from lfgeom import geodesics
from lfgeom.models import model_library

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_every_target_resolves(tracer):
    for span, (module, attr, _) in tracer.TARGETS.items():
        assert callable(getattr(importlib.import_module(module), attr)), span


def _counts(attrs):
    assert attrs and all(type(v) is int for v in attrs.values()), attrs
    return attrs


def test_flow_and_segment_attributes_are_counts(tracer):
    m = model_library("minkowski", 2, chart_half_width=0.4)
    dirs = np.array([[1.0, 0.0, 0.0], [np.sqrt(1.01), 0.1, 0.0]])
    flow = geodesics.radial_flow(m, np.zeros(3), dirs, 1.0)
    attrs = _counts(tracer._flow_attrs((m, np.zeros(3), dirs, 1.0), {}, flow))
    assert attrs["segments"] == 1 and attrs["steps"] > 0
    assert attrs["peels"] == 1 and attrs["solver_failures"] == 0   # stopped at the chart edge
    seg = geodesics.integrate_geodesic(m, np.zeros(3), dirs[0], 0.3)
    assert _counts(tracer._segment_attrs((m, np.zeros(3), dirs[0], 0.3), {}, seg))["steps"] > 0
