"""Fixtures that more than one test module counts evaluations with."""

import numpy as np
import pytest

from sdharm import constructions as con, geometry as geo, jets


@pytest.fixture
def metric_shapes(monkeypatch):
    """("arrays", shape) for every fibration-metric evaluation and ("jets",
    shape) for every evaluation of a base metric's closure in jets while the
    test runs, in call order, with the shape of the points: a fibration's
    evaluation lists h's closure at its base points right after itself.  A
    closure is its field's own ``fn``, so it is counted through a property of
    ``MetricField``, which also sees the metrics made before the test."""
    shapes, arrays = [], con.FibredMetric.arrays

    def counted_fn(h):
        fn = h.__dict__["fn"]

        def counted(c):
            if isinstance(c[0], jets.Jet):
                shapes.append(("jets", np.shape(c[0].value) + (len(c),)))
            return fn(c)
        return counted

    monkeypatch.setattr(con.FibredMetric, "arrays", lambda g, p: shapes.append(
        ("arrays", np.shape(p))) or arrays(g, p))
    monkeypatch.setattr(geo.MetricField, "fn", property(
        counted_fn, lambda h, fn: h.__dict__.__setitem__("fn", fn)), raising=False)
    return shapes
