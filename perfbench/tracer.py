"""Span tracing of sdharm's public functions, installed from outside the package.

The modules call each other through module attributes (``geo.riemann``,
``mor.dilation``, ...) and module globals, so replacing an attribute of a
module or class with a timing wrapper catches cross-module and same-module
calls alike.  Each call becomes a span (name, start, end, parent span, job
id) kept in memory; a span's self time is its duration minus the time its
child spans cover.  ``Jet.__init__`` is only counted, never timed.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from sdharm import cli, constructions, geometry, jets, morphism, weyl3

# (layer, owner, attribute): the layer names the metric prefix.
TARGETS = (
    [("geometry", geometry, f) for f in (
        "metric_jets", "jet_matrix_inverse", "christoffel_jets", "riemann", "weyl",
        "curvature_report", "sd_asd_split", "split_two_form", "hodge_star", "ext_d")]
    + [("jets", geometry.ScalarField, "jet"), ("jets", geometry.OneFormField, "jets"),
       ("jets", geometry.TwoFormField, "jets")]
    + [("morphism", morphism.SubmersionSetup, "ctx")]
    + [("morphism", morphism, f) for f in (
        "fundamental_eq_residual", "twistorial_basic_residual", "twistorial_sd_residual",
        "monopole_eq_residual", "pullback_sd_residual", "dilation",
        "projected_lee_form", "classify_type")]
    + [("weyl3", weyl3, f) for f in (
        "weyl_covariant_metric_residual", "einstein_weyl_residual", "beltrami_residual",
        "generalized_beltrami_residual", "monopole_residual", "closure_residual",
        "weyl_connection_coeffs", "locate_residual_minimum")]
    + [("constructions", constructions, "catalog")]
    + [("cli", cli, "validate_scene"), ("cli", cli.ResolvedScene, "__init__"),
       ("cli", cli, "build_report"), ("cli", cli, "canonical_json")]
)


def target_name(layer, owner, attr):
    qual = attr if isinstance(owner, type(jets)) else f"{owner.__name__}.{attr}"
    return f"{layer}.{qual}"


NAMES = [target_name(*t) for t in TARGETS]


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index, job id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.jet_allocs = 0
        self.locate_evals = 0
        self.ctx_points = set()   # distinct (job, point) given to SubmersionSetup.ctx
        self.job = None
        self._stack = []          # [span index, seconds covered by children]
        self._saved = []

    # -- spans -----------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        frame = [index, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = end = perf_counter()
            self._stack.pop()
            duration = end - record[1]
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    # -- installation ------------------------------------------------------------

    def _wrapper(self, name, original):
        if name == "morphism.SubmersionSetup.ctx":
            def wrapper(setup, point):
                self.ctx_points.add((self.job, tuple(float(x) for x in point)))
                return self.span(name, original, setup, point)
        elif name == "weyl3.locate_residual_minimum":
            def wrapper(f, *args, **kwargs):
                def counted(t):
                    self.locate_evals += 1
                    return f(t)
                return self.span(name, original, counted, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
        return functools.wraps(original)(wrapper)

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        for layer, owner, attr in TARGETS:
            name = target_name(layer, owner, attr)
            self._replace(owner, attr, self._wrapper(name, owner.__dict__[attr]))
        init = jets.Jet.__init__

        def counted_init(jet, *args, **kwargs):
            self.jet_allocs += 1
            init(jet, *args, **kwargs)
        self._replace(jets.Jet, "__init__", counted_init)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- output ------------------------------------------------------------------

    def write_spans(self, path):
        """Spans as JSON lines, start and end in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "job": job}) + "\n")
