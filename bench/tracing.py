"""Per-layer tracing from outside the program.

The traced run replaces public functions of pullconn modules, and three
numpy.linalg routines, with wrappers that count calls and time them.  A
function is replaced under every name that refers to it in any pullconn
module, so `from .immersion import point_frame` in another module is
traced too.  Spans are aggregated per function as they close: calls, total
seconds, and self seconds (total minus the time of traced calls made
inside it).  Nothing under src/ is changed.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

# (module, function) pairs wrapped in the traced run.
TRACED = {
    "algebra": ["matmul"],
    "homogeneous": ["curvature_normalization"],
    "immersion": ["differential", "point_frame", "second_fundamental_form",
                  "shape_norm", "wirtinger_max"],
    "connection": ["analyze_point", "fatness_margin", "parallel_residual",
                   "radial_residual", "inequality_min_margin"],
    "oracle": ["dr_oracle", "parallel_transport", "base_transport", "christoffel",
               "curvature_pairing_fd", "lemma_omega_check"],
}
# numpy.linalg routines, several counted under one name.
LINALG = {"svd": "linalg.svd", "eigh": "linalg.eigh", "eigvalsh": "linalg.eigh"}
CHART_EVAL = "catalog.chart_eval"
# functions in pullconn that return a chart; their charts get a traced eval
CHART_FACTORIES = {"catalog": ["build_chart"], "oracle": ["exp_chart"]}


class Tracer:
    """Aggregated spans: name -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats = {}
        self.missing = []
        self._stack = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if stack:
                    stack[-1] += dt
        return traced

    def wrap_chart(self, chart):
        """The same chart with every evaluation counted as a chart_eval span."""
        return dataclasses.replace(chart, eval_point=self.wrap(CHART_EVAL, chart.eval_point))

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]

    def install(self):
        """Wrap every TRACED function, LINALG routine and chart factory."""
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("pullconn.") and m is not None]
        for mod_name, names in TRACED.items():
            for fname in names:
                self._replace(mod_name, fname, modules,
                              lambda fn, n=f"{mod_name}.{fname}": self.wrap(n, fn))
        for mod_name, names in CHART_FACTORIES.items():
            for fname in names:
                self._replace(mod_name, fname, modules, self._factory)
        for fname, name in LINALG.items():
            setattr(np.linalg, fname, self.wrap(name, getattr(np.linalg, fname)))

    def _factory(self, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return self.wrap_chart(fn(*args, **kwargs))
        return build

    def _replace(self, mod_name, fname, modules, make):
        home = sys.modules.get(f"pullconn.{mod_name}")
        orig = getattr(home, fname, None)
        if orig is None:
            # a function a later change removes reads as zero calls
            self.missing.append(f"{mod_name}.{fname}")
            return
        wrapped = make(orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
