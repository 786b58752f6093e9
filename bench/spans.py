"""Span recorder for the traced run.

Each layer is a public function (or method) of one package module.  The
recorder wraps it at every binding where the package looks it up: the
defining module, every module that imported the name (``hgm.hpg01``,
``distribution.hpg01``, ...) and, for methods, the class.  Every call opens
a span with a parent link to the innermost open span; calls and busy time
(inclusive) are aggregated online, self time is the span's duration minus
that of its traced children, and the first ``MAX_SPANS`` raw spans are kept
in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

# (module, attribute path, metric prefix)
LAYERS = [
    ("special_fn", "hpg01", "special_fn.hpg01"),
    ("special_fn", "incomplete_gamma", "special_fn.incomplete_gamma"),
    ("h_integrals", "h_eval", "h_integrals.h_eval"),
    ("h_integrals", "_h_series_value", "h_integrals._h_series_value"),
    ("distribution", "cdf_quadrature", "distribution.cdf_quadrature"),
    ("distribution", "pdf_quadrature", "distribution.pdf_quadrature"),
    ("distribution", "pdf_conjecture", "distribution.pdf_conjecture"),
    ("distribution", "g_jet", "distribution.g_jet"),
    ("hgm", "PfaffianSystem.rhs", "hgm.PfaffianSystem.rhs"),
    ("hgm", "hgm_integrate", "hgm.hgm_integrate"),
    ("hgm", "extraction_vector", "hgm.extraction_vector"),
    ("hgm", "initial_state", "hgm.initial_state"),
    ("ratfunc", "RatFunc.eval", "ratfunc.RatFunc.eval"),
    ("series_engine", "build_psi_series", "series_engine.build_psi_series"),
    ("series_engine", "build_R_series", "series_engine.build_R_series"),
    ("series_engine", "LambdaSeries.eval", "series_engine.LambdaSeries.eval"),
    ("exp_poly", "ExpPoly.__mul__", "exp_poly.ExpPoly.mul"),
    ("exp_poly", "ExpPoly.eval", "exp_poly.ExpPoly.eval"),
    ("operators", "DiffOperator.apply", "operators.DiffOperator.apply"),
    ("operators", "lclm", "operators.lclm"),
    ("mc_validator", "sample_largest_eig", "mc_validator.sample_largest_eig"),
    ("mc_validator", "hermitian_eig_max", "mc_validator.hermitian_eig_max"),
    ("mc_validator", "compare_cdf", "mc_validator.compare_cdf"),
    ("cli", "main", "cli.main"),
]

# (metric, unit, better) for the per-layer report; the suffix names the
# aggregate: calls, busy_s (inclusive), self_s (exclusive), hit_ratio
# (lru_cache hits over lookups during the traced pass)
LAYER_METRICS = [
    ("special_fn.hpg01.calls", "count", "lower"),
    ("special_fn.hpg01.busy_s", "s", "lower"),
    ("special_fn.incomplete_gamma.calls", "count", "lower"),
    ("special_fn.incomplete_gamma.hit_ratio", "ratio", "higher"),
    ("h_integrals.h_eval.calls", "count", "lower"),
    ("h_integrals.h_eval.busy_s", "s", "lower"),
    ("h_integrals._h_series_value.hit_ratio", "ratio", "higher"),
    ("distribution.cdf_quadrature.calls", "count", "lower"),
    ("distribution.cdf_quadrature.busy_s", "s", "lower"),
    ("distribution.pdf_quadrature.calls", "count", "lower"),
    ("distribution.pdf_quadrature.busy_s", "s", "lower"),
    ("distribution.pdf_conjecture.calls", "count", "lower"),
    ("distribution.pdf_conjecture.busy_s", "s", "lower"),
    ("distribution.g_jet.calls", "count", "lower"),
    ("hgm.PfaffianSystem.rhs.calls", "count", "lower"),
    ("hgm.PfaffianSystem.rhs.busy_s", "s", "lower"),
    ("ratfunc.RatFunc.eval.calls", "count", "lower"),
    ("ratfunc.RatFunc.eval.busy_s", "s", "lower"),
    ("hgm.hgm_integrate.calls", "count", "lower"),
    ("hgm.hgm_integrate.busy_s", "s", "lower"),
    ("hgm.extraction_vector.calls", "count", "lower"),
    ("hgm.extraction_vector.busy_s", "s", "lower"),
    ("hgm.initial_state.calls", "count", "lower"),
    ("hgm.initial_state.busy_s", "s", "lower"),
    ("series_engine.build_psi_series.calls", "count", "lower"),
    ("series_engine.build_psi_series.busy_s", "s", "lower"),
    ("series_engine.build_R_series.calls", "count", "lower"),
    ("series_engine.build_R_series.busy_s", "s", "lower"),
    ("series_engine.LambdaSeries.eval.busy_s", "s", "lower"),
    ("exp_poly.ExpPoly.mul.calls", "count", "lower"),
    ("exp_poly.ExpPoly.eval.busy_s", "s", "lower"),
    ("operators.DiffOperator.apply.calls", "count", "lower"),
    ("operators.DiffOperator.apply.busy_s", "s", "lower"),
    ("operators.lclm.busy_s", "s", "lower"),
    ("mc_validator.sample_largest_eig.busy_s", "s", "lower"),
    ("mc_validator.hermitian_eig_max.calls", "count", "lower"),
    ("mc_validator.hermitian_eig_max.busy_s", "s", "lower"),
    ("mc_validator.compare_cdf.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("accuracy.quadrature.max_rel_err", "ratio", "lower"),
    ("accuracy.conjecture.max_rel_err", "ratio", "lower"),
    ("accuracy.series.max_rel_err", "ratio", "lower"),
    ("accuracy.hgm.max_rel_err", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

MAX_SPANS = 100_000


class SpanRecorder:
    """Wraps layer functions and records their spans."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.busy = []
        self.self_time = []
        self.depth = []
        self.stack = []  # open spans: [name id, span index, child time]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._patched = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        for lst, zero in ((self.calls, 0), (self.busy, 0.0), (self.self_time, 0.0), (self.depth, 0)):
            lst.append(zero)
        stack, depth = self.stack, self.depth
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if len(sn) < MAX_SPANS:
                idx = len(sn)
                sn.append(nid)
                sp.append(parent[1] if parent else -1)
                ss.append(0.0)
                se.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [nid, idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                depth[nid] -= 1
                self.calls[nid] += 1
                if depth[nid] == 0:  # recursion: count the outermost call only
                    self.busy[nid] += dur
                self.self_time[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if idx >= 0:
                    ss[idx] = t0
                    se[idx] = t1

        functools.update_wrapper(traced, fn)
        return traced

    def install(self, modules: dict):
        """Wrap every layer at each binding in ``modules`` (name -> module)."""
        for mod_name, path, metric in LAYERS:
            owner = modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(metric, orig), orig)
                continue
            orig = getattr(owner, path)
            traced = self.wrap(metric, orig)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, traced, orig)

    def _set(self, obj, attr, new, orig):
        setattr(obj, attr, new)
        self._patched.append((obj, attr, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    def aggregate(self) -> dict:
        return {name: {"calls": self.calls[i], "busy_s": self.busy[i], "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)}

    def write(self, path: str, extra: dict):
        """Write the aggregates and the kept raw spans as JSON."""
        doc = dict(extra)
        doc["layers"] = self.aggregate()
        doc["spans"] = {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "rows": [[self.names[n], p, s, e] for n, p, s, e in
                     zip(self.span_name, self.span_parent, self.span_start, self.span_end)],
            "dropped": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
