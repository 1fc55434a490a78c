"""Spans around tvbounds entry points, installed from benchmark code.

``Tracer.install`` rebinds each entry point listed in ``LAYERS`` to a wrapper,
everywhere a ``tvbounds`` module holds it (``sums.convolve`` and
``bounds.is_log_concave_relative`` are the same function objects as the
``distributions`` originals). A wrapper records a span ``[layer, entry,
start, end, parent, op]`` in memory; a call nested directly inside a span of
the same layer is folded into that span. Self time is a span's duration minus
the time its child spans cover, so along the single blocking thread the self
times of an op's spans add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _masses(d) -> int:
    return len(d.masses)


def _window(args, result) -> dict:
    a, b = args[0], args[1]
    return {"cells": max(a.end, b.end) - min(a.offset, b.offset)}


def _anchor_search(args, result) -> dict:
    if result is None:
        return {"searches": 1}
    return {"searches": 1, "matched": int(bool(result.ratio_matched))}


# layer -> entry points, as "module.attr"; "attr[]" wraps every value of a
# dispatch table and "Class.method" a method
LAYERS = {
    "distributions.convolve": ["distributions.convolve"],
    "distributions.validate": ["distributions.DiscreteDist.__post_init__"],
    "distributions.family": ["distributions.family_bernoulli", "distributions.family_binomial",
                             "distributions.family_poisson", "distributions.family_geometric"],
    "distributions.certificate": ["distributions.is_log_concave_relative", "distributions.is_log_concave",
                                  "distributions.is_ulc", "distributions.is_ulc_infinity"],
    "distributions.tv": ["distributions.tv_distance"],
    "sums.pmf": ["sums.poisson_binomial_pmf"],
    "sums.target": ["sums.binomial_target", "sums.poisson_target"],
    "sums.closed_form": ["sums.binomial_bound_primary", "sums.binomial_bound_secondary", "sums.poisson_bound"],
    "bounds.certify": ["bounds.certify"],
    "bounds.anchor": ["bounds._best_effort_anchor", "bounds.find_ratio_anchor", "bounds.anchor_at",
                      "bounds._candidate_anchors"],
    "bounds.envelope": ["bounds.tv_bounds_at_anchor"],
    "bounds.matched": ["bounds.tv_bound_matched_anchor"],
    "compound.pmf": ["compound.compound_poisson_pmf", "compound.compound_geometric_pmf"],
    "compound.report": ["compound.geometric_bound_compound_poisson", "compound.geometric_bound_compound_geometric",
                        "compound._matched_report", "compound.log_concave_criterion"],
    "matroids.profile": ["matroids.profile_partition", "matroids.profile_uniform", "matroids.profile_from_set_system",
                         "matroids.enumerate_partition_profile", "matroids.nu_distribution"],
    "matroids.report": ["matroids.matroid_binomial_bound", "matroids.matroid_poisson_bound",
                        "matroids._profile_bound_report", "matroids.partition_half_bound"],
    "intrinsic_volumes.sequence": ["intrinsic_volumes.iv_box", "intrinsic_volumes.iv_cube",
                                   "intrinsic_volumes.iv_ball", "intrinsic_volumes.z_dist"],
    "intrinsic_volumes.report": ["intrinsic_volumes.poisson_iv_bound", "intrinsic_volumes.product_bounds"],
    "continuous.quadrature": ["continuous.tv_gamma_quadrature", "continuous.gamma_density_crossings",
                              "continuous._quad"],
    "continuous.incomplete_gamma": ["continuous.regularized_gamma_p"],
    "continuous.report": ["continuous.gamma_tv_bound_anchored", "continuous.exp_kolmogorov_bound",
                          "continuous.gamma_tv_bound_perturbative"],
    "verify.sweep": ["verify.SUITES[]"],
    "cli.parse": ["cli._build_parser"],
    "cli.runner": ["cli._RUNNERS[]"],
    "cli.emit": ["cli.emit"],
}

# work counted at an entry point: counter(args, result) -> {quantity: n}
COUNTERS = {
    "distributions.convolve": lambda a, r: {"cells": _masses(a[0]) * _masses(a[1])},
    "distributions.family_bernoulli": lambda a, r: {"cells": _masses(r)},
    "distributions.family_binomial": lambda a, r: {"cells": _masses(r)},
    "distributions.family_poisson": lambda a, r: {"cells": _masses(r)},
    "distributions.family_geometric": lambda a, r: {"cells": _masses(r)},
    "distributions.is_log_concave_relative": _window,
    "distributions.is_ulc": lambda a, r: {"cells": len(a[0])},
    "distributions.is_ulc_infinity": lambda a, r: {"cells": len(a[0])},
    "distributions.tv_distance": _window,
    "bounds.certify": lambda a, r: {"not_applicable": int(bool(r.details.get("not_applicable")))},
    "bounds._best_effort_anchor": _anchor_search,
    "bounds._candidate_anchors": lambda a, r: {"candidates": len(r)},
    "bounds.tv_bounds_at_anchor": lambda a, r: {"cells": _masses(a[0]) + _masses(a[1])},
    "verify.SUITES[]": lambda a, r: {"instances": r.instances},
    "cli.emit": lambda a, r: {"bytes": len(r)},
}


# per-layer metric names that are not "<layer>.<quantity>" of Tracer.stats()
ALIASES = {"cli.parse_s": "cli.parse.total_s", "cli.runner_s": "cli.runner.total_s",
           "cli.emit_s": "cli.emit.total_s", "cli.out_bytes": "cli.emit.bytes", "bench.op.wall_s": "bench.op.total_s"}


# the quantities Tracer.stats() reports: span times, raised exceptions and
# the work COUNTERS counts
QUANTITIES = {"calls", "self_s", "total_s", "raised", "cells", "not_applicable", "candidates", "matched_ratio",
              "instances", "bytes"}


# entry points each workload is expected to reach; a zero count is flagged
_PB = {"sums.poisson_binomial_pmf", "distributions.convolve", "distributions.family_bernoulli",
       "distributions.DiscreteDist.__post_init__", "sums.binomial_target", "distributions.family_binomial",
       "bounds.certify", "distributions.tv_distance", "distributions.is_log_concave_relative",
       "bounds._best_effort_anchor", "bounds.find_ratio_anchor", "bounds._candidate_anchors",
       "bounds.tv_bounds_at_anchor", "bounds.tv_bound_matched_anchor", "sums.binomial_bound_primary",
       "sums.binomial_bound_secondary"}
_SMALL = _PB | {
    "sums.poisson_target", "sums.poisson_bound", "distributions.family_poisson", "distributions.family_geometric",
    "distributions.is_log_concave", "distributions.is_ulc", "distributions.is_ulc_infinity",
    "compound.compound_poisson_pmf", "compound.compound_geometric_pmf",
    "compound.geometric_bound_compound_poisson", "compound.geometric_bound_compound_geometric",
    "compound._matched_report", "compound.log_concave_criterion",
    "matroids.profile_partition", "matroids.nu_distribution", "matroids.matroid_binomial_bound",
    "matroids.matroid_poisson_bound", "matroids._profile_bound_report",
    "intrinsic_volumes.iv_box", "intrinsic_volumes.iv_cube", "intrinsic_volumes.z_dist",
    "intrinsic_volumes.poisson_iv_bound", "continuous.gamma_tv_bound_anchored",
    "continuous.tv_gamma_quadrature", "continuous.gamma_density_crossings", "continuous.regularized_gamma_p",
}
_CLI = (_PB - {"sums.binomial_bound_secondary"}) | {
    "cli._build_parser", "argparse.parse_args", "cli.emit", "verify.run_dominance_sweep",
    "sums.poisson_target", "sums.poisson_bound", "matroids.profile_from_set_system",
    "matroids.matroid_binomial_bound", "matroids.matroid_poisson_bound", "intrinsic_volumes.iv_box",
    "intrinsic_volumes.poisson_iv_bound", "compound.geometric_bound_compound_poisson",
    "compound.compound_poisson_pmf", "continuous.gamma_tv_bound_anchored", "continuous.exp_kolmogorov_bound",
} | {f"cli._run_{name.replace('-', '_')}" for name in (
    "pb-binomial", "pb-poisson", "sum-geometric", "matroid", "iv", "compound", "gamma", "expapprox", "verify")}
EXPECTED = {"pb-large": _PB, "exact-rational": _PB, "many-small": _SMALL, "cli-mix": _CLI}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, entry, start, end, parent index, op index]
        self.counts = defaultdict(float)  # "layer.quantity" -> work count
        self.entry_calls = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, entry: str, fn, count=None):
        spans, stack, counts, calls = self.spans, self._stack, self.counts, self.entry_calls

        def traced(*args, **kwargs):
            calls[entry] += 1
            if stack and spans[stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([layer, entry, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[layer + ".raised"] += 1
                    raise
                finally:
                    stack.pop()
                    spans[idx][3] = perf_counter()
            if count is not None:
                for quantity, n in count(args, result).items():
                    counts[f"{layer}.{quantity}"] += n
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self, kind: str):
        """The root span of one op; its self time is what no layer covers."""
        self.op += 1
        self.spans.append(["bench.op", kind, perf_counter(), 0.0, -1, self.op])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][3] = perf_counter()

    def install(self):
        """Rebind every entry point in ``LAYERS`` wherever tvbounds holds it.

        Modules the workload never imported are skipped: it cannot reach them.
        """
        mods = [m for name, m in list(sys.modules.items()) if name == "tvbounds" or name.startswith("tvbounds.")]
        for layer, entries in LAYERS.items():
            for entry in entries:
                count = COUNTERS.get(entry)
                mod_name, attr = entry.split(".", 1)
                module = sys.modules.get("tvbounds." + mod_name)
                if module is None:
                    continue
                if attr.endswith("[]"):
                    table = getattr(module, attr[:-2])
                    for key, fn in list(table.items()):
                        table[key] = self.wrap(layer, f"{mod_name}.{fn.__name__}", fn, count)
                        self._undo.append((table.__setitem__, key, fn))
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(layer, entry, fn, count))
                    self._undo.append((setattr, cls, meth, fn))
                else:
                    original = getattr(module, attr)
                    fn = self._traced_parser(original) if entry == "cli._build_parser" else original
                    wrapper = self.wrap(layer, entry, fn, count)
                    for m in mods:
                        for name, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, name, wrapper)
                                self._undo.append((setattr, m, name, original))

    def _traced_parser(self, build):
        """Parsing happens on the parser that ``_build_parser`` returns."""

        def build_traced():
            parser = build()
            parser.parse_args = self.wrap("cli.parse", "argparse.parse_args", parser.parse_args)
            return parser

        return build_traced

    def uninstall(self):
        for action in reversed(self._undo):
            action[0](*action[1:])
        self._undo.clear()

    # -- aggregation --------------------------------------------------------

    def stats(self) -> dict:
        """Per-layer calls, self and total time, plus the op root spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out = defaultdict(float)
        for i, (layer, _, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += dur - child[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != layer:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                out[layer + ".total_s"] += dur
        out.update(self.counts)
        searches = out.pop("bounds.anchor.searches", 0)
        out["bounds.anchor.matched_ratio"] = out.pop("bounds.anchor.matched", 0) / searches if searches else 0.0
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for layer, entry, start, end, parent, op in self.spans:
                fh.write(json.dumps([layer, entry, round(start, 9), round(end, 9), parent, op]) + "\n")


def layer_metrics(names, stats: dict, measured: dict) -> dict:
    """The values of the per-layer metrics ``names``, taken from ``measured``
    (values timed outside the tracer) or from ``stats``, where a traced layer
    the run did not reach reports 0. A name neither can make is left out, for
    the caller to report."""
    metrics = {}
    for name in names:
        key = ALIASES.get(name, name)
        layer, _, quantity = key.rpartition(".")
        if key in measured:
            metrics[name] = measured[key]
        elif (layer in LAYERS or layer == "bench.op") and quantity in QUANTITIES:
            metrics[name] = stats.get(key, 0.0)
    return metrics
