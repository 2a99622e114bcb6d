"""Spans and counters recorded from outside qtlab.

`Tracer.install()` replaces the public entry points of each qtlab module by
wrappers that record a span (name, start, end, parent span) or bump a
counter, and rebinds every name under which another qtlab module imported the
same function (``from .metric_graph import hyperbolicity_delta`` in `cli` and
`group_action`, ``realized_elements`` in `products`, ...).  Nothing inside the
package changes; spans stay in memory until `dump()` writes them out.

Self time of a span is its duration minus the time its child spans cover.
Peak memory is taken with `tracemalloc`, which runs only inside the spans
that report a peak (constructions and APSP), so the rest of the traced run
pays no allocation tracing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

# module -> public functions that get a span.  Classes are handled apart
# (their __init__ is wrapped in place).
SPANNED = {
    "qtlab.cli": ["main"],
    "qtlab.io": ["load_graph", "load_action", "save_graph", "save_action"],
    "qtlab.constructions": [
        "path_graph", "cycle_graph", "grid_graph", "star_graph", "regular_tree",
        "rips_graph", "c6_chain", "c30_chain", "coset_tree", "cayley_graph",
        "farey_graph", "bass_serre_tree_bs12", "cone_graph", "double_line_graph",
        "horoball"],
    "qtlab.metric_graph": ["hyperbolicity_delta", "bottleneck_constant",
                           "is_quasitree", "enumerate_geodesics", "ends_profile"],
    "qtlab._kernels": ["apsp", "delta_scan", "bottleneck_center"],
    "qtlab.group_action": [
        "word_map", "orbit", "check_locally_finite_orbit", "rips_orbit_graph",
        "connectivity_radius", "stable_translation_length",
        "tree_translation_length", "classify_isometry", "serre_elliptic_test",
        "busemann_homomorphism", "realized_elements", "properness_profiles",
        "orbit_quasiconvexity", "classify_action_type"],
    "qtlab.products": ["product_distance", "product_skeleton",
                       "l1_geodesic_uniqueness", "factor_preservation_check",
                       "product_action", "distortion_profile"],
    "qtlab.leary_minasyan": ["conjugation_exponents", "gaussian_power_check",
                             "lm_obstruction_check",
                             "fit_translation_homomorphism", "seminorm_audit"],
}
# called too often for a span each; counted only
COUNTED = {"qtlab.group_action": ["evaluate_word"]}
# spans whose tracemalloc peak is reported
PEAK_SPANS = ("constructions.", "kernels.apsp")


def _short(module: str, name: str) -> str:
    """Span name: module without the package (and without a leading
    underscore, which metric names may not have) plus function name."""
    return module.split(".", 1)[1].lstrip("_") + "." + name


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent_index, peak_bytes, phase]
        self.spans = []
        self.counters = {}     # phase -> {name: count}
        self.phase = "setup"
        self._stack = []
        self._peaks = []       # open peak spans: [span index, base bytes, peak bytes, outermost]
        self._installed = []

    # -- recording -----------------------------------------------------------

    def count(self, name, k=1):
        c = self.counters.setdefault(self.phase, {})
        c[name] = c.get(name, 0) + k

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0, 0, parent, 0, self.phase])
        self._stack.append(idx)
        if name.startswith(PEAK_SPANS):
            outermost = not tracemalloc.is_tracing()
            if outermost:
                tracemalloc.start()
            elif self._peaks:
                # fold the enclosing span's peak so far in before resetting it
                self._peaks[-1][2] = max(self._peaks[-1][2], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            cur = tracemalloc.get_traced_memory()[0]
            self._peaks.append([idx, cur, cur, outermost])
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()
        if self._peaks and self._peaks[-1][0] == idx:
            _, base, peak, outermost = self._peaks.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.spans[idx][4] = max(0, peak - base)
            if self._peaks:
                self._peaks[-1][2] = max(self._peaks[-1][2], peak)
                tracemalloc.reset_peak()
            if outermost:
                tracemalloc.stop()

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if not (modname == "qtlab" or modname.startswith("qtlab.")) or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._installed.append((mod, attr, orig))

    def install(self):
        import qtlab.cli  # noqa: F401  (loads every module that gets wrapped)
        import qtlab.group_action as ga
        import qtlab.metric_graph as mg

        for modname, names in SPANNED.items():
            mod = sys.modules[modname]
            for name in names:
                orig = getattr(mod, name)
                self._rebind(orig, self._wrap(orig, _short(modname, name), _AFTER.get(name)))
        for modname, names in COUNTED.items():
            mod = sys.modules[modname]
            for name in names:
                orig = getattr(mod, name)
                key = _short(modname, name) + "_calls"

                def counted(*args, _orig=orig, _key=key, **kwargs):
                    self.count(_key)
                    return _orig(*args, **kwargs)

                self._rebind(orig, counted)
        for cls, name in ((mg.MetricGraph, "metric_graph.MetricGraph.__init__"),
                          (ga.GroupAction, "group_action.GroupAction.__init__")):
            orig = cls.__init__
            cls.__init__ = self._wrap(orig, name)
            self._installed.append((cls, "__init__", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []

    # -- summaries -------------------------------------------------------------

    def totals(self, phase):
        """name -> [calls, total_ns, self_ns, max_peak_bytes] over one phase."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, peak, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child_ns[i]
            row[3] = max(row[3], peak)
        return out

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "counters": self.counters,
                   "totals": {ph: self.totals(ph) for ph in ("setup", "timed")}}
        if extra:
            payload.update(extra)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# counters taken from arguments and results --------------------------------------


def _after_apsp(tr, args, kwargs, out):
    tr.count("apsp_pairs", int(args[2]) ** 2)


def _after_delta(tr, args, kwargs, out):
    tr.count("delta_quadruples", int(args[0].shape[0]) ** 4)


def _after_bottleneck_center(tr, args, kwargs, out):
    c_lo, c_hi = int(args[4]), int(args[5])
    tr.count("bottleneck_levels", max(0, c_hi - c_lo + 1))
    if int(out[0]) > c_lo:
        tr.count("bottleneck_raises")


def _after_realized(tr, args, kwargs, out):
    a = args[0]
    horizon = args[1] if len(args) > 1 else kwargs["horizon"]
    expanded = sum(1 for el in out if el.depth < horizon)
    tr.count("realized_candidates", expanded * 2 * len(a.generators))


def _after_load(tr, args, kwargs, out):
    tr.count("io_bytes_read", os.path.getsize(args[0]))


_AFTER = {
    "apsp": _after_apsp,
    "delta_scan": _after_delta,
    "bottleneck_center": _after_bottleneck_center,
    "realized_elements": _after_realized,
    "load_graph": _after_load,
    "load_action": _after_load,
}


def layer_metrics(tracer: Tracer, rounds: int):
    """The per-layer metrics of one set-up plus one timed round.

    Times and counts of the timed phase are divided by the number of rounds
    and added to those of the set-up phase, which runs once.  Ratios are
    taken over these sums, and peaks are maxima over both phases."""
    T = {}
    for phase, scale in (("setup", 1.0), ("timed", 1.0 / rounds)):
        for name, row in tracer.totals(phase).items():
            acc = T.setdefault(name, [0.0, 0.0, 0.0, 0])
            for k in range(3):
                acc[k] += row[k] * scale
            acc[3] = max(acc[3], row[3])
    C = {}
    for phase, scale in (("setup", 1.0), ("timed", 1.0 / rounds)):
        for name, v in tracer.counters.get(phase, {}).items():
            C[name] = C.get(name, 0.0) + v * scale
    s = 1e-9

    def tot(name):
        return T.get(name, [0.0, 0.0, 0.0, 0])

    def self_s(*names):
        return sum(tot(n)[2] for n in names) * s

    def total_s(*names):
        return sum(tot(n)[1] for n in names) * s

    def calls(*names):
        return sum(tot(n)[0] for n in names)

    def peak_mb(prefix):
        return max([row[3] for name, row in T.items() if name.startswith(prefix)] or [0]) / 2 ** 20

    cons = [_short("qtlab.constructions", n) for n in SPANNED["qtlab.constructions"]]
    delta_s = total_s("kernels.delta_scan")
    realized_s = total_s("group_action.realized_elements")
    centers = calls("kernels.bottleneck_center")
    m = {
        "cli.self_s": (self_s("cli.main"), "s"),
        "io.load_s": (self_s("io.load_graph", "io.load_action"), "s"),
        "io.bytes_read": (C.get("io_bytes_read", 0), "B"),
        "io.save_s": (total_s("io.save_graph", "io.save_action"), "s"),
        "constructions.build_s": (self_s(*cons), "s"),
        "constructions.peak_mb": (peak_mb("constructions."), "MB"),
        "metric_graph.build_s": (self_s("metric_graph.MetricGraph.__init__"), "s"),
        "metric_graph.builds": (calls("metric_graph.MetricGraph.__init__"), "count"),
        "metric_graph.delta_self_s": (self_s("metric_graph.hyperbolicity_delta"), "s"),
        "metric_graph.bottleneck_self_s": (self_s("metric_graph.bottleneck_constant"), "s"),
        "kernels.apsp_s": (total_s("kernels.apsp"), "s"),
        "kernels.apsp_pairs": (C.get("apsp_pairs", 0), "count"),
        "kernels.apsp_peak_mb": (peak_mb("kernels.apsp"), "MB"),
        "kernels.delta_scan_s": (delta_s, "s"),
        "kernels.delta_quadruples_per_s": (
            C.get("delta_quadruples", 0) / delta_s if delta_s > 0 else 0.0, "1/s"),
        "kernels.bottleneck_center_s": (total_s("kernels.bottleneck_center"), "s"),
        "kernels.bottleneck_centers": (calls("kernels.bottleneck_center"), "count"),
        "kernels.bottleneck_levels": (C.get("bottleneck_levels", 0), "count"),
        "kernels.bottleneck_raise_ratio": (
            C.get("bottleneck_raises", 0) / centers if centers else 0.0, "ratio"),
        "group_action.action_init_s": (total_s("group_action.GroupAction.__init__"), "s"),
        "group_action.realized_s": (realized_s, "s"),
        "group_action.realized_candidates_per_s": (
            C.get("realized_candidates", 0) / realized_s if realized_s > 0 else 0.0,
            "1/s"),
        "group_action.word_map_s": (total_s("group_action.word_map"), "s"),
        "group_action.evaluate_word_calls": (C.get("group_action.evaluate_word_calls", 0),
                                             "count"),
        "group_action.orbit_s": (total_s("group_action.orbit"), "s"),
        "group_action.classify_s": (self_s("group_action.classify_isometry",
                                           "group_action.classify_action_type"), "s"),
        "group_action.properness_self_s": (self_s("group_action.properness_profiles"), "s"),
        "group_action.rips_orbit_self_s": (self_s("group_action.rips_orbit_graph"), "s"),
        "products.distortion_self_s": (self_s("products.distortion_profile"), "s"),
        "products.product_action_s": (total_s("products.product_action"), "s"),
        "leary_minasyan.obstruction_s": (total_s("leary_minasyan.lm_obstruction_check"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
