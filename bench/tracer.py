"""Outside-in tracer: spans and counters around the public functions of eistheta.

Nothing in ``src/`` knows about it.  ``Tracer.install`` replaces each target
function by a wrapper in every ``eistheta`` module that holds it: a module
that did ``from .x import f`` has its own binding of ``f``, so wrapping the
defining module alone would miss those calls.  Recursion through a module
global goes through the wrapper too and shows up as nested spans.

Each call of a span target records (span id, parent id, name, start, end,
counters) in memory; ``write`` dumps them as JSON lines with the run id.
Hot leaves are counted, not timed: their wrapper adds one to a counter of
the innermost open span, so counts land at the same boundaries as spans.

Self time of a span is its duration minus the part of it covered by its
child spans; ``layer_metrics`` sums it per name into ``<name>.self_s``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict

NS = 1e-9


# (target, kind, counter, measure).  kind "span" records a span per call and,
# when a counter is named, stores measure(args, result) in it; layer_metrics
# sums counters over spans, or takes the maximum of "max_" ones.  kind
# "count" only counts calls.  A class target is timed as a span around its
# __post_init__, i.e. every construction.
TARGETS = (
    ("exactnum.bernoulli", "span", "max_index", lambda a, r: a[0]),
    ("exactnum.gen_bernoulli", "span", None, None),
    ("exactnum.cohen_H", "count", None, None),
    ("lattice.enumerate_classes", "span", "classes", lambda a, r: len(r)),
    ("lattice.short_vectors", "span", "vectors", lambda a, r: len(r)),
    ("lattice.minkowski_reduce", "span", None, None),
    ("lattice.enumerate_psd_indices", "span", None, None),
    ("lattice.automorphism_count", "count", None, None),
    ("linalg.bareiss_det", "count", None, None),
    ("linalg.adjugate", "count", None, None),
    ("genus.build_genera", "span", None, None),
    ("genus.write_json_atomic", "span", None, None),
    ("genus.cached_genera", "span", None, None),
    ("genus.genera_from_doc", "span", None, None),
    ("genus.same_genus", "count", None, None),
    ("theta.theta_series", "span", "coeffs", lambda a, r: len(r.coeffs)),
    ("eisenstein.eisenstein_qexp", "span", "coeffs", lambda a, r: len(r.coeffs)),
    ("fourier.QExpansion", "span", "constructions", lambda a, r: 1),
    ("fourier.u_p", "span", None, None),
    ("fourier.qexp_add", "span", None, None),
    ("fourier.qexp_scale", "span", None, None),
    ("fourier.mod_pm_singular_rank", "span", None, None),
    ("localdensity.local_density_coeff", "span", None, None),
    ("padic.fit_and_verify", "span", None, None),
    ("padic.singular_rank_audit", "span", None, None),
    ("padic.primitive_density_coeff", "span", None, None),
    ("cli.main", "span", None, None),
)

ROOT = "trace.root"


def eistheta_modules():
    """Every loaded module of the eistheta package, the package included."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "eistheta" or name.startswith("eistheta."))
    ]


class Tracer:
    """Spans and counters of one run, kept in memory until ``write``."""

    def __init__(self, clock=time.perf_counter_ns, run_id=None):
        self.clock = clock
        self.run_id = run_id or f"{os.getpid()}-{time.time_ns()}"
        self.spans = []  # (span id, parent id, name, start, end, counters)
        self._ids = itertools.count(1)
        self._root = [0, {}]  # id and counters of the implicit root span
        self._stack = [self._root]
        self._rebound = []  # (owner, attribute, original value)
        self._start = None

    # -------------------------------------------------------------- wrappers

    def span(self, name, fn, counter=None, measure=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self.clock

        def traced(*args, **kwargs):
            frame = [next(ids), {}]
            parent = stack[-1][0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((frame[0], parent, name, start, end, frame[1]))
            if counter is not None:
                frame[1][counter] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        """``fn`` wrapped so that each call adds one to ``name`` in the open span."""
        stack = self._stack

        def counted(*args, **kwargs):
            counts = stack[-1][1]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------- rebinding

    def install(self, targets=TARGETS, modules=None, package="eistheta"):
        """Wrap every target; ``modules`` defaults to all loaded eistheta modules."""
        replace = {}  # id(original) -> (original, wrapper)
        for qualname, kind, counter, measure in targets:
            mod_name, attr = qualname.rsplit(".", 1)
            owner = importlib.import_module(f"{package}.{mod_name}")
            fn = getattr(owner, attr)
            if isinstance(fn, type):
                cls, method = fn, fn.__post_init__
                wrapped = self.span(qualname, method, counter, measure)
                self._rebind(cls, "__post_init__", method, wrapped)
            elif kind == "span":
                replace[id(fn)] = (fn, self.span(qualname, fn, counter, measure))
            else:
                replace[id(fn)] = (fn, self.count(qualname, fn))
        if modules is None:
            modules = eistheta_modules()
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])
        self._start = self.clock()

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self):
        """Put every original binding back and close the root span."""
        end = self.clock()
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)
        if self._start is not None:
            self.spans.append((0, None, ROOT, self._start, end, self._root[1]))
            self._start = None

    def records(self):
        """The spans recorded so far, as the dicts ``write`` emits."""
        return [
            {"run": self.run_id, "span": sid, "parent": parent, "name": name,
             "start_ns": start, "end_ns": end, "counters": counts}
            for sid, parent, name, start, end, counts in self.spans
        ]

    def write(self, path):
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record))
                fh.write("\n")


# ------------------------------------------------------------------ analysis


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: duration minus the part covered by its child spans} in ns."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {
        s["span"]: (s["end_ns"] - s["start_ns"])
        - _covered(kids[s["span"]], s["start_ns"], s["end_ns"])
        for s in spans
    }


def layer_metrics(spans):
    """Per-name totals: ``.self_s``, ``.calls`` and each counter.

    A counter whose key contains a dot was left by a counted leaf and is
    reported as ``<leaf>.calls``; the others belong to the span's own name.
    """
    own = self_times(spans)
    out = defaultdict(int)
    for s in spans:
        name = s["name"]
        out[f"{name}.self_s"] += own[s["span"]] * NS
        out[f"{name}.calls"] += 1
        for key, value in s["counters"].items():
            if "." in key:
                out[f"{key}.calls"] += value
            elif key.startswith("max_"):
                out[f"{name}.{key}"] = max(out[f"{name}.{key}"], value)
            else:
                out[f"{name}.{key}"] += value
    return dict(out)
