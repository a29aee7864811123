"""Tracing for the benchmark's per-layer run.

The tracer wraps public functions at opcheck's module boundaries from the
outside, touching no source file: module functions are replaced on their
module for the length of one sample, and theory methods are shadowed by
attributes on the freshly loaded theory object.  Every wrapped call becomes
a span (name, start, end, parent) kept in memory and written out at the
end.  A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children nest inside parents.

The semiring ``add``/``mul`` hooks are plain counters, not spans: they run
about a million times per classification, and the traced run reports what
all of this costs as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import itertools
import time
from array import array

from opcheck import checker, kernel, ops, theoryfile
from opcheck.constructions import PlusTheory, QuotientTheory

import workloads

# Which functions are wrapped, per layer.  The per-layer metric list below
# is derived from these tuples, so the two cannot drift apart.
INSTANCE_OPS = ("compose", "try_pairing", "equal", "enumerate_hom",
                "sample_hom", "tensor")
PLUS_OPS = ("compose", "try_pairing", "equal", "enumerate_hom")
QUOTIENT_OPS = ("signature", "classes")
MODULE_SPANS = [
    (ops, "ops", ("coarse_grain", "coarse_grain_all", "total_extension",
                  "complement_effect", "projection", "is_total")),
    (kernel, "kernel", ("choi_positivity", "min_eigenvalue")),
]
RATIOS = ("instances.try_pairing.hit_ratio",
          "instances.enumerate_hom.distinct_ratio",
          "instances.compose.distinct_ratio")


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for cid in checker.CHECK_IDS:
        out.append((f"checker.{cid}.s", "s", "lower"))
        out.append((f"checker.{cid}.instances", "count", "higher"))
    out.append(("checker.homsets_skipped", "count", "lower"))
    out.append(("checker.scans_capped", "count", "lower"))
    groups = [("instances", INSTANCE_OPS),
              ("constructions.PlusTheory", PLUS_OPS),
              ("constructions.QuotientTheory", QUOTIENT_OPS)]
    groups += [(layer, names) for _, layer, names in MODULE_SPANS]
    for prefix, names in groups:
        for fn in names:
            out.append((f"{prefix}.{fn}.calls", "count", "lower"))
            out.append((f"{prefix}.{fn}.self_s", "s", "lower"))
    out += [(name, "ratio", "higher") for name in RATIOS]
    out.append(("kernel.add.calls", "count", "lower"))
    out.append(("kernel.mul.calls", "count", "lower"))
    out.append(("theoryfile.load_theory.s", "s", "lower"))
    out.append(("cli.render_json.s", "s", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Spans of one traced sample, with per-name call counts and times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.counts = {}
        self._stack = []
        self._patches = []
        self._distinct = {}
        self._origin = time.perf_counter()

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def span(self, name, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        nid = self._nid(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(starts), 0.0]
            names.append(nid)
            parents.append(parent[0] if parent else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                starts[frame[0]] = t0
                ends[frame[0]] = t1
                calls[nid] += 1
                total_s[nid] += d
                self_s[nid] += d - frame[1]
                if parent:
                    parent[1] += d
        return traced

    def _patch(self, obj, attr, new):
        own = vars(obj)
        self._patches.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, had, old in reversed(self._patches):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._patches.clear()

    # -- installation ------------------------------------------------------
    def install_modules(self):
        """Wrap the module-level boundaries: the checker's per-check entry,
        derived ops, kernel helpers, file loading and JSON rendering."""
        run_check = checker.run_check

        def traced_run_check(theory, cfg, check_id):
            return self.span(f"checker.{check_id}", run_check)(
                theory, cfg, check_id)
        self._patch(checker, "run_check", traced_run_check)
        for module, layer, names in MODULE_SPANS:
            for fn in names:
                self._patch(module, fn,
                            self.span(f"{layer}.{fn}", getattr(module, fn)))
        self._patch(theoryfile, "load_theory",
                    self.span("theoryfile.load_theory", theoryfile.load_theory))
        self._patch(workloads, "render_json",
                    self.span("cli.render_json", workloads.render_json))

    def install_subject(self, subject):
        """Wrap the methods of a loaded theory: the construction's own
        methods, and the instance methods of the theory underneath it."""
        instance = subject
        if isinstance(subject, PlusTheory):
            self._wrap_methods(subject, "constructions.PlusTheory", PLUS_OPS)
            instance = subject.base
        elif isinstance(subject, QuotientTheory):
            self._wrap_methods(subject, "constructions.QuotientTheory",
                               QUOTIENT_OPS)
            instance = subject.base
        self._wrap_methods(instance, "instances", INSTANCE_OPS)
        self._observe_instance(instance)
        semiring = getattr(instance, "semiring", None)
        if semiring is not None:
            for op in ("add", "mul"):
                self._patch(semiring, op,
                            self._counted(f"kernel.{op}.calls",
                                          getattr(semiring, op)))

    def _wrap_methods(self, obj, prefix, names):
        for fn in names:
            self._patch(obj, fn, self.span(f"{prefix}.{fn}", getattr(obj, fn)))

    def _counted(self, name, fn):
        counter = itertools.count()
        self.counts[name] = counter
        step = next

        def counted(a, b):
            step(counter)
            return fn(a, b)
        return counted

    def _observe_instance(self, th):
        """Useful-vs-attempt hooks, outside the spans they observe."""
        pairing = th.try_pairing
        hits = self.counts["instances.try_pairing.hits"] = itertools.count()

        def try_pairing(events):
            out = pairing(events)
            if out is not None:
                next(hits)
            return out
        self._patch(th, "try_pairing", try_pairing)

        enumerate_hom = th.enumerate_hom
        homsets = self._distinct["instances.enumerate_hom"] = set()

        def enumerate_hom_observed(a, b, cap=None):
            homsets.add((a, b))
            return enumerate_hom(a, b, cap)
        self._patch(th, "enumerate_hom", enumerate_hom_observed)

        if th.tol is not None:
            return  # tolerance-based payloads have no exact key to count by
        compose = th.compose
        key = th.morphism_key
        pairs = self._distinct["instances.compose"] = set()

        def compose_observed(g, f):
            pairs.add((key(g), key(f)))
            return compose(g, f)
        self._patch(th, "compose", compose_observed)

    # -- results -----------------------------------------------------------
    def metrics(self):
        """Per-layer metrics measured by the spans and hooks of this sample.

        Reading a hook counter advances it, so call this once per tracer.
        """
        by_name = {n: i for i, n in enumerate(self.names)}
        counts = {name: next(c) for name, c in self.counts.items()}

        def calls(span):
            return self.calls[by_name[span]] if span in by_name else 0

        def seconds(span, table):
            return table[by_name[span]] if span in by_name else 0.0

        out = {}
        for name, unit, _ in per_layer_metrics():
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = counts[name] if name in counts else calls(span)
            elif field == "self_s":
                out[name] = seconds(span, self.self_s)
            elif field == "s":
                out[name] = seconds(span, self.total_s)
        tried = calls("instances.try_pairing")
        out["instances.try_pairing.hit_ratio"] = (
            counts["instances.try_pairing.hits"] / tried if tried else 0.0)
        for span in ("instances.enumerate_hom", "instances.compose"):
            seen, n = self._distinct.get(span), calls(span)
            out[f"{span}.distinct_ratio"] = len(seen) / n if seen and n else 0.0
        return out

    def layer_self_seconds(self):
        """Self time summed per layer (the name's first component)."""
        layers = {}
        for name, s in zip(self.names, self.self_s):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s
        return layers

    def dump(self, path):
        """Write the spans as a compressed numpy archive."""
        # imported here: importing numpy ahead of opcheck raised the peak
        # RSS of untraced runs by about 1.6 MB
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - self._origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - self._origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int32))

