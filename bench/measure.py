"""The sampling loop of one benchmark run: timing, verification, tracing."""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import traceback

import spans
import workloads


class Run:
    """Samples of one workload: timings, verification and traced layers."""

    def __init__(self, workload, path, seed):
        self.workload = workload
        self.path = path
        self.seed = seed
        self.expected = workloads.load_expected()
        self.per_sample = workloads.operation_count(workload, self.expected)
        self.walls = []
        self.setups = []       # set-up probe seconds
        self.traced_walls = []
        self.layers = []       # per traced sample: metric -> value
        self.first_tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = set()

    def sample(self, tracer=None):
        """Load, then time one operation; False when it raised."""
        gc.collect()
        try:
            if tracer:
                tracer.install_modules()
            subject = workloads.setup(self.workload, self.path, self.seed)
            if tracer:
                tracer.install_subject(subject)
            t0 = time.perf_counter()
            text = workloads.operate(self.workload, subject, self.seed)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.attempted += self.per_sample
            self.failed += self.per_sample
            self.problems.append("operation raised")
            return False
        finally:
            if tracer:
                tracer.uninstall()
        doc = json.loads(text)
        bad = workloads.verify(self.workload, doc, self.expected)
        self.attempted += self.per_sample
        self.failed += len(bad)
        self.problems += bad
        self.outputs.add(hashlib.sha256(text.encode()).hexdigest())
        if tracer is None:
            self.walls.append(wall)
            return True
        self.traced_walls.append(wall)
        metrics = tracer.metrics()
        instances, skipped, capped = workloads.report_counts(doc)
        for cid in workloads.checker.CHECK_IDS:
            metrics[f"checker.{cid}.instances"] = instances.get(cid, 0)
        metrics["checker.homsets_skipped"] = skipped
        metrics["checker.scans_capped"] = capped
        self.layers.append(metrics)
        self.first_tracer = self.first_tracer or tracer
        return True

    def loop(self, seconds, trace, probes=0, setup_probe=None):
        """Sample for about ``seconds``; with ``trace`` alternate untraced
        and traced samples, starting untraced.

        The loop stops when less than half a sample's time is left, so a
        run ends within half a sample of ``seconds``.  ``setup_probe`` is
        called ``probes`` times, spread evenly over the run, so that set-up
        and wall times are taken from the same stretch of machine time.
        """
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            due = probes * (time.perf_counter() - start) / seconds
            while len(self.setups) < min(probes, due):
                self.setups.append(setup_probe())
            traced = trace and len(self.traced_walls) < len(self.walls)
            t0 = time.perf_counter()
            if not self.sample(spans.Tracer() if traced else None):
                break
            now = time.perf_counter()
            if (deadline - now < (now - t0) / 2
                    and (not trace or self.traced_walls)):
                break
        while len(self.setups) < probes:
            self.setups.append(setup_probe())
        if len(self.outputs) > 1:
            self.problems.append(
                f"{len(self.outputs)} different outputs for one seed")

    def end_to_end(self, peak_rss_mb):
        return {"setup_s": {"value": statistics.median(self.setups),
                            "unit": "s"},
                "wall_s": {"value": statistics.median(self.walls), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    def per_layer(self):
        """Per-layer metrics: times are medians over traced samples, counts
        must repeat exactly across them."""
        out = {}
        for name, unit, _ in spans.per_layer_metrics():
            if name == "trace.overhead_ratio":
                out[name] = (statistics.median(self.traced_walls)
                             / statistics.median(self.walls))
                continue
            values = [m[name] for m in self.layers]
            if unit == "s":
                out[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                self.problems.append(
                    f"{name} differs between traced samples: {values}")
            out[name] = values[0]
        return {name: {"value": out[name], "unit": unit}
                for name, unit, _ in spans.per_layer_metrics()}
