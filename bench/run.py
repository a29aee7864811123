"""opcheck benchmark: one workload per process, checked against expected.json.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: median over fresh processes, run one at a time between the
  samples, of importing opcheck, loading the generated theory file and
  building any construction;
- ``wall_s``: median wall time of the operation the CLI command performs
  after loading, each sample on a freshly loaded theory so caches start
  cold;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (see ``spans.py``).  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any operation failed.  The workloads, their reasons and the metric-to-layer
map are in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
# set-up is a cold import, so each sample needs a fresh interpreter
SETUP_REPEATS = 11
# numpy's BLAS starts a helper thread per core at import; the workloads'
# matrices are too small to use it, so every process of a run is kept to
# one thread
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name from workloads.py")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="THEORY_FILE",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(name, path, seed):
    """Child process: time a cold import, load and construction."""
    t0 = time.perf_counter()
    import workloads
    workloads.setup(workloads.WORKLOADS[name], path, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _probe_setup(name, path, seed):
    """One set-up probe in a fresh interpreter; returns its seconds."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe", path],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _print_metric(name, value, unit):
    print(f"{name:52s} {value:>14.6g} {unit}")


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "opcheck", "__init__.py")):
        print(f"error: no opcheck sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    # opcheck is imported only from here on, so that a set-up probe times
    # its import
    if args.setup_probe:
        return _setup_probe(args.workload, args.setup_probe, args.seed)
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    path = workloads.write_inputs(workload, args.seed, WORKDIR)
    print(f"workload {workload.name}: {workload.why}")
    run = measure.Run(workload, path, args.seed)
    if args.trace:
        run.loop(args.seconds, True)
    else:
        run.loop(args.seconds, False, SETUP_REPEATS, lambda: _probe_setup(
            workload.name, path, args.seed))

    if not run.walls or (args.trace and not run.layers):
        metrics = {}
    elif args.trace:
        metrics = run.per_layer()
        wall = run.traced_walls[0]
        layers = run.first_tracer.layer_self_seconds()
        for layer, s in sorted(layers.items()):
            print(f"self time {layer:14s} {s:9.4f} s "
                  f"({100 * s / wall:5.1f}% of traced wall)")
        print(f"self time {'(no span)':14s} {wall - sum(layers.values()):9.4f} s")
        os.makedirs(WORKDIR, exist_ok=True)
        run.first_tracer.dump(os.path.join(
            WORKDIR, f"{workload.name}-seed{args.seed}.spans.npz"))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = run.end_to_end(peak_mb)
        print(f"wall_s is the median of {len(run.walls)} samples (min "
              f"{min(run.walls):.4f} s, max {max(run.walls):.4f} s); "
              f"setup_s of {len(run.setups)}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    _print_metric("ops_failed_ratio", ratio, "ratio")
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
