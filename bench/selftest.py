"""Self-test of the benchmark itself.

For each workload it runs ``run.py`` twice with ``--trace 1`` and the same
seed, in separate processes, and requires every count-like per-layer metric
(``.calls``, ``.instances``, the skip/cap counts and the ratios other than
``trace.overhead_ratio``) to repeat exactly.  It also runs ``--trace 0``
once and requires both modes to print exactly the metrics that
``BENCHMARK.json`` declares, with their units.  Every run must be correct.

    python3 bench/selftest.py [--workload NAME] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: run failed "
                         f"(exit {done.returncode})\n{done.stderr}")
    return result["metrics"]


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        untraced = _run(workload, args.seed, 0)
        first = _run(workload, args.seed, 1)
        second = _run(workload, args.seed, 1)
        for metrics, key in ((untraced, "end_to_end"), (first, "per_layer")):
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != _declared(spec, key):
                problems.append(f"{workload}: metrics differ from the "
                                f"{key} list in BENCHMARK.json")
        counts = [name for name, m in first.items()
                  if m["unit"] != "s" and name != "trace.overhead_ratio"]
        for name in counts:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} then {b}")
        print(f"{workload}: {len(counts)} count metrics compared", flush=True)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
