"""The benchmark's workloads: inputs, the timed operation, and verification.

Each workload is what one CLI command does after it has loaded its theory
file.  Inputs are generated from the run's seed: the theory document is
written to a file in the work directory and the seed becomes
``ProbeConfig.seed`` (or the quotient's probe seed).  The program sees only
that file and that config.

Outputs are checked against ``expected.json``, written by hand from the
paper, never from opcheck's own output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from opcheck import checker, theoryfile
from opcheck.constructions import quotient

HERE = os.path.dirname(os.path.abspath(__file__))


def _substoch(grid):
    return {"format": "optheory/1", "kind": "builtin", "name": "substoch",
            "parameters": {"grid": grid}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict
    command: str  # "classify" or "quotient"
    bound: int = 2
    cap: int = checker.DEFAULT_CAP
    samples: int = checker.DEFAULT_SAMPLES

    def config(self, seed):
        return checker.ProbeConfig(bound=self.bound, cap=self.cap,
                                   samples=self.samples, seed=seed)


WORKLOADS = {w.name: w for w in [
    Workload(
        "substoch-classify",
        "exact Fraction kernel: compose/validate_event dominate; grid 4 with "
        "cap 4000 keeps skipped homsets and seeded capped pair scans",
        _substoch(4), "classify", cap=4000),
    Workload(
        "plus-classify",
        "construction layer: every PlusTheory compose re-pairs each row; 0/1 "
        "entries keep the Fraction kernel small",
        {"format": "optheory/1", "kind": "plus", "base": _substoch(1)},
        "classify"),
    Workload(
        "cpsu-classify",
        "numeric sampled path (numpy, tolerance retries, no enumeration): "
        "bypasses exact-kernel and enumeration caching",
        {"format": "optheory/1", "kind": "builtin", "name": "cpsu",
         "parameters": {"tol": 1e-9}},
        "classify", samples=8),
    Workload(
        "quotient-summary",
        "quotient --monoidal on substoch grid 2: ancilla-tensored signatures, "
        "never enters the checker",
        _substoch(2), "quotient"),
]}


def write_inputs(workload, seed, workdir):
    """Write the workload's theory file for ``seed``; return its path."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{workload.name}-seed{seed}.theory")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def setup(workload, path, seed):
    """Load the theory file and build any construction (the set-up step)."""
    theory = theoryfile.load_theory(path)
    if workload.command == "quotient":
        return quotient(theory, bound=workload.bound, cap=workload.cap,
                        seed=seed, monoidal=True)
    return theory


def render_json(doc):
    """The CLI's ``--format json`` rendering."""
    return json.dumps(doc, indent=2, sort_keys=True)


def operate(workload, subject, seed):
    """The operation the CLI command performs after loading; returns the
    rendered JSON text."""
    cfg = workload.config(seed)
    if workload.command == "classify":
        return render_json(checker.classify(subject, cfg).to_json())
    # the class_counts / is_separated loop of ``opcheck quotient``
    base = subject.base
    probes = base.probe_objects(workload.bound)
    counts = {}
    separated = True
    for a in probes:
        for b in probes:
            key = f"{base.object_str(a)} -> {base.object_str(b)}"
            counts[key] = subject.class_counts(a, b)
            if not subject.is_separated(a, b):
                separated = False
    return render_json({"format": "opcheck/1", "theory": base.name,
                        "config": cfg.to_json(),
                        "quotient": {"class_counts": counts,
                                     "separated": separated,
                                     "monoidal": True}})


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def operation_count(workload, expected):
    """Operations in one sample: every check and flag of a classification,
    or every probe homset of a quotient summary and its separation verdict."""
    exp = expected[workload.name]
    if workload.command == "classify":
        return len(exp["checks"]) + len(exp["flags"])
    return len(exp["classes"]) + 1


def verify(workload, doc, expected):
    """Compare one parsed output document with the expected file.

    Returns the list of failed operations, each a short description.
    """
    exp = expected[workload.name]
    bad = []
    if workload.command == "classify":
        verdicts = {c["id"]: c["verdict"] for c in doc["checks"]}
        for cid, want in exp["checks"].items():
            got = verdicts.get(cid)
            if want != "holds" or got is None or not got.startswith("holds-"):
                bad.append(f"check {cid}: {got} (expected {want})")
        for flag, want in exp["flags"].items():
            got = doc["flags"].get(flag)
            if got is False or got != want:
                bad.append(f"flag {flag}: {got} (expected {want})")
        return bad
    got = doc["quotient"]["class_counts"]
    for key, n in exp["classes"].items():
        if got.get(key) != [exp["class_size"]] * n:
            bad.append(f"homset {key}: classes {got.get(key)} "
                       f"(expected {n} of size {exp['class_size']})")
    if doc["quotient"]["separated"] is not exp["separated"]:
        bad.append(f"separated: {doc['quotient']['separated']}")
    return bad


def report_counts(doc):
    """Per-check instance counts, skipped homsets and capped scans of a
    classification document (empty for a quotient summary)."""
    checks = doc.get("checks", [])
    return ({c["id"]: c["instances"] for c in checks},
            sum(len(c.get("skipped", ())) for c in checks),
            sum("pair-scan-capped" in c.get("notes", ()) for c in checks))
