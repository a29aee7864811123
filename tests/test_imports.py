"""numpy is loaded only by the quantum theories.

A fresh interpreter that loads, classifies and quotients an exact theory
never imports numpy; one that builds a cpsu theory, or calls a
complex-matrix helper, does.  Each case runs in a child process, because
this one has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opcheck

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = str(Path(opcheck.__file__).resolve().parents[1])
CPSU_DOC = json.loads((FIXTURES / "cpsu.theory").read_text())


def _fresh(code):
    """Run ``code`` in a fresh interpreter that imports opcheck from this
    checkout; return the JSON value on its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["mat_bool", "mat_int", "pfun", "stateless",
                                  "substoch"])
def test_exact_theory_never_imports_numpy(name):
    path = str(FIXTURES / f"{name}.theory")
    codes, loaded = _fresh(f"""
import json, sys
from opcheck import cli, theoryfile
theoryfile.load_theory({path!r})
codes = [cli.main(["classify", {path!r}, "--bound", "1"]),
         cli.main(["quotient", {path!r}, "--bound", "1"])]
print(json.dumps([codes, "numpy" in sys.modules]))
""")
    # classify exits 1 when a check fails (mat_bool, mat_int, stateless)
    assert codes[0] in (0, 1) and codes[1] == 0
    assert loaded is False


@pytest.mark.parametrize("code", [
    f"theoryfile.load_theory({str(FIXTURES / 'cpsu.theory')!r})",
    "theoryfile.parse_doc({'format': 'optheory/1', 'kind': 'plus', "
    f"'base': {CPSU_DOC!r}}})",
    "kernel.choi_positivity([[1, 0], [0, 1]])",
], ids=["cpsu", "plus-over-cpsu", "kernel-helper"])
def test_the_quantum_path_imports_numpy(code):
    assert _fresh(f"""
import json, sys
from opcheck import kernel, theoryfile
before = "numpy" in sys.modules
{code}
print(json.dumps([before, "numpy" in sys.modules]))
""") == [False, True]


def test_quantum_theories_are_importable_from_the_package():
    assert _fresh("""
import json
import opcheck.instances
from opcheck.instances import CpsuTheory, FinHilbTheory
from opcheck.instances import cpsu
print(json.dumps([CpsuTheory is cpsu.CpsuTheory,
                  FinHilbTheory is cpsu.FinHilbTheory,
                  hasattr(opcheck.instances, "NoSuchTheory")]))
""") == [True, True, False]


def test_serialized_cpsu_theory_round_trips_in_a_fresh_interpreter():
    path = str(FIXTURES / "cpsu.theory")
    doc, again = _fresh(f"""
import json
from opcheck import theoryfile
doc = theoryfile.serialize_theory(theoryfile.load_theory({path!r}))
again = theoryfile.serialize_theory(theoryfile.parse_doc(doc))
print(json.dumps([doc, again]))
""")
    assert doc == again == CPSU_DOC
