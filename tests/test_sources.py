"""The sources themselves: every module compiles without a warning, no
module under the package or the tests imports a name it never uses, only
the quantum theories import numpy when the package is loaded, homsets are
enumerated and kept in one place, checks end at their first
counterexample by raising, not by a ``return`` written by hand, a check
does not decide again the merges that a scan hands it, and the failures
that give no replayable witness do not grow in number.

``compile`` reads the source afresh, so an invalid escape sequence or a
similar slip is caught even where a cached ``.pyc`` would hide it.
"""

import ast
import warnings
from pathlib import Path

import opcheck

PACKAGE = Path(opcheck.__file__).parent
TESTS = Path(__file__).parent


def test_every_module_compiles_without_warnings():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    failures = []
    for path in modules:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except (SyntaxError, Warning) as exc:
                failures.append(f"{path.relative_to(PACKAGE)}: {exc}")
    assert not failures, failures


def _unused_imports(path):
    """The names that ``path`` imports and never reads; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_module_has_an_unused_import():
    modules = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    failures = {f"{path.parent.name}/{path.name}": unused for path in modules
                if (unused := _unused_imports(path))}
    assert not failures, failures


def _load_time_imports(path):
    """``(line, name)`` for each name that ``path`` imports when it is
    itself imported, as an absolute dotted name (``module.name`` for a
    ``from`` import); imports inside a function body are left out."""
    package = list(path.relative_to(PACKAGE.parent).parts[:-1])
    found = []
    stack = [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level:
                base = package[:len(package) - node.level + 1] + base
            found += [(node.lineno, ".".join(base + [alias.name]))
                      for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_only_the_quantum_theories_import_numpy_at_load_time():
    """Loading an exact theory must not pay for numpy: only
    ``instances/cpsu.py`` imports it at module level, and no module imports
    that one (or the names the package resolves from it) at module level."""
    cpsu = ("opcheck.instances.cpsu", "opcheck.instances.CpsuTheory",
            "opcheck.instances.FinHilbTheory")
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE).as_posix()
        for line, name in _load_time_imports(path):
            root = name.split(".")[0]
            if ((root == "numpy" and where != "instances/cpsu.py")
                    or any(name == m or name.startswith(m + ".")
                           for m in cpsu)):
                found.append(f"{where}:{line}: {name}")
    assert not found, found


def test_only_theory_enumerates_homsets():
    """Subclasses supply ``_homset``; the cap test and the homset store
    live in ``Theory.enumerate_hom`` alone."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.relative_to(PACKAGE)}:{node.name}"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "enumerate_hom"]
    assert found == ["theory.py:Theory"]


def _run_calls(node, name):
    """The calls ``run.<name>(...)`` in the tree under ``node``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == name and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "run"]


def test_checks_end_at_a_counterexample_by_raising():
    """``run.fail`` raises and ``run.check_eq`` returns nothing, so no
    check reads what ``check_eq`` returns (as a condition or otherwise) and
    no ``return`` follows a ``run.fail(...)`` statement."""
    tree = ast.parse((PACKAGE / "checker.py").read_text(encoding="utf-8"))
    statements = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)}
    found = [f"line {call.lineno}: the value of run.check_eq is read"
             for call in _run_calls(tree, "check_eq")
             if id(call) not in statements]
    fails = {id(call) for call in _run_calls(tree, "fail")}
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            found += [f"line {after.lineno}: return after run.fail"
                      for stmt, after in zip(block, block[1:])
                      if isinstance(stmt, ast.Expr) and id(stmt.value) in fails
                      and isinstance(after, ast.Return)]
    assert _run_calls(tree, "check_eq") and fails
    assert not found, found


def _calls_outside_replays(node, module, name):
    """The calls ``module.name(...)`` in the tree under ``node``, leaving
    out the ``replay=`` argument of every call."""
    found = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.keyword) and n.arg == "replay":
            continue
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == name and isinstance(n.func.value, ast.Name)
                and n.func.value.id == module):
            found.append(n)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_scanned_merges_are_not_decided_again():
    """A loop over the merges that a scan hands out merges no pair through
    ``ops.coarse_grain``, which would decide its pairing again; only a
    replay, which decides its law from scratch, may."""
    tree = ast.parse((PACKAGE / "checker.py").read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and any(_run_calls(node.iter, name)
                     for name in ("pairing_pairs", "merge_scan"))]
    found = [f"line {call.lineno}" for loop in loops
             for stmt in loop.body + loop.orelse
             for call in _calls_outside_replays(stmt, "ops", "coarse_grain")]
    assert loops
    assert not found, found


# The failures that give no replay; a witness should replay, so this
# number may fall and must not rise.
FAILS_WITHOUT_REPLAY = 12


def test_failures_without_a_replay_do_not_grow():
    tree = ast.parse((PACKAGE / "checker.py").read_text(encoding="utf-8"))
    fails = _run_calls(tree, "fail")
    bare = [call.lineno for call in fails
            if not any(k.arg == "replay" for k in call.keywords)]
    assert fails
    assert len(bare) <= FAILS_WITHOUT_REPLAY, bare
