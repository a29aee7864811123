"""The sources themselves: every module compiles without a warning, no
module under the package or the tests imports a name it never uses, and
homsets are enumerated and kept in one place.

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
