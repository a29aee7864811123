"""The package source itself: every module compiles without a warning.

``compile`` reads the source afresh, so an invalid escape sequence or a
similar slip is caught even where a cached ``.pyc`` would hide it.
"""

import warnings
from pathlib import Path

import opcheck

PACKAGE = Path(opcheck.__file__).parent


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
