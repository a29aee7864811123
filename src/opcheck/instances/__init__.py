"""Concrete operational theories.

The exact theories (partial functions, matrices over a semiring,
substochastic matrices) load with this package.  The quantum theories,
``CpsuTheory`` and ``FinHilbTheory`` in :mod:`opcheck.instances.cpsu`, are
the only ones that use numpy; they are loaded on first access, so a program
that uses only exact theories never imports numpy.
"""

from .pfun import PFunTheory
from .matrix import MatrixTheory, SubStochTheory

__all__ = ["PFunTheory", "MatrixTheory", "SubStochTheory", "CpsuTheory",
           "FinHilbTheory"]


def __getattr__(name):
    if name in ("CpsuTheory", "FinHilbTheory"):
        from . import cpsu
        return getattr(cpsu, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
