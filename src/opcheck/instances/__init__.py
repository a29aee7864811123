"""Concrete operational theories.

The exact theories, all matrices over a semiring (partial functions over
the naturals, substochastic matrices over the rationals), load with this
package.  The quantum theories, ``CpsuTheory`` and ``FinHilbTheory`` in
:mod:`opcheck.instances.cpsu`, are the only ones that use numpy; they are
loaded on first access, so a program that uses only exact theories never
imports numpy.
"""

from .matrix import MatrixTheory, PFunTheory, SubStochTheory

__all__ = ["PFunTheory", "MatrixTheory", "SubStochTheory", "CpsuTheory",
           "FinHilbTheory"]


def __getattr__(name):
    if name in ("CpsuTheory", "FinHilbTheory"):
        from . import cpsu
        return getattr(cpsu, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
