"""hasse5: exact verification of supersingular factor counts for the level-5 Tate normal form.

Everything in this package computes with exact arithmetic (arbitrary-precision
integers, rationals, quadratic/cyclotomic number fields, and finite fields).
The one use of floating point is ``modpoly``'s long products over F_l, which
run in float64 only where a bound, proved in that module, makes every sum an
exact integer.
"""

__version__ = "0.1.0"


class VerificationError(AssertionError):
    """An exact check made during a computation failed.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it.
    """
