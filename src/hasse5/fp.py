"""Prime fields F_l and the explicit quadratic extension F_{l^2}.

Prime field elements are plain ints reduced mod l.  F_{l^2} is F_l(w) with
w^2 = u = -c0, for the smallest c0 >= 1 that makes x^2 + c0 irreducible: the
lexicographically smallest monic irreducible quadratic, so test vectors are
stable run to run.  Its elements ``FqElem`` are the fourth field type on the
shared ``numfield.FieldElem`` core.  They keep only their coordinates (a, b)
of a + b*w reduced mod l, the closed-form product, Frobenius as their Galois
group, and ``sqrt``; the base derives the rest, dividing by a scalar of F_l
through its inverse mod l.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import VerificationError
from .numfield import FieldElem, _diag


class NotSplit(ValueError):
    """5 is not a square mod l (l = +-2 mod 5)."""


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root mod an odd prime; returns the smaller of the
    two roots, or None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def golden_units(l: int) -> tuple[int, int]:
    """(e5, e5bar), the two roots of x^2 + 11x - 1 over F_l: eps^5 and
    epsbar^5 for eps, epsbar = (-1 +- sqrt5)/2, using the canonical (smaller)
    sqrt(5).

    eps = (s - 1)/2 for s = sqrt(5) satisfies eps^2 = 1 - eps, so
    eps^5 = 5 eps - 3 = (5s - 11)/2.  e5bar = -11 - e5 makes the sum -11 by
    construction, so the check is on the product: for e5 = (5s - 11)/2 and
    any s, e5 e5bar + 1 = -(e5^2 + 11 e5 - 1) = -25 (s^2 - 5)/4, so
    e5 e5bar = -1 holds exactly when s^2 = 5: it rejects a wrong root at
    every l.
    """
    if l % 5 not in (1, 4):
        raise NotSplit(f"5 is not a quadratic residue mod {l}")
    s5 = sqrt_mod(5, l)
    if s5 is None:
        raise VerificationError(f"5 has no square root mod {l}")
    e5 = (5 * s5 - 11) * pow(2, -1, l) % l
    e5bar = (-11 - e5) % l
    if (e5 * e5bar + 1) % l:
        raise VerificationError(f"golden units are not the roots of x^2 + 11x - 1 mod {l}")
    return e5, e5bar


@dataclass(frozen=True)
class ExtField:
    """F_{l^2} = F_l(w) with w^2 = u, u a non-residue mod l."""

    l: int
    u: int

    @property
    def defining(self) -> tuple[int, int, int]:
        """The minimal polynomial x^2 - u of w, ascending, coefficients in [0, l)."""
        return ((-self.u) % self.l, 0, 1)

    def elem(self, coords) -> "FqElem":
        return FqElem(self, *coords)

    def embed(self, a: int) -> "FqElem":
        return FqElem(self, a)

    def zero(self) -> "FqElem":
        return FqElem(self)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def _reduce(self, c0: int, c1: int, c2: int) -> "FqElem":
        """c0 + c1 w + c2 w^2, folding w^2 = u."""
        return FqElem(self, c0 + self.u * c2, c1)

    def rand(self, rng) -> "FqElem":
        return FqElem(self, rng.randrange(self.l), rng.randrange(self.l))


class FqElem(FieldElem):
    """a + b*w in F_{l^2} = F_l(w), with a and b reduced mod l."""

    __slots__ = ("field",)
    GALOIS = (_diag(1, 1), _diag(1, -1))  # Frobenius: w^l = u^((l-1)/2) w = -w
    _SCALARS = (int,)

    def __init__(self, field: ExtField, a=0, b=0):
        self.field = field
        self.c = (a % field.l, b % field.l)

    @property
    def _field(self) -> tuple:
        return (self.field,)

    @property
    def coords(self) -> tuple[int, int]:
        return self.c

    def _div_scalar(self, d: int) -> "FqElem":
        if d % self.field.l == 0:
            raise ZeroDivisionError(f"division by {d} in F_({self.field.l}^2)")
        return self * pow(d, -1, self.field.l)

    def __mul__(self, other):
        if isinstance(other, int):
            return FqElem(self.field, self.c[0] * other, self.c[1] * other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.c
        c, d = o.c
        return self.field._reduce(a * c, a * d + b * c, b * d)

    __rmul__ = __mul__

    def sqrt(self) -> "FqElem | None":
        """A square root, or None for a non-square.

        z = a + b w with b != 0 is a square iff its norm N = a^2 - u b^2 is a
        square in F_l; then x^2 = (a +- sqrt N)/2 for the one sign that makes
        it a square in F_l, and y = b/(2x).  Of the two roots returns the one
        with lexicographically smaller coords: x != 0, so sqrt_mod's smaller
        root picks it (for b = 0, sqrt_mod's root of a or of a/u does).
        """
        fld, (a, b) = self.field, self.c
        l = fld.l
        if b == 0:
            r = sqrt_mod(a, l)
            if r is not None:
                return FqElem(fld, r)
            # a non-residue: a/u is a residue, and (s w)^2 = s^2 u
            return FqElem(fld, 0, sqrt_mod(a * pow(fld.u, -1, l), l))
        n = sqrt_mod(self.norm(), l)
        if n is None:
            return None
        half = (l + 1) // 2
        x = sqrt_mod((a + n) * half, l)
        if x is None:
            x = sqrt_mod((a - n) * half, l)
        return FqElem(fld, x, b * pow(2 * x, -1, l))

    def __repr__(self):
        return f"Fq{list(self.c)}/{self.field.l}^2"


@lru_cache(maxsize=None)
def make_extension(l: int, k: int) -> ExtField:
    """Deterministic F_{l^2} (k must be 2): w^2 = -c0 for the smallest c0 >= 1
    with -c0 a non-residue mod l, so x^2 + c0 is the lexicographically
    smallest monic irreducible x^2 + c1 x + c0 over F_l."""
    if k != 2 or l % 2 == 0:
        raise ValueError("only F_(l^2) for an odd prime l is supported")
    c0 = next(c for c in range(1, l) if legendre(-c, l) == -1)
    return ExtField(l, (-c0) % l)
