"""Prime fields F_l and explicit extensions F_{l^2}, F_{l^4}.

Prime field elements are plain ints reduced mod l; extension field elements
are ``FqElem`` coordinate vectors over a deterministic defining polynomial
(the lexicographically smallest monic irreducible of the requested degree, so
test vectors are stable run to run).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from . import VerificationError, modpoly as mp


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


@dataclass(frozen=True)
class GoldenPair:
    """The two roots of x^2 + 11x - 1 over F_l: the 5th powers of (-1 +- sqrt5)/2."""

    l: int
    eps5: int
    eps5bar: int

    def check(self) -> bool:
        l = self.l
        return (self.eps5 + self.eps5bar + 11) % l == 0 and (self.eps5 * self.eps5bar + 1) % l == 0


def golden_units(l: int) -> GoldenPair:
    """eps^5 and epsbar^5 in F_l, using the canonical (smaller) sqrt(5)."""
    if l % 5 not in (1, 4):
        raise NotSplit(f"5 is not a quadratic residue mod {l}")
    s5 = sqrt_mod(5, l)
    if s5 is None:
        raise VerificationError(f"5 has no square root mod {l}")
    inv2 = pow(2, l - 2, l)
    eps = (s5 - 1) * inv2 % l
    e5 = pow(eps, 5, l)
    e5bar = (-11 - e5) % l
    pair = GoldenPair(l, e5, e5bar)
    if not pair.check():
        raise VerificationError(f"golden units are not the roots of x^2 + 11x - 1 mod {l}")
    return pair


class ExtField:
    """F_{l^k} as F_l[x]/(defining), defining monic irreducible of degree k.

    Elements are FqElem tuples of length k (ascending coordinates).
    """

    def __init__(self, l: int, k: int, defining: tuple[int, ...]):
        self.l = l
        self.k = k
        self.defining = defining  # ascending, length k+1, monic
        self.q = l**k

    def __repr__(self):
        return f"ExtField(l={self.l}, k={self.k}, defining={list(self.defining)})"

    def elem(self, coords) -> "FqElem":
        c = list(coords)[: self.k]
        c += [0] * (self.k - len(c))
        return FqElem(self, tuple(x % self.l for x in c))

    def embed(self, a: int) -> "FqElem":
        return self.elem([a])

    def zero(self) -> "FqElem":
        return self.elem([])

    def one(self) -> "FqElem":
        return self.elem([1])

    def _reduce(self, c: list[int]) -> tuple[int, ...]:
        l, k, d = self.l, self.k, self.defining
        c = [x % l for x in c]
        for i in range(len(c) - 1, k - 1, -1):
            t = c[i]
            if t:
                c[i] = 0
                for j in range(k):
                    c[i - k + j] = (c[i - k + j] - t * d[j]) % l
        c = c[:k] + [0] * (k - len(c))
        return tuple(c)

    def rand(self, rng) -> "FqElem":
        return self.elem([rng.randrange(self.l) for _ in range(self.k)])

    def roots_of_unity5(self) -> list["FqElem"]:
        """Primitive 5th roots of unity in this field (empty if 5 does not divide q-1),
        sorted by coordinate tuple for determinism."""
        if (self.q - 1) % 5:
            return []
        rng = random.Random(5 * self.l + self.k)
        while True:
            u = self.rand(rng)
            if u.is_zero():
                continue
            z = u ** ((self.q - 1) // 5)
            if z != self.one():
                break
        roots = sorted({(z**i).coords for i in range(1, 5)})
        return [FqElem(self, r) for r in roots]


class FqElem:
    __slots__ = ("field", "coords")

    def __init__(self, field: ExtField, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _lift(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            return other
        if isinstance(other, int):
            return self.field.embed(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((self.field.l, self.field.k, self.coords))

    def __neg__(self):
        return FqElem(self.field, tuple((-c) % self.field.l for c in self.coords))

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        l = self.field.l
        return FqElem(self.field, tuple((a + b) % l for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        l = self.field.l
        return FqElem(self.field, tuple((a - b) % l for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            l = self.field.l
            return FqElem(self.field, tuple(a * other % l for a in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        k = self.field.k
        w = [0] * (2 * k - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    w[i + j] += a * b
        return FqElem(self.field, self.field._reduce(w))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def inv(self) -> "FqElem":
        """Inverse by extended Euclid against the defining polynomial."""
        l = self.field.l
        r0, r1 = list(self.field.defining), mp.trim(list(self.coords))
        s0, s1 = [], [1]
        if not r1:
            raise ZeroDivisionError("inverse of zero field element")
        while mp.deg(r1) > 0:
            q, r = mp.divmod_(r0, r1, l)
            r0, r1 = r1, r
            s0, s1 = s1, mp.sub(s0, mp.mul(q, s1, l), l)
            if not r1:
                raise ZeroDivisionError("non-invertible element (reducible defining poly?)")
        return self.field.elem(mp.scale(s1, pow(r1[0], l - 2, l), l))

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.field.embed(other) / self

    def sqrt(self) -> "FqElem | None":
        """Square root in F_q (q odd) by Tonelli-Shanks, or None for non-residues.

        Of the two roots returns the one with lexicographically smaller coords.
        """
        q = self.field.q
        if self.is_zero():
            return self
        if self ** ((q - 1) // 2) != self.field.one():
            return None
        m2, s = q - 1, 0
        while m2 % 2 == 0:
            m2 //= 2
            s += 1
        rng = random.Random(self.field.l * 65537 + self.field.k)
        z = self.field.one()
        while z ** ((q - 1) // 2) == self.field.one():
            z = self.field.rand(rng)
            if z.is_zero():
                z = self.field.one()
        m, c, t, r = s, z**m2, self**m2, self ** ((m2 + 1) // 2)
        one = self.field.one()
        while t != one:
            t2, i = t * t, 1
            while t2 != one:
                t2 = t2 * t2
                i += 1
            b = c ** (1 << (m - i - 1))
            m, c = i, b * b
            t = t * c
            r = r * b
        other = -r
        return r if r.coords <= other.coords else other

    def __repr__(self):
        return f"Fq{list(self.coords)}/{self.field.l}^{self.field.k}"


def _is_irreducible(f: tuple[int, ...], l: int) -> bool:
    """Irreducibility of a monic polynomial of degree k in {2, 4} over F_l.

    Degree 2: no roots. Degree 4: no factor of degree <= 2, i.e.
    gcd(f, x^(l^2) - x) = 1.
    """
    fl = list(f)
    xp = [0, 1]  # x^(l^j) mod f by repeated powering
    for _ in range(mp.deg(fl) // 2):
        xp = mp.pow_mod(xp, l, fl, l)
    return mp.deg(mp.gcd(fl, mp.sub(xp, [0, 1], l), l)) == 0


@lru_cache(maxsize=None)
def make_extension(l: int, k: int) -> ExtField:
    """Deterministic F_{l^k}: smallest monic irreducible of degree k in
    lexicographic order on the coefficient tuple (c_{k-1}, ..., c_0)."""
    if k == 1:
        return ExtField(l, 1, (0, 1))
    if k not in (2, 4):
        raise ValueError("only extension degrees 2 and 4 are supported")
    for high in itertools.product(range(l), repeat=k - 1):
        # high = (c_{k-1}, ..., c_1); scan constant term last
        for c0 in range(l):
            coeffs = (c0,) + tuple(reversed(high)) + (1,)
            if c0 == 0:
                continue  # divisible by x
            if _is_irreducible(coeffs, l):
                return ExtField(l, k, coeffs)
    raise RuntimeError("no irreducible polynomial found (impossible)")
