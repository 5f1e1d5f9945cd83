"""Integer factorization by trial division, for comparing against factored reference constants.

Arbitrary-precision integers and rationals are Python's built-in ``int`` and
``fractions.Fraction``; this module only adds the factorization layer.  Every
constant the toolkit needs to factor is smooth (or carries its large prime
factors explicitly), so plain trial division with a configurable bound is
enough and keeps the results deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

DEFAULT_TRIAL_BOUND = 10**6


class UnresolvedCofactor(ValueError):
    """Trial division left a composite cofactor above the bound."""


@dataclass(frozen=True)
class IntFactorization:
    """unit * prod(p**e) == value, primes strictly increasing."""

    unit: int
    factors: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def value(self) -> int:
        n = self.unit
        for p, e in self.factors:
            n *= p**e
        return n


def factor_integer(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> IntFactorization:
    """Factor a nonzero integer by trial division up to ``trial_bound``.

    Raises UnresolvedCofactor if a composite residue larger than
    ``trial_bound**2`` remains (a cofactor below that square is prime).
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    unit = -1 if n < 0 else 1
    m = abs(n)
    out: list[tuple[int, int]] = []
    for p in _trial_primes(trial_bound):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if m <= trial_bound or m <= trial_bound * trial_bound or _is_prime(m):
            out.append((m, 1))
        else:
            raise UnresolvedCofactor(f"composite cofactor {m} above trial bound {trial_bound}")
    return IntFactorization(unit, tuple(out))


def from_factors(unit: int, factors: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> int:
    """Rebuild an integer from (prime, exponent) pairs; inverse of factor_integer."""
    n = unit
    for p, e in factors:
        n *= p**e
    return n


def _trial_primes(bound: int):
    yield 2
    yield 3
    k = 5
    while k <= bound:
        yield k
        yield k + 2
        k += 6


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs; probabilistic above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    return _is_prime(n)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
