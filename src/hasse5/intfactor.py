"""Integer helpers: primality, prime ranges, and factored reference constants.

Arbitrary-precision integers and rationals are Python's built-in ``int`` and
``fractions.Fraction``; this module only adds primality by Miller-Rabin, a
sieve for prime ranges, and the rebuild of constants that are stored in
factored form.
"""

from __future__ import annotations

from math import isqrt


def from_factors(unit: int, factors: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> int:
    """Rebuild an integer from a unit and (prime, exponent) pairs."""
    n = unit
    for p, e in factors:
        n *= p**e
    return n


def is_prime(n: int) -> bool:
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
