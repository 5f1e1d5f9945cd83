"""Integer helpers: primality and prime ranges.

Arbitrary-precision integers and rationals are Python's built-in ``int`` and
``fractions.Fraction``; this module only adds primality by Miller-Rabin and a
segmented sieve for prime ranges.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt


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
    """Primes p with lo <= p <= hi, by a sieve of [lo, hi] with the primes up
    to isqrt(hi), so in O(hi - lo + sqrt(hi)) memory."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    base = bytearray([1]) * (root + 1)  # base[q]: q <= root is prime
    seg = bytearray([1]) * (hi - lo + 1)  # seg[i]: lo + i is prime
    for p in range(2, root + 1):
        if base[p]:
            base[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
            start = max(p * p, -(-lo // p) * p) - lo  # the first composite multiple of p in [lo, hi]
            seg[start::p] = bytes(len(range(start, len(seg), p)))
    return list(compress(range(lo, hi + 1), seg))
