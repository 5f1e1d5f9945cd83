"""Class numbers of imaginary quadratic fields and orders by reduced-form counting.

h(D) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
D < 0: b^2 - 4ac = D, |b| <= a <= c, gcd(a, b, c) = 1, and b >= 0 whenever
|b| = a or a = c.  Exhaustive enumeration over a <= sqrt(|D|/3) is exact and
instant at the discriminant sizes this toolkit sweeps (|D| up to ~3*10^4).
"""

from __future__ import annotations

from math import gcd, isqrt


class BadDiscriminant(ValueError):
    pass


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant D < 0."""
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant")
    forms = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue  # normalized: b >= 0 when |b| = a or a = c
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return forms


def class_number_disc(D: int) -> int:
    """h(D), the number of primitive reduced forms of discriminant D < 0."""
    return len(reduced_forms(D))


def h5l(l: int) -> int:
    """h(-5l), the class number of Q(sqrt(-5l)), via the field discriminant
    (-5l when -5l = 1 mod 4, else -20l)."""
    D = -5 * l
    return class_number_disc(D if D % 4 == 1 else 4 * D)


def h_minus_p(p: int) -> int:
    """h(-p), the class number of Q(sqrt(-p))."""
    D = -p if p % 4 == 3 else -4 * p
    return class_number_disc(D)

