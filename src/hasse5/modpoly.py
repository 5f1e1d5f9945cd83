"""Dense polynomial arithmetic over F_l with a vectorized fast path.

Polynomials are ascending lists of ints in [0, l).  Multiplication and
remainder go through int64 numpy kernels whenever the worst-case convolution
coefficient n*(l-1)^2 fits in a signed 64-bit word (always true for the prime
ranges this toolkit sweeps); otherwise, and for products of short operands,
the pure-Python schoolbook path runs.
"""

from __future__ import annotations

import numpy as np

_I64_MAX = 2**62  # conservative headroom under 2^63 - 1
# mul runs the Python schoolbook below this many coefficient products: there
# it beats np.convolve's fixed call cost (the two break even near 25).
_SCHOOLBOOK_BELOW = 25


def _np_ok(n: int, p: int) -> bool:
    return n * (p - 1) * (p - 1) < _I64_MAX


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    return len(f) - 1


def add(f, g, p):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p for i in range(n)])


def sub(f, g, p):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def scale(f, c, p):
    c %= p
    if c == 0:
        return []
    return [a * c % p for a in f]


def mul(f, g, p):
    if not f or not g:
        return []
    n = len(f) + len(g) - 1
    if len(f) * len(g) >= _SCHOOLBOOK_BELOW and _np_ok(min(len(f), len(g)), p):
        out = np.convolve(np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64))
        return trim((out % p).tolist())
    out = [0] * n
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def divmod_(f, g, p):
    """Euclidean quotient and remainder."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = deg(g)
    if deg(f) < dg:
        return [], list(f)
    inv = pow(g[-1], p - 2, p)
    if len(f) > 64 and _np_ok(len(g), p):
        r = np.asarray(f, dtype=np.int64)
        garr = np.asarray(g[:-1], dtype=np.int64)
        q = np.zeros(len(f) - dg, dtype=np.int64)
        for k in range(len(f) - 1, dg - 1, -1):
            c = r[k] % p
            if c:
                t = c * inv % p
                q[k - dg] = t
                if dg:
                    r[k - dg : k] = (r[k - dg : k] - t * garr) % p
                r[k] = 0
        return trim(q.tolist()), trim(r[:dg].tolist())
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(f) - 1, dg - 1, -1):
        c = r[k] % p
        if c:
            t = c * inv % p
            q[k - dg] = t
            for j in range(dg + 1):
                r[k - dg + j] = (r[k - dg + j] - t * g[j]) % p
    return trim(q), trim(r[:dg])


def rem(f, g, p):
    return divmod_(f, g, p)[1]


def quo(f, g, p):
    return divmod_(f, g, p)[0]


def monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def deriv(f, p):
    return trim([k * c % p for k, c in enumerate(f)][1:])


def pow_mod(f, e: int, m, p):
    """f^e mod m."""
    out = [1]
    base = rem(f, m, p)
    while e:
        if e & 1:
            out = rem(mul(out, base, p), m, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), m, p)
    return out


def is_irreducible(f, p: int) -> bool:
    """Irreducibility of f over F_p, deg f >= 1: gcd(f, x^(p^j) - x) = 1 for
    j = 1..deg f // 2, since a reducible f has a factor of degree <= deg f / 2."""
    f = list(f)
    xpj = [0, 1]
    for _ in range(deg(f) // 2):
        xpj = pow_mod(xpj, p, f, p)
        if deg(gcd(f, sub(xpj, [0, 1], p), p)) > 0:
            return False
    return True


def eval_at(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def from_int_poly(coeffs, p):
    return trim([c % p for c in coeffs])


def mul_many(polys, p):
    out = [1]
    for f in polys:
        out = mul(out, f, p)
    return out


def compose_rational(F, num, den, p):
    """den^deg(F) * F(num/den) over F_p."""
    n = deg(F)
    if n < 0:
        return []
    acc = [F[n] % p]
    dpow = [1]
    for k in range(n - 1, -1, -1):
        dpow = mul(dpow, den, p)
        acc = add(mul(acc, num, p), scale(dpow, F[k], p), p)
    return acc
