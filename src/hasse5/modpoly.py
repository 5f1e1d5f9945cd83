"""Dense polynomial arithmetic over F_l with a vectorized fast path.

Polynomials are ascending lists of ints in [0, l).  Multiplication goes
through a numpy convolution whenever the worst-case convolution coefficient
n*(l-1)^2 fits in a signed 64-bit word (always true for the prime ranges this
toolkit sweeps); otherwise, and for products of short operands, the
pure-Python schoolbook path runs.

Every convolution of residues here (``mul``, ``_rev_inverse``, ``_barrett``
and ``mulmod_by``'s product) goes through ``_convolve``, which runs in
float64 when both operands have at least ``_FLOAT_FROM`` coefficients and
    min(len a, len b) * (p-1)^2 < 2^53,
and on the operands' own dtype (int64, or Python ints) otherwise.  The float64
product is exact.  Every operand entry is an integer in [0, p), which float64
holds exactly.  Each coefficient of the convolution is a sum of at most
s = min(len a, len b) products, each an integer in [0, (p-1)^2].  The terms
are nonnegative, so every partial sum, of any subset of them, in any order,
lies in [0, s*(p-1)^2] and is an integer below 2^53.  Every integer of
magnitude at most 2^53 is a float64, and a correctly rounded operation whose
exact result is a float64 returns it.  So every product, every addition and
every fused multiply-add that numpy or its SIMD lanes may perform, in
whatever order it sums, returns the exact integer, and the cast back to int64
is exact.  Below ``_FLOAT_FROM`` coefficients the casts cost more than they
save.  Outside ``_convolve`` the arrays stay int64 (or object).

Every remainder is the Python schoolbook loop or Barrett's method (von zur
Gathen & Gerhard, *Modern Computer Algebra*, 9.1) in ``_barrett``: for a of
degree < n + k and m monic of degree n, with inv = rev(m)^-1 mod x^k from
Newton iteration, the quotient q is the reversal of rev(a) * inv mod x^k and
the remainder is a - q*m.  ``divmod_`` runs it under the int64 guard for a
quotient of k coefficients and a divisor g of degree >= 1 when
``_BARRETT_FROM <= k*len(g) < _BARRETT_K_PER_COEFF*len(g)**2``, and the
schoolbook otherwise.  ``mulmod_by(m, p)`` multiplies remainders mod m kept
as numpy arrays, reducing each product by ``_barrett`` with k = n - 1 and one
inverse: one convolution for the product and two for its remainder.  Its
arrays are int64 when ``_np_ok(len(m), p)`` holds, which bounds every
convolution of the step, and hold Python ints (dtype object) otherwise.  It
also multiplies by x alone as a shift and one row update, since
x^n = -m[:n] mod a monic m of degree n.  ``pow_mod`` (by ``_power``) and
``modeq``'s K_5p steps run on it, via ``pad``; ``_power`` raises the variable
x by shifts, and any other base by ``mulmod``.

``_divisor_params`` tests f against a whole family of monic divisors m_t of
degree k at once, one column per divisor: the census and Fricke sweeps over
the conics, and the root sweep over all of F_p in ``modeq``.  It is Horner in
x^b over f's blocks of b = isqrt(len f) coefficients (Paterson-Stockmeyer),
so about 2 sqrt(len f) numpy steps, not one per coefficient.  Every int64
entry it forms is a sum of at most b + k products of residues in [0, l), so
it stays below (b + k) l^2; b is capped so that this is below 2^63, and
b >= 1 needs (k+1) l^2 < 2^63, which ``_check_sweep`` checks.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

_I64_MAX = 2**62  # conservative headroom under 2^63 - 1
_F64_EXACT = 2**53  # every integer of magnitude <= 2^53 is a float64
# _convolve runs in float64 once both operands have this many coefficients.
# Best of 3 alternations in us, int64/float64 with the casts, p = 997 (shared
# 2-vCPU host, numpy 2.4): n by n coefficients 72: 9.8/10.8, 80: 11.1/11.6,
# 88: 12.7/12.1, 96: 14.5/13.0; a mulmod_by product of degree 72: 18.4/19.6,
# 88: 22.9/20.8.  Lopsided shapes cross earlier (48 by 288: 18.2/15.3).
_FLOAT_FROM = 80
# mul runs the Python schoolbook below this many coefficient products: there
# it beats np.convolve's fixed call cost (the two break even near 25).
_SCHOOLBOOK_BELOW = 25
# divmod_'s Barrett range in k*len(g), k the quotient's length.  Medians in us,
# schoolbook/Barrett (p = 1499, 2-vCPU host, numpy 2.4): they break even near
# k*len(g) = 400 (k = 50, len(g) = 10: 110/87; k = 100, len(g) = 5: 123/111)
# and again near k = 120*len(g) (k = 600, len(g) = 5: 881/871), where
# Barrett's k^2 convolutions catch up.  A quadratic divisor never gains
# (k = 200: 105/101), and inside a sweep Barrett's fixed cost is higher (k = 135,
# len(g) = 3: 57 against 95-119), so the cap is k < 40*len(g).
_BARRETT_FROM = 400
_BARRETT_K_PER_COEFF = 40


def _np_ok(n: int, p: int) -> bool:
    return n * (p - 1) * (p - 1) < _I64_MAX


def _convolve(a, b, p: int):
    """np.convolve(a, b) for arrays a, b of one dtype with entries in [0, p):
    in float64 when both have at least ``_FLOAT_FROM`` entries and the
    module docstring's bound min(len a, len b) (p-1)^2 < 2^53 holds, which
    makes every sum exact, and on their dtype otherwise."""
    if (
        len(a) >= _FLOAT_FROM
        and len(b) >= _FLOAT_FROM
        and min(len(a), len(b)) * (p - 1) * (p - 1) < _F64_EXACT
        and a.dtype != object
    ):
        return np.convolve(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    return np.convolve(a, b)


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
        out = _convolve(np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64), p)
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
    k = len(f) - dg
    # every convolution of the Barrett path sums at most k products
    if dg and _BARRETT_FROM <= k * len(g) < _BARRETT_K_PER_COEFF * len(g) ** 2 and _np_ok(k, p):
        mon = np.asarray(monic(g, p), dtype=np.int64)
        q, r = _barrett(np.asarray(f, dtype=np.int64), mon, _rev_inverse(mon[::-1], k, p), p)
        return trim((q * inv % p).tolist()), trim(r.tolist())
    r = list(f)
    q = [0] * k
    for i in range(len(f) - 1, dg - 1, -1):
        c = r[i] % p
        if c:
            t = c * inv % p
            q[i - dg] = t
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - t * g[j]) % p
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


def _rev_inverse(rev_m, k: int, p: int):
    """rev_m^-1 mod x^k by Newton iteration (rev_m[0] = 1), k >= 1."""
    inv = np.ones(1, dtype=rev_m.dtype)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        err = _convolve(rev_m[:prec], inv, p)[:prec] % p  # 1 mod x^(previous prec)
        err[0] = (err[0] - 2) % p
        inv = -_convolve(inv, err, p)[:prec] % p  # inv (2 - rev_m inv)
    return inv


def _barrett(a, mon, inv, p):
    """Quotient and remainder of the array a by the monic array mon of degree
    n, for len(a) = n + k and inv = rev(mon)^-1 mod x^k (k = len(inv))."""
    n, k = len(mon) - 1, len(inv)
    q = (_convolve(a[:n - 1:-1], inv, p)[:k] % p)[::-1]
    return q, (a[:n] - _convolve(q, mon[:n], p)[:n]) % p


def mulmod_by(m, p):
    """(mulmod, times_x, dtype) for m of degree n >= 1 over F_p: mulmod(a, b)
    is a*b mod m for arrays a, b of n coefficients of that dtype, by one
    convolution and a Barrett remainder; the inverse of rev(m) is taken once,
    here.  times_x(a) is x*a mod m, by a shift and one row update: the top
    coefficient c of a moves to x^n = -m[:n] (m made monic).  The dtype is
    int64 when ``_np_ok(len(m), p)`` bounds every convolution of the step,
    and object (Python ints) otherwise."""
    n = deg(m)
    dtype = np.int64 if _np_ok(len(m), p) else object
    mon = np.asarray(monic(m, p), dtype=dtype)
    k = n - 1  # coefficients of the quotient of a product of two remainders
    inv = _rev_inverse(mon[::-1], k, p) if k else None

    def mulmod(a, b):
        prod = _convolve(a, b, p) % p  # 2n - 1 coefficients
        return _barrett(prod, mon, inv, p)[1] if k else prod

    def times_x(a):
        out = -a[-1] * mon[:n]
        out[1:] += a[:-1]
        return out % p

    return mulmod, times_x, dtype


def pad(f, n: int, dtype):
    """f as an array of n coefficients of dtype, zero past len(f) <= n."""
    a = np.zeros(n, dtype=dtype)
    a[: len(f)] = f
    return a


def _power(mulmod, times_x, x, e: int):
    """x^e, e >= 1, for x of n coefficients, under a ``mulmod_by`` context by
    square-and-multiply: each multiply by x is times_x, a shift, when x is
    the variable x (n >= 2), and mulmod otherwise."""
    if len(x) > 1 and x[1] == 1 and not x[0] and not x[2:].any():
        step = times_x
    else:
        def step(a):
            return mulmod(a, x)
    out = x
    for bit in bin(e)[3:]:
        out = mulmod(out, out)
        if bit == "1":
            out = step(out)
    return out


def pow_mod(f, e: int, m, p):
    """f^e mod m, by square-and-multiply with Barrett remainders."""
    base = rem(f, m, p)
    n = deg(m)
    if e == 0 or n < 1:
        return rem([1], m, p)
    mulmod, times_x, dtype = mulmod_by(m, p)
    return trim(_power(mulmod, times_x, pad(base, n, dtype), e).tolist())


def _check_sweep(k: int, l: int) -> None:
    """Raise ``ValueError`` unless (k+1) l^2 < 2^63, as a sweep of width k needs."""
    if (k + 1) * l * l >= 2**63:
        raise ValueError(f"l={l} is too large for the int64 divisibility sweep of width {k}")


def _divisor_params(f: list[int], red: np.ndarray, l: int) -> list[int]:
    """Column indices t with f = 0 mod m_t, where m_t = x^k - sum_i red[i, t] x^i
    and red's entries lie in [0, l).

    Horner in x^b over f's blocks of b coefficients, for every column at
    once (baby steps, giant steps: Paterson and Stockmeyer, SIAM J. Comput.
    2, 1973).  The baby steps build U_j = x^j mod m_t for j < b + k, each
    from U_(j-1) by one shift and one reduction of the top slot.  Each giant
    step takes the state, f's prefix mod m_t, to
        state * x^b + F_i = sum_(j<b) F_i[j] U_j + sum_(r<k) state_r U_(b+r),
    one vector-matrix product and k multiply-adds, and reduces it mod l.  All
    entries of F_i, U and the state lie in [0, l), so each new entry is a sum
    of at most b + k products below l^2.  b = isqrt(len f), capped so that
    (b + k) l^2 < 2^63, is at least 1 whenever (k+1) l^2 < 2^63, so every
    int64 sum is exact; a larger l raises ``ValueError`` (``_check_sweep``).
    """
    k, ncols = red.shape
    _check_sweep(k, l)
    b = max(1, min(isqrt(len(f)), (2**63 - 1) // (l * l) - k))
    u = np.zeros((b + k, k, ncols), dtype=np.int64)
    for j in range(k):
        u[j, j] = 1
    for j in range(k, b + k):
        u[j, 1:] = u[j - 1, :-1]
        u[j] += u[j - 1, -1] * red
        u[j] %= l
    blocks = np.zeros(-(-len(f) // b) * b, dtype=np.int64)
    blocks[: len(f)] = f
    baby = u[:b].reshape(b, k * ncols)
    state = np.zeros((k, ncols), dtype=np.int64)
    for c in blocks.reshape(-1, b)[::-1]:
        acc = (c @ baby).reshape(k, ncols)
        for r in range(k):
            acc += state[r] * u[b + r]
        state = acc % l
    return np.flatnonzero(~state.any(axis=0)).tolist()


def eval_at(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def from_int_poly(coeffs, p):
    return trim([c % p for c in coeffs])
