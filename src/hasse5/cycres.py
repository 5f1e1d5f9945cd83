"""Resultants and norms over Z[zeta_5][x], multimodularly.

Both are computed modulo primes p = 1 mod 5 below 2^31, at the four
embeddings zeta -> r^k (k = 1..4, r a primitive 5th root of unity mod p), in
int64 arrays, and lifted by a symmetric CRT from primes whose product exceeds
twice a bound on every coordinate.  The primes and their roots are found once
per process.  For a polynomial F over Z[zeta_5], let S_F be the sum of the
absolute values of all its zeta-coordinates.  For a coefficient
c = sum_m c_m zeta^m, |sigma_k(c)| <= sum_m |c_m|, so the l1 norm (the sum of
the absolute values of the coefficients) of each embedding sigma_k(F) is at
most S_F.  The l1 norm is subadditive and submultiplicative, and it bounds
the largest coefficient.

Resultants.  Every resultant here is taken against P1 = A + B y^5, with A, B
in Z[zeta_5][x] and B nonzero.  Let G = P2, of degree d in y.  The roots of
P1 are the fifth roots alpha w^i (i = 0..4, w a primitive 5th root of unity)
of -A/B, and Res_y(P1, G) = lc(P1)^d prod G(root), so

    Res_y(P1, G) = B^d prod_i G(alpha w^i) = sum_m N_m (-A)^m B^(d-m),

where N(y^5) = prod_{i=0..4} G(w^i y) = sum_m N_m y^(5m): the product is
unchanged by y -> w y, so only the powers y^(5m) are left.  The identity is
polynomial in the coefficients of A, B and G, so it holds modulo p with
w = r, and it holds at every value of x.  With A and B of degree at most
e_A in x and the y-coefficients G_j of degree at most e_G, the resultant
has x-degree at most D = 5 e_G + d e_A, so it is the polynomial of degree
<= D with its values at x = 0..D.  At each point t, for every prime and every
embedding in the same arrays, A(t), B(t) and G_j(t) are residues; N is the
product of the five rotations G(r^i y), polynomials in y whose coefficients
are G_j(t) r^(ij), and the sum is taken by Horner in -A(t) and B(t).  The
inverse of the embeddings, 5 c_m = sum_k sigma_k(c) (r^(-km) - r^(-4k)) for
m = 0..3, gives the zeta-coordinates of the values mod p, and the Lagrange
table of the points 0..D mod p (the inverse of their Vandermonde matrix,
(D + 1)^2 words, cached per D + 1 and p) interpolates them.  No Sylvester
matrix is eliminated.

The int64 sums.  Every residue is below p < 2^31, and a product of two
residues, below 2^62, is reduced mod p before it is added, so a sum of k
such terms is below k 2^31.  Horner's step at t <= D gives at most
(p - 1) t + p - 1 < (D + 1) 2^31; a y-coefficient of a product of rotations
sums at most d + 1 reduced products, the embeddings and their inverse 4.
The interpolation splits each value v into v mod 2^16 and v >> 16, both
below 2^16, so each of its sums over the D + 1 points is below
(D + 1) 2^31 2^16, and the halves recombine below 2^47.  So D + 1 <= 2^16
and d + 1 <= 2^16 keep every sum below 2^63; ``resultant`` checks both
from the lengths of its inputs, before it reads a coordinate or builds an
array.

Bound: the rotations keep the l1 norm, so each embedding of N has l1 norm at
most S_G^5, and each embedding of the resultant at most
sum_m ||N_m||_1 S_A^m S_B^(d-m) <= S_G^5 (S_A + S_B)^d = H.  So every
embedding sigma_k(c) of every x-coefficient c of the resultant is at most H
in absolute value.  Over C, 5 c_m = sum_k sigma_k(c) (zeta^(-km) - zeta^(-4k)),
so |c_m| <= 4 * 2H/5 = 8H/5, and primes whose product exceeds 16H/5
determine every coordinate by the symmetric lift.

Norms.  The norm N(F) = sigma_1(F) sigma_2(F) sigma_3(F) sigma_4(F) of F in
Z[zeta_5][x], sigma_k: zeta -> zeta^k, lies in Z[x] and comes from the same
primes.  Modulo p, each sigma_k(F) is F with zeta -> r^k, and the four
images are multiplied by convolution.  Every coefficient of N(F) is at most
S_F^4 in absolute value, and primes whose product exceeds 2 S_F^4 determine
it by the symmetric lift.  The norm of a polynomial with rational
coordinates is ``poly.galois_norm``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from . import VerificationError
from .intfactor import is_prime
from .numfield import CycNum
from .poly import Poly, ZeroInput


def resultant(p1: Poly, p2: Poly) -> Poly:
    """Res_y(p1, p2), the Sylvester determinant with the rows of p1 on top,
    as a Poly in x with CycNum coefficients, for p1 = A + B y^5; p1 and p2
    are Polys in y whose coefficients are Polys in x (or ints) over
    Z[zeta_5].  See the module docstring.

    A p1 of another shape, a coordinate that is not an integer, or a
    resultant too long for the int64 sums raises VerificationError."""
    if p1.degree != 5 or any(not p1[i] == 0 for i in range(1, 5)):
        raise VerificationError("resultant over Z[zeta_5][x]: p1 is not A + B y^5")
    if p2.is_zero():
        raise ZeroInput("resultant of zero polynomial")
    size, w, d = max(_x_len(p1[0]), _x_len(p1[5])), max(_x_len(c) for c in p2.c), p2.degree
    if 5 * (w - 1) + d * (size - 1) + 1 > 2**16 or d + 1 > 2**16:
        raise VerificationError(f"resultant over Z[zeta_5][x]: degrees {d} in y and {w - 1} in x, too long for int64")
    a, b = (c + [(0, 0, 0, 0)] * (size - len(c)) for c in (_int_coords(p1[0]), _int_coords(p1[5])))
    g = [t + [(0, 0, 0, 0)] * (w - len(t)) for t in map(_int_coords, p2.c)]
    s_a, s_b, s_g = (sum(abs(v) for t in c for v in t) for c in (a, b, sum(g, [])))
    primes = _primes_past(16 * s_g**5 * (s_a + s_b) ** d // 5)
    coords = _crt_symmetric(_resultant_mod(a, b, g, primes), primes)
    return Poly([CycNum(*coords[i : i + 4]) for i in range(0, len(coords), 4)])


def _x_len(entry) -> int:
    return len(entry.c) if isinstance(entry, Poly) else 1


def _int_coords(entry) -> list[tuple[int, int, int, int]]:
    """The zeta-coordinates of the x-coefficients of entry, which must be
    integers (VerificationError if not)."""
    coeffs = entry.c if isinstance(entry, Poly) else [entry]
    out = [c.c if isinstance(c, CycNum) else (c, 0, 0, 0) for c in coeffs]
    for t in out:
        if not all(isinstance(v, int) for v in t):
            raise VerificationError(f"coordinate {t} over Z[zeta_5] is not an integer")
    return out


def _resultant_mod(a: list, b: list, g: list, primes: list[int]) -> np.ndarray:
    """The resultant modulo each prime, as its zeta-coordinates indexed
    [prime][x-degree][zeta-power], from the coordinates of A, B (of one
    length) and of the y-coefficients of G (of one length), by its values at
    x = 0..D (see the module docstring)."""
    d = len(g) - 1
    n = 5 * (len(g[0]) - 1) + d * (len(a) - 1) + 1  # D + 1 points
    p = np.array(primes, dtype=np.int64)[:, None, None]  # against [prime][embedding][point]
    size = max(len(a), len(g[0]))
    res = _residues([c + [(0, 0, 0, 0)] * (size - len(c)) for c in (a, b, *g)], primes)
    t, vals = np.arange(n), np.zeros((*res.shape[:3], n), dtype=np.int64)  # [prime][zeta-power][A, B, G_j][point]
    for i in range(size - 1, -1, -1):
        vals = (vals * t + res[..., i : i + 1]) % p[..., None]
    emb = np.moveaxis(_conjugates(vals, primes), 2, 0)  # [A, B, G_j][prime][embedding][point]
    roots = np.array([[pow(_root5(q), e, q) for e in range(5)] for q in primes], dtype=np.int64)[:, :, None, None]
    n_y = emb[2:]  # N, as the product of the rotations G(r^i y) so far
    for i in range(1, 5):
        rot = [emb[2 + j] * roots[:, i * j % 5] % p for j in range(d + 1)]
        if i < 4:
            out = np.zeros((len(n_y) + d, *n_y.shape[1:]), dtype=np.int64)
            for j, c in enumerate(rot):
                out[j : j + len(n_y)] += n_y * c % p
        else:  # only N_m, the coefficient of y^(5m): the sum of n_y[5m - j] rot[j]
            pad = np.zeros((d, *n_y.shape[1:]), dtype=np.int64)
            n_y, out = np.concatenate([pad, n_y, pad]), np.zeros((d + 1, *n_y.shape[1:]), dtype=np.int64)
            for j, c in enumerate(rot):
                out += n_y[d - j : 6 * d + 1 - j : 5] * c % p
        n_y = out % p
    total, b_pow, neg_a = n_y[d], emb[1], -emb[0] % p
    for m in range(d - 1, -1, -1):  # total <- total (-A) + N_m B^(d-m)
        total = (total * neg_a % p + n_y[m] * b_pow % p) % p
        b_pow = b_pow * emb[1] % p
    vals = np.swapaxes(_coordinates(total, primes), 1, 2)  # [prime][point][zeta-power]
    table = np.stack([_lagrange(n, q) for q in primes])
    lo, hi = (table @ h % p for h in (vals & 0xFFFF, vals >> 16))
    return (hi * 2**16 + lo) % p


@lru_cache(maxsize=32)
def _lagrange(n: int, p: int) -> np.ndarray:
    """The inverse of the Vandermonde matrix of the points 0..n-1 mod p:
    out[i, t] is the x^i coefficient of l_t(x) = prod_{s != t} (x - s)/(t - s),
    so out @ v holds the coefficients of the polynomial of degree < n with
    the values v at x = 0..n-1.  l_t is M(x)/(x - t), M = prod_s (x - s),
    divided by M'(t) = (-1)^(n-1-t) t! (n-1-t)!.  For n <= 2^16, every
    product below is under 2^16 p."""
    m = np.zeros(n + 1, dtype=np.int64)  # M, ascending
    m[0] = 1
    for s in range(n):
        m[1:], m[0] = (m[:-1] - s * m[1:]) % p, -s * m[0] % p
    t, out = np.arange(n), np.zeros((n, n), dtype=np.int64)
    out[n - 1] = 1
    for i in range(n - 1, 0, -1):  # synthetic division by x - t, every t at once
        out[i - 1] = (m[i] + t * out[i]) % p
    fact = [1]
    for k in range(1, n):
        fact.append(fact[-1] * k % p)
    scale = [pow((-1) ** (n - 1 - s) * fact[s] * fact[n - 1 - s], -1, p) for s in range(n)]
    out = out * np.array(scale, dtype=np.int64) % p
    out.flags.writeable = False
    return out


def _residues(coords: list, primes: list[int]) -> np.ndarray:
    """Nested integer coordinates, the zeta-power innermost, reduced modulo
    each prime: out[prime][zeta-power][...]."""
    arr = np.moveaxis(np.array(coords, dtype=object), -1, 0)
    return np.stack([(arr % q).astype(np.int64) for q in primes])


_PRIMES: list[int] = []  # the primes p = 1 mod 5 below 2^31, from the top down, as far as any bound has asked


def _primes_past(bound: int) -> list[int]:
    """Primes p = 1 mod 5 below 2^31 (so that a product of two residues fits
    in an int64), from the top down, until their product exceeds bound."""
    primes, modulus = [], 1
    while modulus <= bound:
        if len(primes) == len(_PRIMES):
            q = _PRIMES[-1] - 10 if _PRIMES else 2**31 - 7  # the largest q < 2^31 with q = 1 mod 10
            while not is_prime(q):
                q -= 10
            _PRIMES.append(q)
        primes.append(_PRIMES[len(primes)])
        modulus *= primes[-1]
    return primes


@lru_cache(maxsize=None)
def _root5(p: int) -> int:
    """A primitive 5th root of unity mod the prime p, which exists exactly when
    p = 1 mod 5; VerificationError otherwise.  Then r = g^((p-1)/5) has
    r^5 = 1, so it is primitive when r != 1, that is when g is not a 5th
    power.  The 5th powers are (p-1)/5 of the p - 1 units, 1 among them, so
    some g in 2..p-1 is not one."""
    if p % 5 != 1:
        raise VerificationError(f"no primitive 5th root of unity mod {p}")
    return next(r for g in range(2, p) if (r := pow(g, (p - 1) // 5, p)) != 1)


def _conjugates(res: np.ndarray, primes: list[int]) -> np.ndarray:
    """out[i][k-1] = sum_m res[i][m] r^(km) mod p for k = 1..4, p = primes[i]
    and r = _root5(p): the images under zeta -> r^k of the numbers whose
    zeta-coordinates, in [0, p), are res[i][m]."""
    mats = [[[pow(r, k * m, p) for m in range(4)] for k in range(1, 5)] for p, r in _with_roots(primes)]
    return _combine(mats, res, primes)


def _coordinates(emb: np.ndarray, primes: list[int]) -> np.ndarray:
    """The inverse of ``_conjugates``: out[i][m] = c_m mod p from the images
    emb[i][k-1], by 5 c_m = sum_k emb[i][k-1] (r^(-km) - r^(-4k))."""
    mats = [
        [[(pow(r, -k * m, p) - pow(r, -4 * k, p)) * pow(5, -1, p) % p for k in range(1, 5)] for m in range(4)]
        for p, r in _with_roots(primes)
    ]
    return _combine(mats, emb, primes)


def _with_roots(primes: list[int]) -> list[tuple[int, int]]:
    return [(p, _root5(p)) for p in primes]


def _combine(mats: list, res: np.ndarray, primes: list[int]) -> np.ndarray:
    """out[i][j] = sum_l mats[i][j][l] res[i][l] mod primes[i], for entries in
    [0, primes[i])."""
    tail = (1,) * (res.ndim - 2)
    mat = np.array(mats, dtype=np.int64).reshape(len(primes), 4, 4, *tail)
    p = np.array(primes, dtype=np.int64).reshape(-1, 1, *tail)
    out = np.zeros((len(primes), 4, *res.shape[2:]), dtype=np.int64)
    for l in range(4):
        out += mat[:, :, l] * res[:, l : l + 1] % p
    return out % p


def _crt_symmetric(images: list[np.ndarray], primes: list[int]) -> list[int]:
    """Entry by entry (flattened), the integer of least absolute value with
    the residue images[i] modulo primes[i]."""
    mod = prod(primes)
    basis = [mod // p * pow(mod // p, -1, p) for p in primes]
    out = []
    for residues in zip(*(img.ravel().tolist() for img in images)):
        x = sum(r * e for r, e in zip(residues, basis)) % mod
        out.append(x - mod if 2 * x > mod else x)
    return out


def norm(f: Poly) -> Poly:
    """N(f) = prod_{k=1..4} f^(sigma_k), in Z[x], of f in Z[zeta_5][x] with
    CycNum or int coefficients; see the module docstring.

    Before it returns, it checks the result exactly: the degree is 4 deg f,
    and the leading and constant coefficients are the norms of those of f.
    A failed check, a coordinate that is not an integer, or an f too long for
    the int64 convolutions raises VerificationError."""
    if f.is_zero():
        return Poly()
    if len(f.c) >= 2**16:
        raise VerificationError(f"norm over Q(zeta_5): {len(f.c)} coefficients, the int64 products allow < 2^16")
    coords = _int_coords(f)
    primes = norm_primes(coords)
    out = Poly(_crt_symmetric([_norm_mod(coords, p) for p in primes], primes))
    for what, got, want in (
        ("degree", out.degree, 4 * f.degree),
        ("leading coefficient", out[out.degree], CycNum(*coords[-1]).norm()),
        ("constant coefficient", out[0], CycNum(*coords[0]).norm()),
    ):
        if got != want:
            raise VerificationError(f"norm over Q(zeta_5): {what} {got}, expected {want}")
    return out


def norm_primes(coords: list[list[int]]) -> list[int]:
    """The primes that determine N(F) for F with the integer zeta-coordinates
    coords[i] at x^i: their product exceeds 2 S^4, S the sum of all |coords|."""
    return _primes_past(2 * sum(abs(v) for t in coords for v in t) ** 4)


def _norm_mod(coords: list[list[int]], p: int) -> np.ndarray:
    """N(F) mod p, ascending: the product of the four images of F under
    zeta -> r^k, k = 1..4."""
    n = len(coords)
    res = np.fromiter((v % p for t in coords for v in t), dtype=np.int64, count=4 * n)
    emb = _conjugates(res.reshape(1, n, 4).transpose(0, 2, 1), [p])[0]  # [k-1][x-degree]
    out = emb[0]
    for e in emb[1:]:
        out = _mul_mod(out, e, p)
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a b mod p for p < 2^31 and len(b) < 2^16, with b split into 16-bit
    halves: each convolution sums at most len(b) products below 2^47."""
    lo = np.convolve(a, b & 0xFFFF) % p
    hi = np.convolve(a, b >> 16) % p
    return (hi * 2**16 + lo) % p
