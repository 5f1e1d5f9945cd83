"""Resultants over Z[zeta_5][x], multimodularly (Collins 1971).

For p1, p2 in Z[zeta_5][x][y], Res_y(p1, p2) is the determinant of their
Sylvester matrix, whose entries are polynomials in x.  It is computed modulo
primes p = 1 mod 5 below 2^31: at the four embeddings zeta -> r^k (r a
primitive 5th root of unity mod p) and at one more point x than its degree
bound, all in one batched numpy elimination per prime.  Interpolation in x
and the inverse of the embeddings give its coordinates mod p, and a
symmetric CRT lift makes them exact.  The primes are taken until their
product exceeds 16H/5, where H is the Hadamard bound of the matrix on
|x| = 1 (von zur Gathen & Gerhard, Modern Computer Algebra, 6.11), computed
in exact integers for each matrix.

The norm N(f) = sigma_1(f) sigma_2(f) sigma_3(f) sigma_4(f) of f in
Q(zeta_5)[x], sigma_k: zeta -> zeta^k, comes from the same primes.  With D
the lcm of the denominators of the zeta-coordinates of f, F = D f lies in
Z[zeta_5][x] and N(F) = D^4 N(f) in Z[x].  Modulo p, each sigma_k(F) is F
with zeta -> r^k, and the four images are multiplied by integer convolution.

Bound: let S be the sum of the absolute values of all zeta-coordinates of
F.  For a coefficient c = sum_m c_m zeta^m, |sigma_k(c)| <= sum_m |c_m|, so
the l1 norm (the sum of the absolute values of the coefficients) of each
sigma_k(F) is at most S.  The l1 norm is submultiplicative and bounds the
largest coefficient, ||A B||_inf <= ||A B||_1 <= ||A||_1 ||B||_1, so every
coefficient of N(F) is at most B = S^4 in absolute value, and primes whose
product exceeds 2B determine it by the symmetric lift.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

import numpy as np

from . import VerificationError
from .intfactor import is_prime
from .numfield import CycNum
from .poly import Poly, sylvester


def resultant(p1: Poly, p2: Poly) -> Poly:
    """Res_y(p1, p2), the Sylvester determinant with the rows of p1 on top,
    as a Poly in x with CycNum coefficients; p1 and p2 are Polys in y whose
    coefficients are Polys in x (or ints) over Z[zeta_5]."""
    coords, n_points = sylvester_coords(p1, p2)
    primes = crt_primes(hadamard_bound_sq(coords))
    det = _crt_symmetric([_det_coords_mod(coords, n_points, p) for p in primes], primes)
    return Poly([CycNum(*det[i : i + 4]) for i in range(0, len(det), 4)])


def sylvester_coords(p1: Poly, p2: Poly) -> tuple[list, int]:
    """The Sylvester matrix of p1 and p2 (p1 rows first) as nested lists of
    integer coordinates [i][j][x-degree][zeta-power], padded to one length in
    x, and the number of points, sum_i max_j deg_x + 1, that determines its
    determinant."""
    rows = [[_entry_coords(e) for e in row] for row in sylvester(p1, p2)]
    width = max(len(e) for row in rows for e in row)
    n_points = 1 + sum(max(len(e) for e in row) - 1 for row in rows)
    return [[e + [(0, 0, 0, 0)] * (width - len(e)) for e in row] for row in rows], n_points


def _entry_coords(entry) -> list[tuple[int, int, int, int]]:
    coeffs = entry.c if isinstance(entry, Poly) else [entry]
    out = [c.c if isinstance(c, CycNum) else (c, 0, 0, 0) for c in coeffs]
    for t in out:
        if not all(isinstance(v, int) for v in t):
            raise VerificationError(f"Sylvester entry coordinate {t} is not an integer")
    return out


def hadamard_bound_sq(coords: list) -> int:
    """H^2 = prod_i sum_j b_ij^2, with b_ij the l1 norm of the coordinates of
    entry (i, j).

    On |x| = 1 every embedding of entry (i, j) has absolute value at most
    b_ij, so by Hadamard every embedding of the determinant is at most H
    there, and so is each of its x-coefficients.  With 5 c_m = Tr(a zeta^-m)
    - Tr(a zeta^-4), every zeta-coordinate c_m of a coefficient a is at most
    8H/5 in absolute value."""
    return prod(sum(sum(abs(v) for t in e for v in t) ** 2 for e in row) for row in coords)


def _primes_1_mod_5():
    # below 2^31, so that a product of two residues fits in an int64
    n = 2**31 - 7  # the largest n < 2^31 with n = 1 mod 10
    while True:
        if is_prime(n):
            yield n
        n -= 10


def crt_primes(h2: int) -> list[int]:
    """Primes p = 1 mod 5 below 2^31, from the top down, until their product M
    exceeds 16H/5 (25 M^2 > 256 H^2): the symmetric lift then recovers every
    coordinate of absolute value at most 8H/5.

    For integers, 25 M^2 > 256 H^2 exactly when 5M > isqrt(256 H^2), that is
    M > isqrt(256 H^2) // 5."""
    return _primes_past(isqrt(256 * h2) // 5)


def _primes_past(bound: int) -> list[int]:
    """Primes p = 1 mod 5 below 2^31, from the top down, until their product
    exceeds bound."""
    primes, modulus = [], 1
    gen = _primes_1_mod_5()
    while modulus <= bound:
        primes.append(next(gen))
        modulus *= primes[-1]
    return primes


def _inv_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise: the inverse, and 0 for 0."""
    out = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def det_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p (p < 2^31) of a stack of square int64 matrices with
    entries in [0, p), by one batched Gaussian elimination with row swaps.

    The elimination is division-free: step k multiplies the rows below the
    pivot by the pivot, so the product of the pivots is the determinant times
    prod_k pivot_k^(n-1-k), which one inverse at the end divides out.  Every
    product is reduced mod p before anything is added to it.  The stack is
    overwritten."""
    a = mats
    batch, n, _ = a.shape
    sign = np.ones(batch, dtype=np.int64)
    pivots = np.ones(batch, dtype=np.int64)  # prod_{j <= k} pivot_j
    scale = np.ones(batch, dtype=np.int64)  # prod_k pivot_k^(n-1-k)
    for k in range(n):
        if not a[:, k, k].all():
            for b, v in enumerate(a[:, k, k].tolist()):
                if v == 0 and _swap_up_pivot(a[b], k):
                    sign[b] = -sign[b]
        pivot = a[:, k, k].copy()
        pivots = pivots * pivot % p
        if k == n - 1:
            break
        scale = scale * pivots % p
        # row by row: an update of all rows at once costs numpy buffers the
        # size of the stack
        for i in range(k + 1, n):  # row_i <- pivot * row_i - a_ik * row_k
            lead = a[:, i, k, None] * a[:, k, k:]
            lead %= p
            row = a[:, i, k:]
            row *= pivot[:, None]
            row %= p
            row -= lead
            row %= p
    return sign * pivots % p * _inv_mod(scale, p) % p


def _swap_up_pivot(m: np.ndarray, k: int) -> bool:
    """Swap row k of m with the first row below it with a nonzero entry in
    column k; False when there is none."""
    for j, v in enumerate(m[k + 1 :, k].tolist(), k + 1):
        if v:
            row_k = m[k].copy()
            m[k] = m[j]
            m[j] = row_k
            return True
    return False


def _root5(p: int) -> int:
    """A primitive 5th root of unity mod p = 1 mod 5."""
    for g in range(2, p):
        r = pow(g, (p - 1) // 5, p)
        if r != 1:
            return r
    raise VerificationError(f"no primitive 5th root of unity mod {p}")


def _embed(coords: list, p: int, r: int) -> np.ndarray:
    """emb[k-1][d][i][j]: the x^d coefficient of entry (i, j) mod p under
    zeta -> r^k, for k = 1..4."""
    n, width = len(coords), len(coords[0][0])
    flat = (v % p for row in coords for e in row for t in e for v in t)
    res = np.fromiter(flat, dtype=np.int64, count=n * n * width * 4)
    return _conjugates(res.reshape(n, n, width, 4).transpose(3, 2, 0, 1), p, r)  # [m][d][i][j]


def _conjugates(res: np.ndarray, p: int, r: int) -> np.ndarray:
    """out[k-1] = sum_m res[m] r^(km) mod p for k = 1..4: the images under
    zeta -> r^k of the numbers whose zeta-coordinates, in [0, p), are res[m]."""
    out = np.zeros((4, *res.shape[1:]), dtype=np.int64)
    for k in range(4):
        for m in range(4):
            term = res[m] * pow(r, (k + 1) * m, p)
            term %= p
            out[k] += term
        out[k] %= p
    return out


def _interpolate(vals: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients mod p of the polynomials of degree < N taking
    vals[t] at x = t (t = 0..N-1), one per column: Newton's divided
    differences, then Horner in the Newton basis."""
    c = vals.copy()
    n = len(c)
    for j in range(1, n):
        c[j:] = (c[j:] - c[j - 1 : -1]) % p * pow(j, -1, p) % p
    out = np.zeros_like(c)
    for j in range(n - 1, -1, -1):  # out <- out * (x - j) + c[j]
        shifted = np.zeros_like(out)
        shifted[1:] = out[:-1]
        out = (shifted - out * j % p) % p
        out[0] = (out[0] + c[j]) % p
    return out


def _det_coords_mod(coords: list, n_points: int, p: int) -> np.ndarray:
    """The Sylvester determinant mod p, as its zeta-coordinates indexed
    [x-degree][zeta-power]: evaluated at the embeddings zeta -> r^k (k = 1..4)
    and the points x = 0..n_points-1, interpolated in x, and mapped back by
    5 c_m = sum_k sigma_k(a) (r^(-km) - r^(-4k))."""
    r = _root5(p)
    emb = _embed(coords, p, r)
    n = len(coords)
    mats = np.zeros((4, n_points, n, n), dtype=np.int64)
    xs = np.arange(n_points, dtype=np.int64)[:, None, None]
    for d in range(emb.shape[1] - 1, -1, -1):  # Horner in x
        mats *= xs
        mats %= p
        mats += emb[:, d, None]
        mats %= p
    dets = det_mod_p(mats.reshape(-1, n, n), p)
    coeffs = _interpolate(dets.reshape(4, n_points).T, p)  # [x-degree][k-1]
    out = np.zeros_like(coeffs)
    for k in range(1, 5):
        back = np.array([pow(r, -k * m, p) - pow(r, -4 * k, p) for m in range(4)], dtype=np.int64) % p
        out = (out + coeffs[:, k - 1, None] * back % p) % p
    return out * pow(5, -1, p) % p


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
    """N(f) = prod_{k=1..4} f^(sigma_k), in Q[x], of f in Q(zeta_5)[x] with
    CycNum, int or Fraction coefficients; see the module docstring.

    Before it returns, it checks the result exactly: the degree is 4 deg f,
    and the leading and constant coefficients are the norms of those of f.
    A failed check, or an f too long for the int64 convolutions, raises
    VerificationError."""
    if f.is_zero():
        return Poly()
    if len(f.c) >= 2**16:
        raise VerificationError(f"norm over Q(zeta_5): {len(f.c)} coefficients, the int64 products allow < 2^16")
    coords = [c.c if isinstance(c, CycNum) else (c, 0, 0, 0) for c in f.c]
    scale = lcm(*(Fraction(v).denominator for t in coords for v in t))
    ints = [[int(v * scale) for v in t] for t in coords]
    primes = norm_primes(ints)
    lifted = _crt_symmetric([_norm_mod(ints, p) for p in primes], primes)
    d4 = scale**4
    out = Poly(v // d4 if v % d4 == 0 else Fraction(v, d4) for v in lifted)
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
    emb = _conjugates(res.reshape(n, 4).T, p, _root5(p))  # [k-1][x-degree]
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
