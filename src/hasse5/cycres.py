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
"""

from __future__ import annotations

from math import prod

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
    coordinate of absolute value at most 8H/5."""
    primes, modulus = [], 1
    gen = _primes_1_mod_5()
    while 25 * modulus * modulus <= 256 * h2:
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
    res = res.reshape(n, n, width, 4).transpose(3, 2, 0, 1)  # [m][d][i][j]
    emb = np.zeros((4, width, n, n), dtype=np.int64)
    for k in range(4):
        for m in range(4):
            term = res[m] * pow(r, (k + 1) * m, p)
            term %= p
            emb[k] += term
        emb[k] %= p
    return emb


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
