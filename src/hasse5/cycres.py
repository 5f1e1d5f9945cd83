"""Resultants and norms over Z[zeta_5][x], multimodularly.

Both are computed modulo primes p = 1 mod 5 below 2^31, at the four
embeddings zeta -> r^k (k = 1..4, r a primitive 5th root of unity mod p), by
int64 convolution, and lifted by a symmetric CRT from primes whose product
exceeds twice a bound on every coordinate.  For a polynomial F over
Z[zeta_5], let S_F be the sum of the absolute values of all its
zeta-coordinates.  For a coefficient c = sum_m c_m zeta^m,
|sigma_k(c)| <= sum_m |c_m|, so the l1 norm (the sum of the absolute values
of the coefficients) of each embedding sigma_k(F) is at most S_F.  The l1
norm is subadditive and submultiplicative, and it bounds the largest
coefficient.

Resultants.  Every resultant here is taken against P1 = A + B y^5, with A, B
in Z[zeta_5][x] and B nonzero.  Let G = P2, of degree d in y.  The roots of
P1 are the fifth roots alpha w^i (i = 0..4, w a primitive 5th root of unity)
of -A/B, and Res_y(P1, G) = lc(P1)^d prod G(root), so

    Res_y(P1, G) = B^d prod_i G(alpha w^i) = sum_m N_m (-A)^m B^(d-m),

where N(y^5) = prod_{i=0..4} G(w^i y) = sum_m N_m y^(5m): the product is
unchanged by y -> w y, so only the powers y^(5m) are left.  The identity is
polynomial in the coefficients of A, B and G, so it holds modulo p with
w = r.  Modulo p, each embedding of G is packed into one array (Kronecker:
y^j x^i at j W + i, with W above the x-degree of N), its five rotations
y -> r^i y are multiplied by convolution, and the sum is taken by Horner in
-A and B.  The inverse of the embeddings,
5 c_m = sum_k sigma_k(c) (r^(-km) - r^(-4k)) for m = 0..3, gives the
zeta-coordinates mod p.

Bound: the rotations keep the l1 norm, so each embedding of N has l1 norm at
most S_G^5, and each embedding of the resultant at most
sum_m ||N_m||_1 S_A^m S_B^(d-m) <= S_G^5 (S_A + S_B)^d = H.  So every
embedding sigma_k(c) of every x-coefficient c of the resultant is at most H
in absolute value.  Over C, 5 c_m = sum_k sigma_k(c) (zeta^(-km) - zeta^(-4k)),
so |c_m| <= 4 * 2H/5 = 8H/5, and primes whose product exceeds 16H/5
determine every coordinate by the symmetric lift.

Norms.  The norm N(f) = sigma_1(f) sigma_2(f) sigma_3(f) sigma_4(f) of f in
Q(zeta_5)[x], sigma_k: zeta -> zeta^k, comes from the same primes.  With D
the lcm of the denominators of the zeta-coordinates of f, F = D f lies in
Z[zeta_5][x] and N(F) = D^4 N(f) in Z[x].  Modulo p, each sigma_k(F) is F
with zeta -> r^k, and the four images are multiplied by convolution.  Every
coefficient of N(F) is at most S_F^4 in absolute value, and primes whose
product exceeds 2 S_F^4 determine it by the symmetric lift.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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
    resultant too long for the int64 convolutions raises VerificationError."""
    if p1.degree != 5 or any(not p1[i] == 0 for i in range(1, 5)):
        raise VerificationError("resultant over Z[zeta_5][x]: p1 is not A + B y^5")
    if p2.is_zero():
        raise ZeroInput("resultant of zero polynomial")
    a, b = _int_coords(p1[0]), _int_coords(p1[5])
    g = [_int_coords(c) for c in p2.c]
    size, w = max(len(a), len(b)), max(len(t) for t in g)
    a, b = (c + [(0, 0, 0, 0)] * (size - len(c)) for c in (a, b))
    g = [t + [(0, 0, 0, 0)] * (w - len(t)) for t in g]
    d, width = len(g) - 1, 5 * w - 4  # width: the x-length of N's coefficients
    if (5 * d + 1) * width >= 2**16 or width + d * size >= 2**16:
        raise VerificationError(f"resultant over Z[zeta_5][x]: degrees {d} in y and {w - 1} in x, too long for int64")
    s_a, s_b, s_g = (sum(abs(v) for t in c for v in t) for c in (a, b, sum(g, [])))
    primes = _primes_past(16 * s_g**5 * (s_a + s_b) ** d // 5)
    coords = _crt_symmetric([_resultant_mod(a, b, g, p) for p in primes], primes)
    return Poly([CycNum(*coords[i : i + 4]) for i in range(0, len(coords), 4)])


def _int_coords(entry) -> list[tuple[int, int, int, int]]:
    """The zeta-coordinates of the x-coefficients of entry, which must be
    integers."""
    coeffs = entry.c if isinstance(entry, Poly) else [entry]
    out = [c.c if isinstance(c, CycNum) else (c, 0, 0, 0) for c in coeffs]
    for t in out:
        if not all(isinstance(v, int) for v in t):
            raise VerificationError(f"resultant coordinate {t} is not an integer")
    return out


def _resultant_mod(a: list, b: list, g: list, p: int) -> np.ndarray:
    """The resultant mod p, as its zeta-coordinates indexed
    [x-degree][zeta-power], from the coordinates of A, B (of one length) and
    of the y-coefficients of G (of one length w)."""
    r = _root5(p)
    d, w = len(g) - 1, len(g[0])
    width = 5 * w - 4
    emb_a, emb_b = (_conjugates(_residues(c, p), p, r) for c in (a, b))  # [k-1][x-degree]
    emb_g = np.zeros((4, d + 1, width), dtype=np.int64)
    emb_g[:, :, :w] = _conjugates(_residues(g, p), p, r)  # [k-1][y-degree][x-degree]
    rotations = [np.array([pow(r, i * j, p) for j in range(d + 1)], dtype=np.int64)[:, None] for i in range(1, 5)]
    out = []
    for ak, bk, gk in zip(emb_a, emb_b, emb_g):
        n = gk.ravel()[: d * width + w]  # y^j x^i at j * width + i
        for rot in rotations:
            n = _mul_mod(n, (gk * rot % p).ravel()[: d * width + w], p)
        res, b_pow, neg_a = n[5 * d * width :], bk, -ak % p  # N_d
        for m in range(d - 1, -1, -1):  # res <- res (-A) + N_m B^(d-m)
            res = (_mul_mod(res, neg_a, p) + _mul_mod(n[5 * m * width : (5 * m + 1) * width], b_pow, p)) % p
            b_pow = _mul_mod(b_pow, bk, p)
        out.append(res)
    return _coordinates(np.array(out), p, r).T


def _residues(coords: list, p: int) -> np.ndarray:
    """Nested integer coordinates, the zeta-power innermost, reduced mod p,
    with the zeta-power axis moved first."""
    return np.moveaxis((np.array(coords, dtype=object) % p).astype(np.int64), -1, 0)


def _primes_1_mod_5():
    # below 2^31, so that a product of two residues fits in an int64
    n = 2**31 - 7  # the largest n < 2^31 with n = 1 mod 10
    while True:
        if is_prime(n):
            yield n
        n -= 10


def _primes_past(bound: int) -> list[int]:
    """Primes p = 1 mod 5 below 2^31, from the top down, until their product
    exceeds bound."""
    primes, modulus = [], 1
    gen = _primes_1_mod_5()
    while modulus <= bound:
        primes.append(next(gen))
        modulus *= primes[-1]
    return primes


def _root5(p: int) -> int:
    """A primitive 5th root of unity mod the prime p, which exists exactly when
    p = 1 mod 5; VerificationError otherwise.  Then r = g^((p-1)/5) has
    r^5 = 1, so it is primitive when r != 1, that is when g is not a 5th
    power.  The 5th powers are (p-1)/5 of the p - 1 units, 1 among them, so
    some g in 2..p-1 is not one."""
    if p % 5 != 1:
        raise VerificationError(f"no primitive 5th root of unity mod {p}")
    return next(r for g in range(2, p) if (r := pow(g, (p - 1) // 5, p)) != 1)


def _conjugates(res: np.ndarray, p: int, r: int) -> np.ndarray:
    """out[k-1] = sum_m res[m] r^(km) mod p for k = 1..4: the images under
    zeta -> r^k of the numbers whose zeta-coordinates, in [0, p), are res[m]."""
    return _combine([[pow(r, k * m, p) for m in range(4)] for k in range(1, 5)], res, p)


def _coordinates(emb: np.ndarray, p: int, r: int) -> np.ndarray:
    """The inverse of ``_conjugates``: out[m] = c_m mod p from the images
    emb[k-1], by 5 c_m = sum_k emb[k-1] (r^(-km) - r^(-4k))."""
    inv5 = pow(5, -1, p)
    return _combine([[(pow(r, -k * m, p) - pow(r, -4 * k, p)) * inv5 % p for k in range(1, 5)] for m in range(4)], emb, p)


def _combine(mat: list[list[int]], res: np.ndarray, p: int) -> np.ndarray:
    """out[i] = sum_j mat[i][j] res[j] mod p, for entries in [0, p)."""
    out = np.zeros((4, *res.shape[1:]), dtype=np.int64)
    for i, row in enumerate(mat):
        for j, c in enumerate(row):
            out[i] += res[j] * c % p
        out[i] %= p
    return out


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
