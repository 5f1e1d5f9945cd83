"""Independent oracles for the test suite.

The brute-force oracles use none of the polynomial/factorization machinery of
the package under test: quadratic residues are found by exhaustive squaring,
elliptic curve orders by literal point counting, F_{p^2} is built directly
from a non-residue, and irreducibility by exhaustive divisor search.  The one
exceptions are the routes the package replaced, kept to check the new ones
against a different algorithm: ``census_by_factoring``, the census by a full
Cantor-Zassenhaus factorization of the Hasse invariant,
``k5p_by_division``, K_5p mod p read off the degree-6p polynomial
Phi5(x^p, x) by repeated division, and ``icosa_resultant_bareiss``, the
icosahedral resultant by Bareiss elimination over Z[zeta_5][x].
"""

from __future__ import annotations

import numpy as np


def squares_mod(p: int) -> set[int]:
    return {x * x % p for x in range(p)}


def legendre_naive(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares_mod(p) else -1


def sqrts_naive(a: int, p: int) -> list[int]:
    a %= p
    return sorted(r for r in range(p) if r * r % p == a)


def curve_from_j_fp(j: int, p: int) -> tuple[int, int]:
    """Short Weierstrass (a, b) over F_p with the given j-invariant."""
    j %= p
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    m = (1728 - j) % p
    return 3 * j * m % p, 2 * j * m * m % p


def count_points_fp(a: int, b: int, p: int) -> int:
    sq = squares_mod(p)
    n = p + 1  # point at infinity plus one per x with rhs = 0 handled below
    total = 0
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            total += 1
        elif rhs in sq:
            total += 2
    return 1 + total


def supersingular_js_fp(p: int) -> set[int]:
    """j in F_p with a trace-zero curve (point count p + 1)."""
    return {j for j in range(p) if count_points_fp(*curve_from_j_fp(j, p), p) == p + 1}


class Fp2:
    """Standalone F_{p^2} = F_p(w), w^2 = u for the smallest non-residue u."""

    def __init__(self, p: int):
        self.p = p
        sq = squares_mod(p)
        self.u = next(u for u in range(2, p) if u not in sq)

    def mul(self, x, y):
        p, u = self.p, self.u
        return ((x[0] * y[0] + u * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def inv(self, x):
        p, u = self.p, self.u
        n = (x[0] * x[0] - u * x[1] * x[1]) % p
        ninv = pow(n, p - 2, p)
        return (x[0] * ninv % p, (-x[1]) * ninv % p)

    def elements(self):
        return ((a, b) for a in range(self.p) for b in range(self.p))

    def squares(self) -> set:
        return {self.mul(z, z) for z in self.elements()}


def supersingular_poly_fp2_oracle(p: int) -> list[int]:
    """Coefficients (ascending, over F_p) of prod (X - j) over all supersingular
    j in F_{p^2}, by exhaustive point counting over F_{p^2}.

    The curve y^2 = x^3 + a x + b has 1 + sum_x (1 + chi(x^3 + a x + b))
    points, chi the quadratic character of F_{p^2}, so its trace is
    -sum_x chi(x^3 + a x + b); for each j the sum runs over all p^2 values of
    x at once, as int64 arrays of coordinates.
    """
    F = Fp2(p)
    one = (1, 0)
    # chi, indexed by the code a + b p of the element (a, b)
    chi = np.full(p * p, -1, dtype=np.int64)
    for z in F.squares():
        chi[z[0] + p * z[1]] = 1
    chi[0] = 0
    xs = list(F.elements())
    x0, x1 = (np.array(c, dtype=np.int64) for c in zip(*xs))
    c0, c1 = (np.array(c, dtype=np.int64) for c in zip(*(F.mul(F.mul(x, x), x) for x in xs)))
    js = []
    for j in xs:
        if j == (0, 0):
            a, b = (0, 0), one
        elif j == (1728 % p, 0):
            a, b = one, (0, 0)
        else:
            m = F.sub((1728 % p, 0), j)
            jm = F.mul(j, m)
            a = F.mul((3, 0), jm)
            b = F.mul((2, 0), F.mul(jm, m))
        rhs0 = (c0 + a[0] * x0 + F.u * a[1] * x1 + b[0]) % p
        rhs1 = (c1 + a[0] * x1 + a[1] * x0 + b[1]) % p
        if int(chi[rhs0 + p * rhs1].sum()) % p == 0:
            js.append(j)
    # expand prod (X - j) with F_{p^2} arithmetic; coefficients must land in F_p
    prod = [one]
    for j in js:
        nxt = []
        for k in range(len(prod) + 1):
            lower = prod[k - 1] if k >= 1 else (0, 0)
            upper = F.mul(prod[k], j) if k < len(prod) else (0, 0)
            nxt.append(F.sub(lower, upper))
        prod = nxt
    assert all(c[1] == 0 for c in prod), "oracle polynomial not Galois-stable"
    return [c[0] for c in prod]


def quartic_irreducible_naive(coeffs: tuple[int, ...], p: int) -> bool:
    """Monic quartic irreducibility by exhaustive root and quadratic-divisor search."""
    assert len(coeffs) == 5 and coeffs[4] == 1

    def ev(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    if any(ev(x) == 0 for x in range(p)):
        return False
    for b in range(p):
        for c in range(p):
            # divide by x^2 + bx + c and check the remainder
            q2 = 1
            q1 = (coeffs[3] - b * q2) % p
            q0 = (coeffs[2] - b * q1 - c * q2) % p
            r1 = (coeffs[1] - b * q0 - c * q1) % p
            r0 = (coeffs[0] - c * q0) % p
            if r1 == 0 and r0 == 0:
                return False
    return True


def census_by_factoring(l: int, hasse=None) -> dict:
    """``census(l, hasse).to_dict()``, read off the full factorization of the
    Hasse invariant: the special factors are the factors of the right degree
    and shape, in factor_ff's (ascending coefficient) order."""
    from hasse5 import VerificationError
    from hasse5.census import CensusReport, predicted_count
    from hasse5.classno import h5l
    from hasse5.ffactor import factor_ff
    from hasse5.fp import golden_units
    from hasse5.hasse import build_hasse

    fl = factor_ff(build_hasse(l) if hasse is None else hasse, l)
    if any(m != 1 for _, m in fl.factors):
        raise VerificationError(f"Hasse invariant not squarefree at l={l}")
    if l % 5 in (2, 3):
        facs = [
            c for c, _ in fl.factors
            if len(c) == 5 and c[0] == 1 and c[1] == -c[3] % l and c[2] == (11 * c[3] + 2) % l
        ]
    else:
        pair = golden_units(l)
        facs = [
            c for c, _ in fl.factors
            if len(c) == 3 and c[1] in (pair.eps5 * (c[0] - 1) % l, pair.eps5bar * (c[0] - 1) % l)
        ]
    h = h5l(l)
    pred = predicted_count(l, h)
    return CensusReport(l, l % 5, l % 8, h, len(facs), pred, len(facs) == pred, tuple(facs)).to_dict()


def k5p_by_division(p: int) -> list[tuple[tuple[int, ...], int]]:
    """``build_k5p(p)`` from the full Phi5(x^p, x): its gcd with ss_p, and each
    factor's multiplicity by dividing Phi5(x^p, x) by it until a remainder
    appears."""
    from hasse5 import VerificationError, modpoly as mp
    from hasse5.ffactor import factor_ff
    from hasse5.hasse import build_ss
    from hasse5.modeq import phi5_xp_x

    phi = phi5_xp_x(p)
    out = []
    for coeffs, m in factor_ff(mp.gcd(build_ss(p), phi, p), p).factors:
        if m != 1:
            raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
        mult, cur = 0, phi
        while True:
            quot, rem = mp.divmod_(cur, list(coeffs), p)
            if rem:
                break
            cur, mult = quot, mult + 1
        out.append((coeffs, 2 * mult))
    out.sort(key=lambda t: (len(t[0]) - 1, t[0]))
    return out


def icosa_resultant_bareiss(m1, m2, variant: str = "eps"):
    """``icosa_resultant(m1, m2, variant)`` with the Sylvester determinant
    taken by Bareiss elimination over Z[zeta_5][x]."""
    from hasse5.icosa import resultant_divisor, surface_pair
    from hasse5.numfield import CycNum
    from hasse5.poly import resultant

    divisor = resultant_divisor(m1, m2)
    det = resultant(*surface_pair(m1, m2, variant))
    return det.map(lambda c: (c if isinstance(c, CycNum) else CycNum(c)) / divisor)
