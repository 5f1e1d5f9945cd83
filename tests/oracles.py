"""Independent oracles for the test suite.

The brute-force oracles use none of the polynomial/factorization machinery of
the package under test: quadratic residues are found by exhaustive squaring,
elliptic curve orders by literal point counting, F_{p^2} is built directly
from a non-residue, and irreducibility by exhaustive divisor search.  The one
exceptions are the routes the package replaced, kept to check the new ones
against a different algorithm: ``is_irreducible``, irreducibility over F_p by
gcd(f, x^(p^j) - x) = 1 for j <= deg f / 2, which the census replaced by one
Legendre symbol of a^2 - 44a - 16 per quartic, ``ss_by_expansion``, the supersingular
polynomial from Deuring's J_l (``build_Jl``) expanded about t = 1728,
``hasse_by_expansion``, the Hasse invariant by composing that J_l with j(b)
and with j5, ``census_by_factoring``, the census by a full Cantor-Zassenhaus
factorization of that invariant, ``census_by_h_sweep``, the census by
Horner sweeps over all of H rather than over its fold,
``k5p_by_division``, K_5p mod p read off the degree-6p polynomial
Phi5(x^p, x) by repeated division, ``icosa_resultant_bareiss``, the
icosahedral resultant by Bareiss elimination over Z[zeta_5][x], and
``pow_mod_by_squaring``, f^e mod m on lists with a long division after every
product, and ``k5p_report_by_factoring``, the K_5p verdict by factoring
H_-20, H_-84 and H_-96 mod p and matching the predicted factor list against
``build_k5p``'s.  ``class_number_dirichlet`` gives h(D) by Dirichlet's class
number formula, with no reduced forms.  ``reconstruct`` multiplies a
factorization back out, and ``companion`` gives the companion of a census
quadratic.
"""

from __future__ import annotations

from math import comb

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


def kronecker(D: int, n: int) -> int:
    """The Kronecker symbol (D/n) for n > 0: the 2-part by (D/2) = 0 for even D,
    1 for D = +-1 mod 8 and -1 for D = +-3 mod 8, then the Jacobi symbol by
    quadratic reciprocity."""
    out = 1
    while n % 2 == 0:
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            out = -out
        n //= 2
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def class_number_dirichlet(D: int) -> int:
    """h(D) for a fundamental discriminant D < -4 by Dirichlet's class number
    formula, h(D) = -(1/|D|) sum_{0<a<|D|} (D/a) a."""
    assert D < -4 and (D % 4 == 1 or (D % 16 in (8, 12)))
    total = sum(kronecker(D, a) * a for a in range(1, -D))
    h, r = divmod(-total, -D)
    assert r == 0, "Dirichlet's sum is not divisible by |D|"
    return h


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


def is_irreducible(f, p: int) -> bool:
    """Irreducibility of f over F_p, deg f >= 1: gcd(f, x^(p^j) - x) = 1 for
    j = 1..deg f // 2, since a reducible f has a factor of degree <= deg f / 2.
    The route the census replaced by the Legendre symbol of a^2 - 44a - 16."""
    from hasse5 import modpoly as mp

    f = list(f)
    xpj = [0, 1]
    for _ in range(mp.deg(f) // 2):
        xpj = mp.pow_mod(xpj, p, f, p)
        if mp.deg(mp.gcd(f, mp.sub(xpj, [0, 1], p), p)) > 0:
            return False
    return True


def reconstruct(fl) -> list[int]:
    """Multiply a ``ffactor.FactorList`` back out: unit * prod(factor^mult)."""
    from hasse5 import modpoly as mp

    out = [1]
    for coeffs, m in fl.factors:
        for _ in range(m):
            out = mp.mul(out, list(coeffs), fl.modulus)
    return mp.scale(out, fl.unit, fl.modulus)


# the degree-6 factors of the Hasse invariant at l = 3 mod 4: X2P1 * Q6 in b,
# X2P1 * C65_NEG_FACTOR in x (ascending coefficients)
Q6 = [1, -18, 74, 18, 1]  # b^4 + 18b^3 + 74b^2 - 18b + 1
C65_NEG_FACTOR = [1, -522, -10006, 522, 1]  # x^4 + 522x^3 - 10006x^2 - 522x + 1
X2P1 = [1, 0, 1]


def _den_j5(l: int) -> list[int]:
    """x (1 - 11x - x^2)^5 over F_l, the denominator of j5."""
    from hasse5 import modpoly as mp

    out = [0, 1]
    for _ in range(5):
        out = mp.mul(out, mp.from_int_poly([1, -11, -1], l), l)
    return out


def _expand(J: list[int], num: list[int], den: list[int], quartic: list[int], sextic: list[int], l: int) -> list[int]:
    """den^deg(J) J(num^3 / den) * quartic^r * (X2P1 * sextic)^s over F_l."""
    from hasse5 import modpoly as mp
    from hasse5.hasse import hasse_params

    par = hasse_params(l)
    num = mp.from_int_poly(num, l)
    h = mp.compose_rational(J, mp.mul(mp.mul(num, num, l), num, l), mp.from_int_poly(den, l), l)
    for _ in range(par.r):
        h = mp.mul(h, mp.from_int_poly(quartic, l), l)
    for _ in range(par.s):
        h = mp.mul(mp.mul(h, X2P1, l), mp.from_int_poly(sextic, l), l)
    return h


def build_Jl(l: int) -> list[int]:
    """Deuring's J_l(t) = sum_k C(2n+s, 2k+s) C(2n-2k, n-k) (-432)^(n-k) (t-1728)^k
    over F_l, expanded term by term about t = 1728."""
    from hasse5 import modpoly as mp
    from hasse5.hasse import hasse_params

    par = hasse_params(l)
    n, s = par.n_l, par.s
    out: list[int] = []
    shift = [(-1728) % l, 1]
    pw = [1]
    for k in range(n + 1):
        c = comb(2 * n + s, 2 * k + s) * comb(2 * n - 2 * k, n - k) * (-432) ** (n - k)
        out = mp.add(out, mp.scale(pw, c % l, l), l)
        if k < n:
            pw = mp.mul(pw, shift, l)
    return out


def ss_by_expansion(p: int) -> list[int]:
    """``build_ss(p)``: X^rho (X - 1728)^sigma J_p(X), with J_p from ``build_Jl``."""
    from hasse5 import modpoly as mp

    out = build_Jl(p)
    if p % 3 == 2:
        out = mp.mul(out, [0, 1], p)
    if p % 4 == 3:
        out = mp.mul(out, [(-1728) % p, 1], p)
    return out


def hasse_by_expansion(l: int) -> list[int]:
    """The Hasse invariant over F_l from Deuring's J_l, expanded through
    j(b) = C4^3 / (b^5 (1 - 11b - b^2)) and through j5 = C45^3 / (x (1 - 11x - x^2)^5);
    the two expansions must agree."""
    from hasse5 import VerificationError
    from hasse5.hasse import C4, C45, DEN_J

    J = build_Jl(l)
    h1 = _expand(J, C4, DEN_J, C4, Q6, l)
    h2 = _expand(J, C45, _den_j5(l), C45, C65_NEG_FACTOR, l)
    if h1 != h2:
        raise VerificationError(f"the two Hasse invariant expansions disagree for l={l}")
    return h1


def census_by_factoring(l: int, hasse=None) -> dict:
    """``census(l).to_dict()``, read off the full factorization of the Hasse
    invariant (``hasse_by_expansion(l)``, or the injected ``hasse``): the
    special factors are the factors of the right degree and shape, in
    factor_ff's (ascending coefficient) order."""
    from hasse5 import VerificationError
    from hasse5.census import CensusReport, predicted_count
    from hasse5.classno import h5l
    from hasse5.ffactor import factor_ff
    from hasse5.fp import golden_units

    fl = factor_ff(hasse_by_expansion(l) if hasse is None else hasse, l)
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


def census_by_h_sweep(l: int) -> dict:
    """``census(l).to_dict()`` by the Horner sweeps over all of H that the fold
    replaced: a 4-wide sweep for the quartics g_a, kept when a^2 - 44a - 16 is
    a non-residue, and one 2-wide sweep for each golden unit e for the
    quadratics x^2 + e(s-1)x + s, kept when their discriminant is a
    non-residue."""
    from hasse5 import VerificationError
    from hasse5.census import CensusReport, GShape, KShape, _divisor_params, _squarefree_hasse, predicted_count
    from hasse5.classno import h5l
    from hasse5.fp import golden_units, legendre

    f = _squarefree_hasse(l)
    t = np.arange(l, dtype=np.int64)
    if l % 5 in (2, 3):
        # x^4 = -1 + a x - (11a+2) x^2 - a x^3 mod g_a
        red = np.stack([np.full(l, l - 1, dtype=np.int64), t, -(11 * t + 2) % l, -t % l])
        hits = _divisor_params(f, red, l)
        if 0 in hits:
            raise VerificationError(f"(x^2 + 1)^2 divides f at l={l}: f is not squarefree")
        shapes = sorted((GShape(l, a) for a in hits if legendre(a * a - 44 * a - 16, l) == -1), key=GShape.coeffs)
    else:
        pair = golden_units(l)
        found: dict[tuple[int, int], KShape] = {}
        for variant, e in (("eps", pair.eps5), ("epsbar", pair.eps5bar)):
            # x^2 = -s - e(s-1) x mod x^2 + e(s-1) x + s
            for s in _divisor_params(f, np.stack([-t % l, -e * (t - 1) % l]), l):
                r = e * (s - 1) % l
                if legendre(r * r - 4 * s, l) == -1:
                    found.setdefault((s, r), KShape(l, r, s, variant))
        shapes = sorted(found.values(), key=KShape.coeffs)
    h = h5l(l)
    pred = predicted_count(l, h)
    facs = tuple(s.coeffs() for s in shapes)
    return CensusReport(l, l % 5, l % 8, h, len(facs), pred, len(facs) == pred, facs).to_dict()


def companion(l: int, k):
    """kbar(x) = s^{-1} x^2 k(-1/x) = x^2 - (r/s) x + 1/s, for a census ``KShape`` k."""
    from hasse5.census import KShape

    sinv = pow(k.s, l - 2, l)
    return KShape(l, (-k.r * sinv) % l, sinv, k.variant)


def pow_mod_by_squaring(f, e: int, m, p: int) -> list[int]:
    """``modpoly.pow_mod`` by right-to-left square-and-multiply on lists, each
    product reduced by ``modpoly.rem``."""
    from hasse5 import modpoly as mp

    out = mp.rem([1], m, p)
    base = mp.rem(f, m, p)
    while e:
        if e & 1:
            out = mp.rem(mp.mul(out, base, p), m, p)
        e >>= 1
        if e:
            base = mp.rem(mp.mul(base, base, p), m, p)
    return out


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


def k5p_report_by_factoring(p: int):
    """``verify_class_equation(p)``: the predicted factors of K_5p, with
    H_-20, H_-84 and H_-96 factored mod p, matched against ``build_k5p(p)``;
    the factors left over are the quadratics X^2 + a X + b."""
    from hasse5 import modpoly as mp
    from hasse5.classno import h5l
    from hasse5.ffactor import factor_ff
    from hasse5.fp import legendre
    from hasse5.modeq import (
        HD, Q5, QUAD_D, QUART_D, T_SET, K5pReport, _disc_hd, a_p, build_k5p, epsilon_flags,
    )

    flags = epsilon_flags(p)
    k5p_list = build_k5p(p)
    found = dict(k5p_list)
    mismatches: list[str] = []

    expected: dict[tuple[int, ...], tuple[int, int]] = {}  # coeffs -> (multiplicity, d)
    if flags[20]:
        for coeffs, m in factor_ff(mp.from_int_poly(HD[20], p), p).factors:
            if len(coeffs) != 2 or m != 1:
                mismatches.append(f"H_-20 mod {p} did not split into distinct linears")
                continue
            expected[coeffs] = (2, 20)
    for d in (4, 11, 16, 19):
        if flags[d]:
            expected[tuple(mp.from_int_poly(HD[d], p))] = (4, d)
    for d in QUAD_D:
        if flags[d]:
            q = tuple(mp.from_int_poly(HD[d], p))
            if legendre(_disc_hd()[d], p) != -1:
                mismatches.append(f"H_-{d} mod {p} unexpectedly reducible")
            expected[q] = (4, d)
    for d in QUART_D:
        if flags[d]:
            pieces = factor_ff(mp.from_int_poly(HD[d], p), p).factors
            if len(pieces) != 2 or any(len(c) != 3 or m != 1 for c, m in pieces):
                mismatches.append(f"H_-{d} mod {p} is not a product of two irreducible quadratics")
            for coeffs, _ in pieces:
                expected[coeffs] = (4, d)

    matched = []
    for coeffs, (mult, d) in sorted(expected.items(), key=lambda t: (len(t[0]), t[0])):
        got = found.pop(coeffs, None)
        if got is None:
            mismatches.append(f"predicted factor {coeffs} (d={d}) absent")
            continue
        if got != mult:
            mismatches.append(f"factor {coeffs} (d={d}): expected multiplicity {mult}, found {got}")
        matched.append((coeffs, got, d))

    leftovers = []
    sporadic = []
    for coeffs, mult in sorted(found.items(), key=lambda t: (len(t[0]), t[0])):
        if len(coeffs) != 3:
            mismatches.append(f"leftover factor {coeffs} is not quadratic")
            continue
        if mult != 2:
            mismatches.append(f"leftover {coeffs}: multiplicity {mult} != 2")
        b_i, a_i, _ = coeffs
        if Q5.eval(a_i, b_i) % p:
            mismatches.append(f"leftover {coeffs}: Q5(a, b) != 0 mod p")
        leftovers.append((a_i, b_i))
        for d in QUART_D:
            if not flags[d] and not mp.rem(mp.from_int_poly(HD[d], p), list(coeffs), p):
                sporadic.append(f"leftover {coeffs} divides H_-{d} mod {p} (sporadic)")
        if list(coeffs) == mp.from_int_poly(HD[20], p):
            sporadic.append(f"leftover {coeffs} coincides with H_-20 mod {p}")

    n_p = len(leftovers)
    h = h5l(p)
    ap = a_p(p)
    rhs = 4 * flags[20] + sum(4 * flags[d] * (len(HD[d]) - 1) for d in T_SET) + 4 * n_p
    degree = sum((len(c) - 1) * m for c, m in k5p_list)
    if degree != ap * h:
        mismatches.append(f"deg K_5p = {degree} != a_p h(-5p) = {ap * h}")
    return K5pReport(
        p, flags, tuple(matched), tuple(leftovers), n_p, ap, h, degree,
        ap * h == rhs, not mismatches, tuple(mismatches), tuple(sporadic),
    )


def icosa_resultant_bareiss(m1, m2, variant: str = "eps"):
    """``icosa_resultant(m1, m2, variant)`` with the Sylvester determinant
    taken by Bareiss elimination over Z[zeta_5][x]."""
    from hasse5.icosa import resultant_divisor, surface_pair
    from hasse5.numfield import CycNum
    from hasse5.poly import resultant

    divisor = resultant_divisor(m1, m2)
    det = resultant(*surface_pair(m1, m2, variant))
    return det.map(lambda c: (c if isinstance(c, CycNum) else CycNum(c)) / divisor)
