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
``divisor_params_by_horner``, the divisor sweep by Horner one coefficient at
a time, which the blocked sweep of ``modpoly._divisor_params`` replaced,
``k5p_by_division``, K_5p mod p read off the degree-6p polynomial
Phi5(x^p, x) by repeated division, ``certify_by_gcd``, K_5p's certificate
and linear factors by two gcds with x^p - x and the power x^(p^2) mod Q,
which one root sweep of g in ``modeq._certify`` and the factors found by
``modeq._quadratic_factors`` replaced, ``eval_rows``, Phi5(X, x) mod ss_p by
Horner over Phi5's integer rows on lists, and ``k5p_multiplicities_by_rows``
and ``hasse_nonzero_by_rows``, K_5p's multiplicities by ``eval_rows`` per
factor, which the Horner mod ss_p of ``modeq._phi5_mod`` and the table of
``modeq._hasse_nonzero`` replaced, ``k5p_by_census_hits``, K_5p mod p as
the j-images of the census's conic hits, with no Phi5 and no ss_p,
``icosa_resultant_bareiss``, the icosahedral resultant by Bareiss
elimination over Z[zeta_5][x], ``resultant_mod_by_kronecker``, that
resultant's images mod p by convolution of Kronecker-packed arrays, which
the values at points of ``cycres._resultant_mod`` replaced, and
``pow_mod_by_squaring``, f^e mod m on lists with a long division after every
product, and ``k5p_report_by_factoring``, the K_5p verdict by factoring
H_-20, H_-84 and H_-96 mod p and matching the predicted factor list against
``build_k5p``'s, and ``fricke_by_R5_norm``, the Fricke verdict read off
ss5star_p built as the squarefree part of the norm Res_X(ss_p, R5), which
the counts on the census's fold replaced.  ``class_number_dirichlet`` gives
h(D) by Dirichlet's class number formula, with no reduced forms.
``reconstruct`` multiplies a factorization back out, and ``companion`` gives
the companion of a census quadratic.  Four routes only the tests use live
here too: ``compose_rational``, den^deg F * F(num/den) over F_p;
``deuring_L``, the supersingular j in F_p counted from h(-p);
``fricke_values_from_R5``, the j5* values solved for one by one in F_{p^2};
and ``zparam_cross_check``, ss5star_p through the z-parametrization of the
Fricke curve.
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


def quartic_irreducible_naive(coeffs: list[int], p: int) -> bool:
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


def compose_rational(F, num, den, p: int) -> list[int]:
    """den^deg(F) * F(num/den) over F_p, by Horner on lists."""
    from hasse5 import modpoly as mp

    n = mp.deg(F)
    if n < 0:
        return []
    acc = [F[n] % p]
    dpow = [1]
    for k in range(n - 1, -1, -1):
        dpow = mp.mul(dpow, den, p)
        acc = mp.add(mp.mul(acc, num, p), mp.scale(dpow, F[k], p), p)
    return acc


def deuring_L(p: int) -> int:
    """Count of supersingular j-invariants lying in the prime field F_p."""
    from hasse5 import VerificationError, classno

    h = classno.h_minus_p(p)
    if p % 4 == 1:
        if h % 2:
            raise VerificationError(f"h(-p) = {h} is odd for p={p} = 1 mod 4")
        return h // 2
    if p % 8 == 3:
        return 2 * h
    return h


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

    _, r, s = hasse_params(l)
    num = mp.from_int_poly(num, l)
    h = compose_rational(J, mp.mul(mp.mul(num, num, l), num, l), mp.from_int_poly(den, l), l)
    for _ in range(r):
        h = mp.mul(h, mp.from_int_poly(quartic, l), l)
    for _ in range(s):
        h = mp.mul(mp.mul(h, X2P1, l), mp.from_int_poly(sextic, l), l)
    return h


def build_Jl(l: int) -> list[int]:
    """Deuring's J_l(t) = sum_k C(2n+s, 2k+s) C(2n-2k, n-k) (-432)^(n-k) (t-1728)^k
    over F_l, expanded term by term about t = 1728."""
    from hasse5 import modpoly as mp
    from hasse5.hasse import hasse_params

    n, _, s = hasse_params(l)
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
    """``census(l)``, read off the full factorization of the Hasse
    invariant (``hasse_by_expansion(l)``, or the injected ``hasse``): the
    special factors are the factors of the right degree and shape, in
    factor_ff's (ascending coefficient) order."""
    from hasse5 import VerificationError
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
        e5, e5bar = golden_units(l)
        facs = [
            c for c, _ in fl.factors
            if len(c) == 3 and c[1] in (e5 * (c[0] - 1) % l, e5bar * (c[0] - 1) % l)
        ]
    return _census_payload(l, [list(c) for c in facs])


def divisor_params_by_horner(f: list[int], red: np.ndarray, l: int) -> list[int]:
    """Column indices t with f = 0 mod m_t, where m_t = x^k - sum_i red[i, t] x^i.

    Horner over f's coefficients from the top, for every column at once: the
    k-wide state holds f's prefix mod m_t, and x^k is replaced by red[:, t].
    Only the outgoing top slot is reduced mod l.  A slot takes at most k
    products below l^2 on its way to the top, so every entry stays below
    (k+1) l^2, which the caller checks fits in int64.
    """
    state = np.zeros_like(red)
    for c in reversed(f):
        top = state[-1] % l
        state[1:] = state[:-1]
        state[0] = c
        state += top * red
    return np.flatnonzero(~(state % l).any(axis=0)).tolist()


def census_by_h_sweep(l: int) -> dict:
    """``census(l)`` by the Horner sweeps over all of H that the fold
    replaced: a 4-wide sweep for the quartics g_a, kept when a^2 - 44a - 16 is
    a non-residue, and one 2-wide sweep for each golden unit e for the
    quadratics x^2 + e(s-1)x + s, kept when their discriminant is a
    non-residue."""
    from hasse5 import VerificationError
    from hasse5.census import _squarefree_hasse
    from hasse5.fp import golden_units, legendre

    f = _squarefree_hasse(l)
    t = np.arange(l, dtype=np.int64)
    if l % 5 in (2, 3):
        # x^4 = -1 + a x - (11a+2) x^2 - a x^3 mod g_a
        red = np.stack([np.full(l, l - 1, dtype=np.int64), t, -(11 * t + 2) % l, -t % l])
        hits = divisor_params_by_horner(f, red, l)
        if 0 in hits:
            raise VerificationError(f"(x^2 + 1)^2 divides f at l={l}: f is not squarefree")
        factors = sorted([1, -a % l, (11 * a + 2) % l, a, 1] for a in hits if legendre(a * a - 44 * a - 16, l) == -1)
    else:
        found: set[tuple[int, int, int]] = set()
        for e in golden_units(l):
            # x^2 = -s - e(s-1) x mod x^2 + e(s-1) x + s
            for s in divisor_params_by_horner(f, np.stack([-t % l, -e * (t - 1) % l]), l):
                r = e * (s - 1) % l
                if legendre(r * r - 4 * s, l) == -1:
                    found.add((s, r, 1))
        factors = [list(k) for k in sorted(found)]
    return _census_payload(l, factors)


def _census_payload(l: int, factors: list) -> dict:
    """The census verdict at l for the special factors ``factors``, with the
    keys of ``hasse5 census --format json``."""
    from hasse5.census import predicted_count
    from hasse5.classno import h5l

    h = h5l(l)
    pred = predicted_count(l, h)
    return {
        "l": l, "l_mod5": l % 5, "l_mod8": l % 8, "h_minus_5l": h,
        "found": len(factors), "predicted": pred, "match": len(factors) == pred, "factors": factors,
    }


def companion(l: int, k: list[int]) -> list[int]:
    """kbar(x) = s^{-1} x^2 k(-1/x) = x^2 - (r/s) x + 1/s, for a census
    factor k = [s, r, 1]."""
    s, r, _ = k
    sinv = pow(s, l - 2, l)
    return [sinv, (-r * sinv) % l, 1]


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


def certify_by_gcd(g: list[int], X: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """``modeq._certify(g, p)`` for X = x^p mod g by two Euclid chains:
    L = gcd(g, x^p - x), Q = g / L, then gcd(Q, x^p - x) = 1 and
    x^(p^2) = x mod Q, which prove g squarefree with its linear factors in L
    and quadratic ones in Q.  L is split by Cantor-Zassenhaus, and its
    factors come in the order of their roots.  Raises ``VerificationError``
    where ``_certify`` and then ``_quadratic_factors`` do, with a message of
    its own for a repeated quadratic factor or one of degree > 2."""
    from hasse5 import VerificationError, modpoly as mp
    from hasse5.ffactor import factor_ff

    x = [0, 1]
    lin = mp.gcd(g, mp.sub(X, x, p), p)
    quad = mp.quo(g, lin, p)
    XQ = mp.rem(X, quad, p)
    if mp.deg(quad) > 0:
        if mp.deg(mp.gcd(quad, mp.sub(XQ, x, p), p)) > 0:
            raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
        XQp = mp.pow_mod(XQ, p, quad, p)
        if XQp != x:
            once = mp.gcd(quad, mp.sub(XQp, x, p), p)
            if mp.deg(mp.gcd(mp.quo(quad, once, p), once, p)) > 0:
                raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
            raise VerificationError(f"gcd(ss_p, Phi5(x^p, x)) has a factor of degree > 2 at p={p}")
    lins = [list(c) for c, _ in factor_ff(lin, p).factors] if mp.deg(lin) > 0 else []
    return sorted(lins, key=lambda q: -q[0] % p), quad


def eval_rows(rows, X: list[int], m: list[int], p: int) -> list[int]:
    """sum_a row_a(x) X^a mod m over F_p for integer rows, by Horner in X on
    lists with one remainder at the end; the rows are reduced mod p by
    ``mp.add`` at every step.  Phi5(X, x) mod ss_p is
    ``eval_rows(modeq._hasse_rows(0), X, ss_p, p)``, the route that
    ``modeq._phi5_mod`` replaced."""
    from hasse5 import modpoly as mp

    acc: list[int] = []
    for row in reversed(rows):
        acc = mp.add(mp.mul(acc, X, p), row, p)
    return mp.rem(acc, m, p)


def _x_p_mod(q: list[int], p: int) -> list[int]:
    """x^p mod a monic irreducible q: r for q = x - r, and c - x for
    q = x^2 - c x + b, whose roots add up to c."""
    from hasse5 import modpoly as mp

    return mp.trim([-q[0] % p]) if len(q) == 2 else [-q[1] % p, p - 1]


def hasse_nonzero_by_rows(factors: list[list[int]], p: int) -> list[list[bool]]:
    """``modeq._hasse_nonzero(factors, p)`` as lists: whether
    D_i = (D_Y^i Phi5)(x^p, x) mod q is nonzero, for i <= 6 and each factor
    q, one ``eval_rows`` per i and q."""
    from hasse5.modeq import _hasse_rows

    return [[bool(eval_rows(_hasse_rows(i), _x_p_mod(q, p), q, p)) for q in factors] for i in range(7)]


def k5p_multiplicities_by_rows(factors: list[list[int]], p: int) -> list[int]:
    """The multiplicity in K_5p, twice the one in Phi5(x^p, x), of each factor
    q of gcd(ss_p, Phi5(x^p, x)): 2k for the least k in 1..6 with D_k mod q
    nonzero, found per factor by one ``eval_rows`` for each i up to k, the
    search that the table of ``modeq._hasse_nonzero`` replaced; 0 where every
    D_k vanishes."""
    from hasse5.modeq import _hasse_rows

    return [
        2 * next((i for i in range(1, 7) if eval_rows(_hasse_rows(i), _x_p_mod(q, p), q, p)), 0) for q in factors
    ]


def _j_on_conic(a: int, p: int) -> list[int]:
    """The characteristic polynomial over F_p, ascending, of j(u0) for
    j(u) = -(u^2 + 12u + 16)^3 / (u + 11) and u0 a root of an irreducible
    Q_a = u^2 + a u + 11a + 4: (X - j(u0)) (X - j(u0')), u0' = -a - u0 the
    other root.  It is the minimal polynomial of j(u0) when j(u0) is not in
    F_p, and its square otherwise, as at a = 0 (j(2i) = 1728).

    j(u0) = c0 + c1 u0 in F_p[u]/Q_a.  (u0 + 11)(u0' + 11) = 121 - 11a +
    11a + 4 = 125, so 1/(u0 + 11) = (11 - a - u0)/125, and the polynomial
    is X^2 - (2 c0 - a c1) X + c0^2 - a c0 c1 + (11a + 4) c1^2."""
    b = (11 * a + 4) % p

    def mul(x, y):  # in F_p[u]/(u^2 + a u + b)
        top = x[1] * y[1]
        return ((x[0] * y[0] - b * top) % p, (x[0] * y[1] + x[1] * y[0] - a * top) % p)

    w = ((16 - b) % p, (12 - a) % p)  # u^2 + 12u + 16
    c0, c1 = mul(mul(mul(w, w), w), ((a - 11) % p, 1))  # -w^3 (11 - a - u)
    inv = pow(125, -1, p)
    c0, c1 = c0 * inv % p, c1 * inv % p
    return [(c0 * c0 - a * c0 * c1 + b * c1 * c1) % p, -(2 * c0 - a * c1) % p, 1]


def k5p_by_census_hits(p: int) -> list[int]:
    """K_5p mod p, ascending, from the census's conics on the fold P, with no
    Phi5, no ss_p and no gcd past the census's squarefree certificate of H:
    the product of m_a^2 over the irreducible hits a of
    ``census._irreducible_hits``, of m_0^2 for p = 3 mod 4 (Q_0 = u^2 + 4),
    and of (X - j(2e))^2 for each root 2e in F_p of P and of u^2 + 22u - 4,
    whose roots are the fixed points of the Fricke involution.  m_a is the
    characteristic polynomial of j at a root of Q_a (``_j_on_conic``)."""
    from hasse5 import census, modpoly as mp

    P, hits = census._irreducible_hits(p, census._squarefree_hasse(p))
    parts = [_j_on_conic(a, p) for a in hits + [0] * (p % 4 == 3)]
    for t in ((r - 11) % p for r in sqrts_naive(125, p)):  # u^2 + 22u - 4 = (u + 11)^2 - 125
        if mp.eval_at(P, t, p) == 0:
            parts.append([(t * t + 12 * t + 16) ** 3 * pow(t + 11, -1, p) % p, 1])  # X - j(t)
    out = [1]
    for m in parts:
        out = mp.mul(out, mp.mul(m, m, p), p)
    return out


def k5p_report_by_factoring(p: int) -> dict:
    """``verify_class_equation(p)``: the predicted factors of K_5p, with
    H_-20, H_-84 and H_-96 factored mod p, matched against ``build_k5p(p)``;
    the factors left over are the quadratics X^2 + a X + b."""
    from hasse5 import modpoly as mp
    from hasse5.classno import h5l
    from hasse5.ffactor import factor_ff
    from hasse5.modeq import HD, Q5, QUAD_D, QUART_D, T_SET, a_p, build_k5p, epsilon_flags

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
    for d in (4, 11, 16, 19, *QUAD_D):  # e_d for d in QUAD_D already requires H_-d irreducible mod p
        if flags[d]:
            expected[tuple(mp.from_int_poly(HD[d], p))] = (4, d)
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
        matched.append([list(coeffs), got, d])

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
        leftovers.append([a_i, b_i])
        for d in QUART_D:
            if not flags[d] and not mp.rem(mp.from_int_poly(HD[d], p), list(coeffs), p):
                sporadic.append(f"leftover {coeffs} divides H_-{d} mod {p} (sporadic)")
        if list(coeffs) == mp.from_int_poly(HD[20], p):
            sporadic.append(f"leftover {coeffs} coincides with H_-20 mod {p}")

    h = h5l(p)
    ap = a_p(p)
    rhs = 4 * flags[20] + sum(4 * flags[d] * (len(HD[d]) - 1) for d in T_SET) + 4 * len(leftovers)
    degree = sum((len(c) - 1) * m for c, m in k5p_list)
    if degree != ap * h:
        mismatches.append(f"deg K_5p = {degree} != a_p h(-5p) = {ap * h}")
    return {
        "p": p, "eps": {str(d): flag for d, flag in flags.items()}, "matched": matched, "leftovers": leftovers,
        "N_p": len(leftovers), "a_p": ap, "h_minus_5p": h, "degree": degree, "identity_holds": ap * h == rhs,
        "structure_ok": not mismatches, "mismatches": mismatches, "sporadic_notes": sporadic,
    }


def fricke_by_R5_norm(p: int) -> dict:
    """``verify_fricke(p)`` from ss5star_p itself, built by ``build_ss5star``
    as the squarefree part of Res_X(ss_p, R5): its degree, its linear factors
    as deg gcd(ss5star_p, Y^p - Y), and the check ss5star_p | Y^(p^2) - Y."""
    from hasse5 import modpoly as mp
    from hasse5.fricke import L5star_formula, RootOutsideQuadraticField, build_ss5star, degree_formula

    f = build_ss5star(p)
    y = mp.rem([0, 1], f, p)
    yp = mp.pow_mod(y, p, f, p)
    if mp.pow_mod(yp, p, f, p) != y:
        raise RootOutsideQuadraticField(f"p={p}: ss5star_p does not divide Y^(p^2) - Y")
    degree, linear = mp.deg(f), mp.deg(mp.gcd(f, mp.sub(yp, y, p), p))
    want = degree_formula(p), L5star_formula(p)
    return {
        "p": p, "degree_found": degree, "degree_formula": want[0], "linear_found": linear,
        "linear_formula": want[1], "match": (degree, linear) == want,
    }


def fricke_values_from_R5(p: int, js) -> set:
    """Distinct roots of R5(j, .) over the supersingular j in ``js``, as
    coordinates of F_{p^2} elements.

    Conjugate j-invariants give Frobenius-conjugate root sets, so only one
    representative per Frobenius orbit is solved directly.
    """
    from hasse5 import fricke
    from hasse5.ffactor import roots_in
    from hasse5.fp import make_extension

    fld = make_extension(p, 2)
    out = set()
    seen = set()
    for j in js:
        if j.coords in seen:
            continue
        jp = j**p
        seen.add(j.coords)
        seen.add(jp.coords)
        f = [fld.embed(c % p) for c in fricke.R5_C]
        for k, b in enumerate(fricke.R5_B):
            f[k] = f[k] - j * b
        f[0] = f[0] + j * j
        # containment in F_{p^2}: the roots found, with multiplicity, must
        # account for the whole (monic) degree
        found = roots_in(f, p)
        if sum(m for _, m in found) != len(f) - 1:
            raise fricke.RootOutsideQuadraticField(f"p={p}, j={j}: roots escape F_(p^2)")
        out.update(r.coords for r, _ in found)
        if jp != j:
            out.update((r**p).coords for r, _ in found)
    return out


def zparam_cross_check(p: int) -> bool:
    """ss5star_p again, through the z-parametrization.

    ss_p(j) = 0 at j = -ZP_JNUM(z) / ZP_LIN(z) exactly when S(z) = 0, S the
    numerator of ss_p(j(z)), and j5*(z) = Y exactly when z is a root of
    ZP_YNUM(z) + Y ZP_LIN(z) = z^2 + Y z + 11Y + 4.  (z = -11 never lies on
    it, as it gives 125 = 0.)  So the j5* values are the roots of
    Res_z(S(z), z^2 + Y z + 11Y + 4), a norm of degree 6 deg ss_p.
    """
    from hasse5 import fricke, modpoly as mp
    from hasse5.hasse import build_ss

    ss = build_ss(p)
    S = compose_rational(ss, mp.from_int_poly([-c for c in fricke.ZP_JNUM], p), list(fricke.ZP_LIN), p)
    B = mp.from_int_poly((-fricke.ZP_YNUM[1], -fricke.ZP_LIN[1]), p)
    C = mp.from_int_poly((fricke.ZP_YNUM[0], fricke.ZP_LIN[0]), p)
    norm = fricke._quadratic_norm(S, B, C, p)
    if mp.deg(norm) != 6 * mp.deg(ss):
        return False
    return mp.monic(mp.quo(norm, mp.gcd(norm, mp.deriv(norm, p), p), p), p) == fricke.build_ss5star(p)


def icosa_resultant_bareiss(m1, m2, variant: str = "eps"):
    """``icosa_resultant(m1, m2, variant)`` with the Sylvester determinant
    taken by Bareiss elimination over Z[zeta_5][x]."""
    from hasse5.icosa import resultant_divisor, surface_pair
    from hasse5.numfield import CycNum
    from hasse5.poly import det_bareiss, sylvester

    divisor = resultant_divisor(m1, m2)
    det = det_bareiss(sylvester(*surface_pair(m1, m2, variant)))
    return det.map(lambda c: (c if isinstance(c, CycNum) else CycNum(c)) / divisor)


def resultant_mod_by_kronecker(a: list, b: list, g: list, p: int) -> np.ndarray:
    """``cycres._resultant_mod`` at the one prime p, as [x-degree][zeta-power],
    by convolution in place of values at points: each embedding of G is
    packed into one array (Kronecker: y^j x^i at j W + i, W the x-length of
    N's coefficients), its five rotations y -> r^i y are multiplied by int64
    convolution, and the sum is taken by Horner in -A and B over polynomials
    in x.  ``cycres._mul_mod`` needs every convolved array shorter than
    2^16, so (5d + 1) W < 2^16 and W + d len(a) < 2^16."""
    from hasse5.cycres import _conjugates, _coordinates, _mul_mod, _residues, _root5

    r = _root5(p)
    d, w = len(g) - 1, len(g[0])
    width = 5 * w - 4  # the x-length of N's coefficients
    emb_a, emb_b = (_conjugates(_residues(c, [p]), [p])[0] for c in (a, b))  # [k-1][x-degree]
    emb_g = np.zeros((4, d + 1, width), dtype=np.int64)
    emb_g[:, :, :w] = _conjugates(_residues(g, [p]), [p])[0]  # [k-1][y-degree][x-degree]
    rotations = [np.array([pow(r, i * j, p) for j in range(d + 1)], dtype=np.int64)[:, None] for i in range(1, 5)]
    out = []
    for ak, bk, gk in zip(emb_a, emb_b, emb_g):
        n = gk.ravel()[: d * width + w]
        for rot in rotations:
            n = _mul_mod(n, (gk * rot % p).ravel()[: d * width + w], p)
        res, b_pow, neg_a = n[5 * d * width :], bk, -ak % p  # N_d
        for m in range(d - 1, -1, -1):  # res <- res (-A) + N_m B^(d-m)
            res = (_mul_mod(res, neg_a, p) + _mul_mod(n[5 * m * width : (5 * m + 1) * width], b_pow, p)) % p
            b_pow = _mul_mod(b_pow, bk, p)
        out.append(res)
    return _coordinates(np.array(out)[None], [p])[0].T
