"""The icosahedral Moebius group over Q(zeta_5) and its resultant calculus.

The group G60 = <S, T> (Fricke's normal form of A_5) acts by linear fractional
maps with coefficients in Q(zeta_5).  This module verifies the generator
relations, the quartic-resolvent and tau-covariance identities behind the
special factor families, the large exact resultants

    R_{M1,M2} = Res_y(x^5 + y^5 - e5 (1 - x^5 y^5),
                      (c1 x + d1)^5 (c2 y + d2)^5
                      (M1(x)^5 + M2(y)^5 - e5 (1 - M1(x)^5 M2(y)^5)))

(and the companion Rbar with ebar5 in the second argument), and, as an
identity over Q(zeta_5)[x] for the two generators, that G60 fixes j5(x^5), so
that the 60 roots of G(x^5, j) form a single G60-orbit.

Each resultant is a 10x10 Sylvester determinant over Z[zeta_5][x], after
clearing the single denominator 2, computed multimodularly by
:mod:`hasse5.cycres`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from . import VerificationError
from .fp import golden_units, make_extension
from .hasse import g_of_xj_coeffs
from .numfield import CycNum
from .poly import Poly, compose_rational, galois_norm


class RelationFailure(VerificationError):
    pass


class MobiusMap:
    """(a x + b) / (c x + d) with CycNum entries, compared projectively.

    ``den`` records an implicit scalar: the map's reduced matrix is the stored
    one divided by ``den``.  The resultant calculus is sensitive to the matrix
    representative (through the denominator-clearing factors), and the
    reference constants correspond to the fully reduced representatives
    (integral entries with no common divisor); storing a small integral
    multiple instead keeps the whole elimination inside Z[zeta].
    """

    __slots__ = ("a", "b", "c", "d", "den")

    def __init__(self, a, b, c, d, den=1):
        self.a, self.b, self.c, self.d = (_cyc(v) for v in (a, b, c, d))
        self.den = _cyc(den)
        if (self.a * self.d - self.b * self.c) == 0:
            raise ValueError("singular map")

    def key(self) -> tuple:
        """Projective normal form: scale so the first nonzero entry is 1."""
        for v in (self.a, self.b, self.c, self.d):
            if not v == 0:
                return tuple((w / v).c for w in (self.a, self.b, self.c, self.d))
        raise VerificationError("Moebius map with all entries zero")

    def __eq__(self, other) -> bool:
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.den * other.den,
        )

    def inv(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def galois(self, k: int) -> "MobiusMap":
        return MobiusMap(*(v.galois(k) for v in (self.a, self.b, self.c, self.d)))

    def __pow__(self, e: int) -> "MobiusMap":
        out = identity_map()
        base = self if e >= 0 else self.inv()
        for _ in range(abs(e)):
            out = out * base
        return out

    def __repr__(self):
        return f"Mobius({self.a},{self.b};{self.c},{self.d})"


def _cyc(v) -> CycNum:
    return v if isinstance(v, CycNum) else CycNum(v)


def identity_map() -> MobiusMap:
    return MobiusMap(1, 0, 0, 1)


@lru_cache(maxsize=1)
def generators() -> dict[str, MobiusMap]:
    z = CycNum.zeta()
    s5 = CycNum.sqrt5()
    one = CycNum(1)
    return {
        "S": MobiusMap(z, 0, 0, one),
        "T": MobiusMap(-(one + s5), CycNum(2), CycNum(2), one + s5, den=2),
        "U": MobiusMap(0, CycNum(-1), one, 0),
        "A": MobiusMap(z**3 * (one + z), z**3, one, -(one + z**4)),
    }


def closure(gens: list[MobiusMap]) -> list[MobiusMap]:
    seen = {identity_map().key(): identity_map()}
    frontier = [identity_map()]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                n = m * g
                k = n.key()
                if k not in seen:
                    seen[k] = n
                    new.append(n)
        frontier = new
    return list(seen.values())


def verify_group_relations() -> bool:
    """Generator relations, group orders, and the coset-representative claims."""
    g = generators()
    S, T, U, A = g["S"], g["T"], g["U"], g["A"]
    ident = identity_map()

    def req(cond: bool, name: str):
        if not cond:
            raise RelationFailure(name)

    req(S**5 == ident, "S^5 = 1")
    req(T * T == ident, "T^2 = 1")
    req(U * U == ident, "U^2 = 1")
    req(A * A * A == ident, "A^3 = 1")
    req(A == S * T * S**-2, "A = S T S^-2")
    req(A.galois(2) == A.inv() * U, "A^sigma = A^-1 U")
    req(A * T * A.inv() == U, "A T A^-1 = U")
    tu = T * U
    req(A * U * A.inv() == tu, "A U A^-1 = TU")
    req(tu == U * T, "TU = UT")

    g60 = closure([S, T])
    req(len(g60) == 60, "|<S,T>| = 60")
    g10 = closure([S, U])
    req(len(g10) == 10, "|<S,U>| = 10")
    h4 = closure([T, U])
    req(len(h4) == 4, "|<T,U>| = 4")
    a4 = closure([T, U, A])
    req(len(a4) == 12, "|<T,U,A>| = 12")
    orders = sorted(_order(m) for m in a4)
    req(orders == [1] + [2] * 3 + [3] * 8, "<H,A> has A_4 element orders")

    # left cosets of H = <T,U>: the 15 maps S^i A^k are pairwise inequivalent
    reps = [S**i * A**k for i in range(5) for k in range(3)]
    left_keys = {_coset_key([m * h for h in h4]) for m in reps}
    req(len(left_keys) == 15, "S^i A^k hit 15 distinct left cosets of H")

    # right cosets of G10: the 6 maps T^i A^k are pairwise inequivalent
    reps6 = [T**i * A**k for i in range(2) for k in range(3)]
    right_keys = {_coset_key([h * m for h in g10]) for m in reps6}
    req(len(right_keys) == 6, "T^i A^k hit 6 distinct right cosets of G10")
    return True


def _order(m: MobiusMap) -> int:
    ident = identity_map()
    cur = m
    for k in range(1, 61):
        if cur == ident:
            return k
        cur = cur * m
    raise VerificationError("order exceeds 60")


def _coset_key(maps: list[MobiusMap]) -> tuple:
    return tuple(sorted(m.key() for m in maps))


# ---------------------------------------------------------------------------
# Resolvent of the quartic family and the tau-covariance identities (exact,
# over Q(sqrt 5) inside Q(zeta_5), with the parameter symbolic).


def resolvent_theta_identity() -> bool:
    """Theta2 * Theta3 = (a^2/16)(a^2 - 44a - 16) = -(a^2/4) Theta1, with a symbolic."""
    e5, e5b = CycNum.eps5(), CycNum.eps5bar()
    a = Poly([CycNum(0), CycNum(1)])
    quarter = CycNum(Fraction(1, 4))
    th1 = -(a * a - 44 * a - 16) * quarter
    th2 = -(a * (a * quarter + e5b))
    th3 = -(a * (a * quarter + e5))
    lhs = th2 * th3
    rhs = a * a * (a * a - 44 * a - 16) * CycNum(Fraction(1, 16))
    return lhs == rhs and lhs == -(a * a) * quarter * th1


def resolvent_identities(l: int, trials: int) -> bool:
    """Sample the quartic-root construction over F_{l^2} and check the pairing
    identities and the reciprocal relations on the roots."""
    if l % 5 not in (1, 4):
        raise ValueError("needs l = +-1 mod 5")
    fld = make_extension(l, 2)
    pair = golden_units(l)
    e5, e5b = fld.embed(pair.eps5), fld.embed(pair.eps5bar)
    inv4 = fld.embed(pow(4, l - 2, l))
    inv2 = fld.embed(pow(2, l - 2, l))
    rng = random.Random(l * 1000003 + trials)
    done = 0
    while done < trials:
        a = fld.embed(rng.randrange(1, l))
        disc_part = a * a - 44 * a - 16
        if disc_part.is_zero():
            continue
        th1 = -(disc_part) * inv4
        th2 = -(a * (a * inv4 + e5b))
        th3 = -(a * (a * inv4 + e5))
        if th2.is_zero() or th3.is_zero():
            continue
        s2 = (-th2).sqrt()
        s3 = (-th3).sqrt()
        if s2 is None or s3 is None:
            raise VerificationError(f"a base-field value is not a square in F_({l}^2)")
        # coefficient of y in g(y - a/4): a^3/8 - (11/2) a^2 - 2a
        qcoef = a * a * a * inv2 * inv4 - 11 * a * a * inv2 - 2 * a
        if s2.is_zero() or s3.is_zero() or qcoef.is_zero():
            continue
        s1 = qcoef / (s2 * s3)
        if s1 * s1 != -th1:
            return False
        quart = [fld.one(), -a, 11 * a + 2, a, fld.one()]  # ascending

        def geval(x):
            acc = fld.zero()
            for c in reversed(quart):
                acc = acc * x + c
            return acc

        base = -a * inv4
        r1 = base + (-s1 + s2 + s3) * inv2
        r2 = base + (s1 + s2 - s3) * inv2
        r3 = base - (s1 + s2 + s3) * inv2
        r4 = base + (s1 - s2 + s3) * inv2
        for r in (r1, r2, r3, r4):
            if not geval(r).is_zero():
                return False
        for x, y, eps in ((r1, r4, e5), (r2, r3, e5), (r1, r2, e5b), (r3, r4, e5b)):
            if -(x + y) != eps * (x * y - 1):
                return False
        if r1.is_zero() or r2.is_zero():
            continue
        if r3 != -(1 / r1) or r4 != -(1 / r2):
            return False
        done += 1
    return True


def tau_covariance() -> bool:
    """The exact covariance identities of the factor families under
    tau(x) = (-x + e5)/(e5 x + 1), with the family parameter symbolic."""
    e5, e5b = CycNum.eps5(), CycNum.eps5bar()
    one = CycNum(1)
    s5 = CycNum.sqrt5()

    # quartic family, parameter a: (e5 x + 1)^4 g(tau(x)) = 125 e5^2 g(x)
    a = Poly([CycNum(0), one])
    gpoly = Poly([Poly([one]), -a, 11 * a + 2, a, Poly([one])])
    num = Poly([Poly([e5]), Poly([-one])])
    den = Poly([Poly([one]), Poly([e5])])
    lhs = compose_rational(gpoly, num, den)
    if lhs != gpoly * Poly([125 * e5 * e5]):
        return False

    # quadratic family, parameter s with r = e5 (s - 1):
    # (e5 x + 1)^2 k(tau(x)) = 5 sqrt(5) e5 k(x)
    s = Poly([CycNum(0), one])
    kpoly = Poly([s, (s - 1) * e5, Poly([one])])
    lhs2 = compose_rational(kpoly, num, den)
    if lhs2 != kpoly * Poly([5 * s5 * e5]):
        return False

    # fixed-point quadratic x^2 - 2 ebar5 x - 1: tau fixes its root set
    kfix = Poly([-one, -2 * e5b, one])
    lhs3 = compose_rational(kfix, Poly([e5, -one]), Poly([one, e5]))
    lam = lhs3.lc() / kfix.lc()
    return lhs3 == kfix * lam


# ---------------------------------------------------------------------------
# The exact cyclotomic resultants.


def _pow5_linear(a: CycNum, b: CycNum) -> Poly:
    """(a x + b)^5 over CycNum."""
    return Poly([b, a]) ** 5


def surface_pair(m1: MobiusMap, m2: MobiusMap, variant: str = "eps") -> tuple[Poly, Poly]:
    """2*P1 and 2*P2, the invariant-surface polynomial and its (M1, M2)-transform,
    as polynomials in y over Z[zeta][x]."""
    e5 = CycNum.eps5()
    ebar = CycNum.eps5bar() if variant == "epsbar" else e5
    two = CycNum(2)

    # 2*P1 as a polynomial in y over Z[zeta][x]
    zero = Poly()
    x5_2 = Poly([-(two * e5), 0, 0, 0, 0, two])  # 2 x^5 - 2 e5
    y5c = Poly([two, 0, 0, 0, 0, two * e5])  # 2 + 2 e5 x^5
    p1 = Poly([x5_2, zero, zero, zero, zero, y5c])

    # 2*P2 = u(x) (c2 y + d2)^5 + v(x) (a2 y + b2)^5 with
    # u = 2 (a1 x + b1)^5 - 2 ebar (c1 x + d1)^5, v = 2 (c1 x + d1)^5 + 2 ebar (a1 x + b1)^5
    ax1 = _pow5_linear(m1.a, m1.b)
    cx1 = _pow5_linear(m1.c, m1.d)
    u = ax1 * two - cx1 * (two * ebar)
    v = cx1 * two + ax1 * (two * ebar)
    cy2 = _pow5_linear(m2.c, m2.d)
    ay2 = _pow5_linear(m2.a, m2.b)
    rows = []
    for k in range(6):
        rows.append(u * cy2[k] + v * ay2[k])
    p2 = Poly(rows)
    return p1, p2


def resultant_divisor(m1: MobiusMap, m2: MobiusMap) -> CycNum:
    """2^10 from clearing the half-integral eps constants, den^25 per matrix:
    the clearing factors enter to the 5th power in y and the resultant raises
    the second argument's scale to deg_y(P1) = 5 (and vice versa)."""
    return (m1.den * m2.den) ** 25 * 1024


def icosa_resultant(m1: MobiusMap, m2: MobiusMap, variant: str = "eps") -> Poly:
    """Res_y of the invariant-surface polynomial against its (M1, M2)-transform.

    variant 'eps' uses e5 in the transformed argument, 'epsbar' uses ebar5.
    Returns a Poly in x with CycNum coefficients.
    """
    from . import cycres  # here, not at the top: only the ledger needs it, so CLI startup skips it

    divisor = resultant_divisor(m1, m2)
    return cycres.resultant(*surface_pair(m1, m2, variant)).map(lambda c: c / divisor)


def norm_to_Q(f: Poly) -> Poly:
    """Product of the four Galois conjugates of a CycNum-coefficient polynomial;
    the result must have rational coefficients."""
    return galois_norm(f.map(_cyc))


# irreducible blocks read from the two fully printed resultants (ascending)
P_D: dict[int, tuple[int, ...]] = {
    4: (1, 0, 1),
    11: (1, 1, 1, -1, 1),
    16: (1, 2, 0, -2, 1),
    19: (1, -1, 3, 1, 1),
    64: (1, -4, 10, -8, 12, 8, 10, 4, 1),
    99: (1, -7, 15, -15, 16, 15, 15, 7, 1),
    84: (1, -2, -4, 12, 25, 18, 68, 112, 13, -112, 68, -18, 25, -12, -4, 2, 1),
    24: (1, 2, 1, 4, 3, -4, 1, -2, 1),
    36: (1, 0, 1, 6, 9, -6, 1, 0, 1),
    51: (1, -1, 1, 7, 12, -7, 1, 1, 1),
    91: (1, -4, -1, 14, 23, -14, -1, 4, 1),
    96: (1, -4, 0, 0, 29, 24, 86, 32, 105, -32, 86, -24, 29, 0, 0, 4, 1),
}


def p_d(d: int) -> Poly:
    return Poly(P_D[d])


def q_d(d: int) -> Poly:
    """q_d(x) = prod_{i=1..4} p_d(zeta^i x), the norm of p_d(zeta x)."""
    z = CycNum.zeta()
    return galois_norm(Poly([c * z**k for k, c in enumerate(P_D[d])]))


def expected_R_TT() -> Poly:
    out = Poly([0, 5**15]) * Poly([-1, 1, 1])
    for d in (4, 11, 16, 19, 64, 99, 84):
        out = out * p_d(d)
    return out.map(_cyc)


def expected_R_TTA2() -> Poly:
    out = Poly([CycNum.eps5() ** 5 * 5**15])
    for d in (4, 24, 36, 51, 91, 96):
        out = out * p_d(d)
    return out


def expected_Rbar_TT() -> Poly:
    out = Poly([-(CycNum.eps5bar() ** 5) * 5**15])
    for d in (4, 24, 36, 51, 91, 96):
        out = out * p_d(d)
    return out


def expected_norm_R_AA() -> Poly:
    out = Poly([0, 0, 0, 0, 5**60]) * Poly([1, -2, 4, -3, 1]) * Poly([1, 3, 4, 2, 1])
    for d in (4, 11, 16, 19, 64, 84, 99):
        out = out * q_d(d)
    return out


def coset_maps() -> dict[str, MobiusMap]:
    """The five nontrivial coset representatives T^i A^k with their reduced-
    representative denominators.

    Composition introduces common entry divisors; dividing them out gives the
    coprime integral matrices the reference constants correspond to.  The
    divisors below are verified in the tests: entries/den are integral with
    norm-gcd 1.
    """
    g = generators()
    T, A = g["T"], g["A"]
    eps = (CycNum(-1) + CycNum.sqrt5()) / 2
    tau = CycNum(1) - CycNum.zeta()
    a2 = A * A
    ta = T * A
    ta2 = T * A * A
    a2.den = -(tau / eps)
    ta.den = CycNum(2) * tau / eps
    ta2.den = CycNum(2) * tau * tau / eps**3
    return {"T": T, "A": A, "A2": a2, "TA": ta, "TA2": ta2}


def equality_ledger() -> dict[str, bool]:
    """The displayed identities among the resultant family (the heavy suite)."""
    maps = coset_maps()
    T, A, A2, TA, TA2 = (maps[k] for k in ("T", "A", "A2", "TA", "TA2"))
    r_tt = icosa_resultant(T, T)
    out = {
        "R_TT_printed": r_tt == expected_R_TT(),
        "R_TTA2_printed": icosa_resultant(T, TA2) == expected_R_TTA2(),
        "Rbar_TT_printed": icosa_resultant(T, T, "epsbar") == expected_Rbar_TT(),
        "Rbar_TTA2_is_minus_R_TT": icosa_resultant(T, TA2, "epsbar") == -r_tt,
        "R_TA_eq_R_TT": icosa_resultant(T, A) == r_tt,
        "R_TTA_eq_R_TT": icosa_resultant(T, TA) == r_tt,
        "R_TA2_eq_R_TT": icosa_resultant(T, A2) == r_tt,
    }
    n_aa = norm_to_Q(icosa_resultant(A, A))
    out["N_R_AA_printed"] = n_aa == expected_norm_R_AA()
    out["N_R_A2A2"] = norm_to_Q(icosa_resultant(A2, A2)) == n_aa
    out["N_R_TATA"] = norm_to_Q(icosa_resultant(TA, TA)) == n_aa
    out["N_R_TA2TA2"] = norm_to_Q(icosa_resultant(TA2, TA2)) == n_aa
    return out


# ---------------------------------------------------------------------------
# The orbit property of G(x^5, j).


def orbit_property() -> bool:
    """G60 fixes j5(x^5), where G(x, j) = gnum(x) - j gden(x) and j5 = gnum/gden.

    For M in {S, T}, with N = (a x + b)^5 and D = (c x + d)^5, this is the
    identity D^12 gnum(N/D) gden(x^5) = gnum(x^5) D^12 gden(N/D) in
    Q(zeta_5)[x] (deg gnum = 12, deg gden = 11).  S and T generate G60
    (``verify_group_relations``), so every M(alpha), M in G60, is a root of
    G(x^5, j5(alpha^5)), which has degree 60 in x.  Two distinct maps agree at
    two points at most, so for all but finitely many alpha these are the 60
    roots: they form one G60-orbit.
    """
    g = generators()
    gnum, gden = (Poly(c).map(_cyc) for c in g_of_xj_coeffs())
    gnum5, gden5 = (Poly([c for a in f.c for c in (a, 0, 0, 0, 0)]) for f in (gnum, gden))
    for m in (g["S"], g["T"]):
        num, den = _pow5_linear(m.a, m.b), _pow5_linear(m.c, m.d)
        if compose_rational(gnum, num, den) * gden5 != gnum5 * den * compose_rational(gden, num, den):
            return False
    return True
