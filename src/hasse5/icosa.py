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

Each resultant is taken over Z[zeta_5][x], multimodularly by
:mod:`hasse5.cycres`.  The maps are stored as their reduced integral
matrices, and e5, ebar5 lie in Z[zeta_5], so the surface pair is integral as
it stands and nothing is divided out.  The surface polynomial is the
binomial A + B y^5 in y, so against G of degree d in y the resultant is
sum_m N_m (-A)^m B^(d-m), with N(y^5) = prod_i G(zeta^i y), and no Sylvester
matrix is eliminated.  Modulo each prime that sum is taken at the points
x = 0..D, D the resultant's degree bound, and interpolated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import VerificationError
from .hasse import g_of_xj_coeffs
from .numfield import CycNum
from .poly import Poly, compose_rational


class RelationFailure(VerificationError):
    pass


class MobiusMap:
    """(a x + b) / (c x + d) with CycNum entries, compared projectively.

    Equality ignores a scalar factor, but the resultant calculus does not:
    scaling either matrix by lambda scales R_{M1,M2} by lambda^25.  The
    reference constants correspond to the reduced representatives, integral
    with no common divisor, which ``coset_maps`` stores.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (_cyc(v) for v in (a, b, c, d))
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
    one = CycNum(1)
    phi = (one + CycNum.sqrt5()) / 2
    return {
        "S": MobiusMap(z, 0, 0, one),
        "T": MobiusMap(-phi, one, one, phi),
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


# g_a(x) = x^4 + a x^3 + (11a + 2) x^2 - a x + 1: the coefficient of x^k is
# G_A[k][0] + G_A[k][1] a.
G_A = ((1, 0), (0, -1), (2, 11), (0, 1), (1, 0))
# theta_1 = -(a^2 - 44a - 16)/4, ascending in a
THETA1 = (4, 11, Fraction(-1, 4))


def _thetas(a: Poly) -> tuple[Poly, Poly, Poly]:
    """theta_1 and theta_2, theta_3 = -a (a/4 + e) for e = ebar5, e5, as
    polynomials in a = Poly([0, 1])."""
    quarter = CycNum(Fraction(1, 4))
    th1 = Poly([CycNum(c) for c in THETA1])
    return th1, -(a * (a * quarter + CycNum.eps5bar())), -(a * (a * quarter + CycNum.eps5()))


def resolvent_theta_identity() -> bool:
    """Theta2 * Theta3 = (a^2/16)(a^2 - 44a - 16) = -(a^2/4) Theta1, with a symbolic."""
    a = Poly([CycNum(0), CycNum(1)])
    th1, th2, th3 = _thetas(a)
    lhs = th2 * th3
    rhs = a * a * (a * a - 44 * a - 16) * CycNum(Fraction(1, 16))
    return lhs == rhs and lhs == -(a * a) * CycNum(Fraction(1, 4)) * th1


def _resolvent_cubic_holds() -> bool:
    """With g_a(y - a/4) = y^4 + P y^2 + Q y + R, the resolvent cubic
    u^3 + 2P u^2 + (P^2 - 4R) u - Q^2 is (u + theta1)(u + theta2)(u + theta3)
    in Q(zeta_5)[a][u]: its roots -theta_i are the squares (y_1 + y_k)^2,
    k = 2, 3, 4, of Ferrari's construction.  The census criterion rests on
    this identity: over F_l, l = 2, 3 mod 5, a divisor g_a of the Hasse
    invariant is irreducible exactly when -theta_1 = (a^2 - 44a - 16)/4 is a
    non-residue (``census.find_g_factors``)."""
    one = Poly([CycNum(1)])
    a = Poly([CycNum(0), CycNum(1)])
    g = Poly([c0 + c1 * a for c0, c1 in G_A])
    shifted = compose_rational(g, Poly([a * Fraction(-1, 4), one]), one)  # g_a(y - a/4)
    if shifted[3] != 0:
        return False
    R, Q, P = shifted[0], shifted[1], shifted[2]
    product = one
    for th in _thetas(a):
        product = product * Poly([th, one])
    return product == Poly([-(Q * Q), P * P - 4 * R, 2 * P, one])


def _quadratic_pairing_holds() -> bool:
    """s g_a(x) = (x^2 + e(s-1) x + s)(s x^2 - e(s-1) x + 1) in Q(zeta_5)[s][x]
    where s a = e (s-1)^2, for e = e5 and e = ebar5.

    The roots x, y of the first factor satisfy -(x + y) = e (x y - 1), and
    the second factor's roots are -1/x and -1/y: the pairing and reciprocal
    relations among the roots of g_a."""
    one = Poly([CycNum(1)])
    s = Poly([CycNum(0), CycNum(1)])
    for e in (CycNum.eps5(), CycNum.eps5bar()):
        r = (s - 1) * e
        scaled = Poly([s * c0 + r * (s - 1) * c1 for c0, c1 in G_A])
        if scaled != Poly([s, r, one]) * Poly([one, -r, s]):
            return False
    return True


def resolvent_identities() -> bool:
    """The quartic family's resolvent cubic and its split into the quadratic
    family, as exact identities over Q(zeta_5)."""
    return _resolvent_cubic_holds() and _quadratic_pairing_holds()


def tau_covariance() -> bool:
    """The exact covariance identities of the factor families under
    tau(x) = (-x + e5)/(e5 x + 1), with the family parameter symbolic."""
    e5, e5b = CycNum.eps5(), CycNum.eps5bar()
    one = CycNum(1)
    s5 = CycNum.sqrt5()

    # quartic family, parameter a: (e5 x + 1)^4 g(tau(x)) = 125 e5^2 g(x)
    a = Poly([CycNum(0), one])
    gpoly = Poly([c0 + c1 * a for c0, c1 in G_A])
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
    """P1 and P2, the invariant-surface polynomial and its (M1, M2)-transform,
    as polynomials in y over Z[zeta][x]."""
    e5 = CycNum.eps5()
    ebar = CycNum.eps5bar() if variant == "epsbar" else e5

    # P1 = (x^5 - e5) + (1 + e5 x^5) y^5
    zero = Poly()
    p1 = Poly([Poly([-e5, 0, 0, 0, 0, 1]), zero, zero, zero, zero, Poly([1, 0, 0, 0, 0, e5])])

    # P2 = u(x) (c2 y + d2)^5 + v(x) (a2 y + b2)^5 with
    # u = (a1 x + b1)^5 - ebar (c1 x + d1)^5, v = (c1 x + d1)^5 + ebar (a1 x + b1)^5
    ax1 = _pow5_linear(m1.a, m1.b)
    cx1 = _pow5_linear(m1.c, m1.d)
    u = ax1 - cx1 * ebar
    v = cx1 + ax1 * ebar
    cy2 = _pow5_linear(m2.c, m2.d)
    ay2 = _pow5_linear(m2.a, m2.b)
    p2 = Poly([u * cy2[k] + v * ay2[k] for k in range(6)])
    return p1, p2


def icosa_resultant(m1: MobiusMap, m2: MobiusMap, variant: str = "eps") -> Poly:
    """Res_y of the invariant-surface polynomial against its (M1, M2)-transform.

    variant 'eps' uses e5 in the transformed argument, 'epsbar' uses ebar5.
    Returns a Poly in x with CycNum coefficients.  A map with a coordinate
    outside Z[zeta_5] raises VerificationError.
    """
    from . import cycres  # here, not at the top: only the ledger needs it, so CLI startup skips it

    return cycres.resultant(*surface_pair(m1, m2, variant))


def norm_to_Q(f: Poly) -> Poly:
    """N(f) = prod_{k=1..4} f(zeta -> zeta^k) in Z[x], for f with CycNum or
    int coefficients over Z[zeta_5], by ``cycres.norm``: lifted from the
    product of the four embeddings of f modulo primes p = 1 mod 5, and
    checked exactly in degree, leading and constant coefficient.  A failed
    check, or a coordinate that is not an integer, raises VerificationError."""
    from . import cycres  # lazily, as in icosa_resultant

    return cycres.norm(f)


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
    return norm_to_Q(Poly([c * z**k for k, c in enumerate(P_D[d])]))


def expected_R_TT() -> Poly:
    out = Poly([0, 5**15]) * Poly([-1, 1, 1])
    for d in (4, 11, 16, 19, 64, 99, 84):
        out = out * p_d(d)
    return out.map(_cyc)


def _tta2_block() -> Poly:
    """5^15 p_4 p_24 p_36 p_51 p_91 p_96 over Z, which R_TTA2 and Rbar_TT
    scale by the units eps5^5 and -eps5bar^5."""
    out = Poly([5**15])
    for d in (4, 24, 36, 51, 91, 96):
        out = out * p_d(d)
    return out


def expected_R_TTA2() -> Poly:
    unit = CycNum.eps5() ** 5
    return _tta2_block().map(lambda c: unit * c)


def expected_Rbar_TT() -> Poly:
    unit = -(CycNum.eps5bar() ** 5)
    return _tta2_block().map(lambda c: unit * c)


def expected_norm_R_AA() -> Poly:
    out = Poly([0, 0, 0, 0, 5**60]) * Poly([1, -2, 4, -3, 1]) * Poly([1, 3, 4, 2, 1])
    for d in (4, 11, 16, 19, 64, 84, 99):
        out = out * q_d(d)
    return out


def coset_maps() -> dict[str, MobiusMap]:
    """The five nontrivial coset representatives T^i A^k as reduced matrices.

    Composition introduces common entry divisors: A A, T A and T A A are
    divided once by -tau/eps, tau/eps and tau^2/eps^3, for tau = 1 - zeta and
    eps = (-1 + sqrt 5)/2, which leaves coprime integral matrices, the
    representatives the reference constants correspond to.  The tests check
    that the entries are integral with norm-gcd 1.
    """
    g = generators()
    T, A = g["T"], g["A"]
    eps = (CycNum(-1) + CycNum.sqrt5()) / 2
    tau = CycNum(1) - CycNum.zeta()
    return {
        "T": T,
        "A": A,
        "A2": _divided(A * A, -(tau / eps)),
        "TA": _divided(T * A, tau / eps),
        "TA2": _divided(T * A * A, tau * tau / eps**3),
    }


def _divided(m: MobiusMap, s: CycNum) -> MobiusMap:
    return MobiusMap(*(v / s for v in (m.a, m.b, m.c, m.d)))


def ledger_checks() -> dict[str, Callable[[], bool]]:
    """The displayed identities among the resultant family (the heavy suite),
    each a check of its own.  The checks share one computation of each
    resultant and each norm, so a ``VerificationError`` raised by one of them
    fails only the checks that read it."""
    maps = coset_maps()

    @lru_cache(maxsize=None)
    def res(m1: str, m2: str, variant: str = "eps") -> Poly:
        return icosa_resultant(maps[m1], maps[m2], variant)

    @lru_cache(maxsize=None)
    def norm(m: str) -> Poly:
        return norm_to_Q(res(m, m))

    return {
        "R_TT_printed": lambda: res("T", "T") == expected_R_TT(),
        "R_TTA2_printed": lambda: res("T", "TA2") == expected_R_TTA2(),
        "Rbar_TT_printed": lambda: res("T", "T", "epsbar") == expected_Rbar_TT(),
        "Rbar_TTA2_is_minus_R_TT": lambda: res("T", "TA2", "epsbar") == -res("T", "T"),
        "R_TA_eq_R_TT": lambda: res("T", "A") == res("T", "T"),
        "R_TTA_eq_R_TT": lambda: res("T", "TA") == res("T", "T"),
        "R_TA2_eq_R_TT": lambda: res("T", "A2") == res("T", "T"),
        "N_R_AA_printed": lambda: norm("A") == expected_norm_R_AA(),
        "N_R_A2A2": lambda: norm("A2") == norm("A"),
        "N_R_TATA": lambda: norm("TA") == norm("A"),
        "N_R_TA2TA2": lambda: norm("TA2") == norm("A"),
    }


def equality_ledger() -> dict[str, bool]:
    """The displayed identities among the resultant family (the heavy suite)."""
    return {name: check() for name, check in ledger_checks().items()}


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
