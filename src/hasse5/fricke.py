"""The supersingular polynomial for the level-5 Fricke group.

ss5star_p(Y) is the monic squarefree polynomial over F_p whose roots are the
distinct values j5* in F-bar_p with R5(j, j5*) = 0 for some supersingular j,
where

    R5(X, Y) = X^2 - X (Y^5 - 80Y^4 + 1890Y^3 - 12600Y^2 + 7776Y + 3456)
             + (Y^2 + 216Y + 144)^3.

The verdict needs two counts of it, its degree and its number of linear
factors, and builds no Fricke polynomial for them.  ``verify_fricke`` reads
both off the census's fold P of the Hasse invariant and its conic hits
(``census._conic_hits``): j5* = Y(u) = -(u^2 + 4)/(u + 11) is the quotient of
the u-line by the Fricke involution sigma(u) = (4 - 11u)/(u + 11), so the
roots of ss5star_p are the sigma-orbits of roots of P (and Y = 0 for
p = 3 mod 4), and those with Y = a in F_p are the conics Q_a dividing P.  The
verdict also checks that P divides u^(p^2) - u, so that every j5* lies in
F_{p^2}.

Two constructions of ss5star_p itself that do not use H serve the tests.
``build_ss5star`` takes the squarefree part of Res_X(ss_p(X), R5(X, Y)) over
F_p.  The test oracle ``zparam_cross_check`` uses the genus-zero
parametrization (j, j5*) = (-(z^2+12z+16)^3/(z+11), -(z^2+4)/(z+11)) of the
Fricke curve (``ZP_JNUM``, ``ZP_LIN``, ``ZP_YNUM``): the same norm, taken of
ss_p(j(z)) (cleared of its denominator) over the quadratic z^2 + Y z + 11Y + 4
whose roots z have j5*(z) = Y, must have ss5star_p as its squarefree part
again.  The values j5* found one by one in F_{p^2}, from the supersingular j
that ``supersingular_j_fp2`` finds, are a test oracle for both.
"""

from __future__ import annotations

from . import VerificationError, modpoly as mp
from .classno import h5l, h_minus_p
from .ffactor import factor_ff, roots_in
from .census import _conic_hits, _squarefree_hasse
from .fp import FqElem, legendre, make_extension
from .hasse import build_ss
from .modeq import HD
from .poly import Poly, discriminant, resultant

# R5(X, Y) = X^2 - X * R5_B(Y) + R5_C(Y)
R5_B = (3456, 7776, -12600, 1890, -80, 1)
R5_C = tuple((Poly([144, 216, 1]) ** 3).c)

# z-parametrization numerators: j = -(z^2+12z+16)^3/(z+11), j5* = -(z^2+4)/(z+11)
ZP_JNUM = tuple((Poly([16, 12, 1]) ** 3).c)
ZP_LIN = (11, 1)
ZP_YNUM = (4, 0, 1)

# u^2 + 22u - 4: its roots 2e are the fixed points of the Fricke involution
# sigma(u) = (4 - 11u)/(u + 11) on the u-line of ``census._fold``
SIGMA_FIXED = (-4, 22, 1)


class RootOutsideQuadraticField(VerificationError):
    """A j5* value fell outside F_{p^2}."""


def supersingular_j_fp2(p: int) -> list[FqElem]:
    """The supersingular j-invariants as elements of F_{p^2}."""
    fld = make_extension(p, 2)
    ss = build_ss(p)
    js = []
    for coeffs, mult in factor_ff(ss, p).factors:
        if mult != 1:
            raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
        if len(coeffs) == 2:
            js.append(fld.embed((-coeffs[0]) % p))
        elif len(coeffs) == 3:
            for r, m in roots_in(list(coeffs), p):
                if m != 1:
                    raise VerificationError(f"repeated root of supersingular factor {coeffs} at p={p}")
                js.append(r)
        else:
            raise VerificationError(f"supersingular factor of degree > 2 at p={p}")
    return js



def _quadratic_norm(f: list[int], B: list[int], C: list[int], p: int) -> list[int]:
    """Res_X(f(X), X^2 - B(Y) X + C(Y)) in F_p[Y], for f in F_p[X].

    f is reduced modulo X^2 = B X - C, by Horner, to a(Y) X + b(Y).  If x1, x2
    are the roots in X, the norm (a x1 + b)(a x2 + b) is a^2 C + a b B + b^2.
    """
    a, b = [], []
    for c in reversed(f):
        a, b = mp.add(mp.mul(a, B, p), b, p), mp.sub([c], mp.mul(a, C, p), p)
    norm = mp.add(mp.mul(mp.mul(a, a, p), C, p), mp.mul(mp.mul(a, b, p), B, p), p)
    return mp.add(norm, mp.mul(b, b, p), p)


def build_ss5star(p: int) -> list[int]:
    """The Fricke supersingular polynomial over F_p (monic, squarefree).

    The roots of Res_X(ss_p, R5) are the j5* values.  A root's multiplicity is
    at most 12 (R5(j, Y) has degree 6, and at most two j share a j5*) and at
    most deg N = 6 deg ss_p, so it is below p except possibly at p = 11; then
    N / gcd(N, N') is the squarefree part.
    """
    ss = build_ss(p)
    norm = _quadratic_norm(ss, mp.from_int_poly(R5_B, p), mp.from_int_poly(R5_C, p), p)
    if mp.deg(norm) != 6 * mp.deg(ss) or norm[-1] != 1:
        raise VerificationError(f"p={p}: Res_X(ss_p, R5) is not monic of degree 6 deg ss_p")
    return mp.quo(norm, mp.gcd(norm, mp.deriv(norm, p), p), p)


def degree_formula(p: int) -> int:
    return (p - legendre(-1, p)) // 4 + (1 - legendre(-5, p)) // 2


def L5star_formula(p: int) -> int:
    """Predicted number of linear factors, from the class numbers h(-p), h(-5p).

    For p = 1 mod 4 and p = 3 mod 8 the formula divides by 4 or 2, and
    VerificationError is raised when the division is not exact.  For
    p = 7 mod 8 it is (1 + (p/5)) h(-p)/2 + h(-5p), an integer for every
    h(-p), as 1 + (p/5) is 0 or 2."""
    hp = h_minus_p(p)
    h5 = h5l(p)
    chi5 = legendre(p, 5)
    if p % 4 == 1:
        val4 = (1 + chi5) * hp + h5
        if val4 % 4:
            raise VerificationError(f"4 does not divide (1 + (p/5)) h(-p) + h(-5p) = {val4} at p={p}")
        return val4 // 4
    if p % 8 == 3:
        if h5 % 2:
            raise VerificationError(f"h(-5p) = {h5} is odd at p={p}")
        return (1 + chi5) * hp + h5 // 2
    return (1 + chi5) // 2 * hp + h5


def check_bounds(p: int) -> None:
    """Raise ``ValueError`` for a p past the int64 bounds of ``verify_fricke``,
    before the O(p) Hasse invariant: the conic sweep needs 3 p^2 < 2^63, and
    u^(p^2) mod P, of at most (p + 1)/2 coefficients (deg H < p), needs
    ``mp._np_ok((p + 1) // 2, p)``.  Both grow with p."""
    mp._check_sweep(2, p)
    mp._check_products((p + 1) // 2, p)


def verify_fricke(p: int) -> dict:
    """The degree and the number of linear factors of ss5star_p, read off the
    census's fold P of the Hasse invariant H and its conic hits, with no
    Fricke polynomial built, against their formulas: the JSON payload that
    ``hasse5 fricke`` prints.

    Let Y(u) = -(u^2 + 4)/(u + 11) and sigma(u) = (4 - 11u)/(u + 11).  As
    Q_a(u) = u^2 + a u + 11a + 4 = u^2 + 4 + a (u + 11), Y(u) = a exactly when
    Q_a(u) = 0, for u != -11.  The roots of Q_a are {u0, sigma(u0)} (their sum
    is -a, their product 11a + 4), so Y is the quotient by the involution
    sigma: Y(u) = Y(u') exactly when u' is u or sigma(u).  The fixed points
    of sigma are u = 2e, the roots of u^2 + 22u - 4, e a root of
    x^2 + 11x - 1; there, and only there, Q_a = (u - 2e)^2 with
    a = Y(2e), a root of a^2 - 44a - 16.

    * The roots of ss5star_p are Y(roots of P), plus Y = 0 exactly when
      x^2 + 1 | H, that is when deg H = 2 mod 4 (n odd in ``census._fold``).
      As deg H = 12 n_p + 4r + 6s (``hasse.build_hasse`` checks it), that
      is when s = 1, p = 3 mod 4.  The test oracle ``zparam_cross_check`` builds
      ss5star_p from S(z), the numerator of ss_p(j(z)), whose roots z are
      the b - 1/b for the supersingular parameters b, the roots of H: at
      z = b - 1/b, j(z) = -(z^2 + 12z + 16)^3/(z + 11) is j(b) of the curve
      with parameter b.  A root b != +-i gives a root b - 1/b of P;
      b = +-i gives z = +-2i and Y = 0.  No root of P is +-2i, as u - 2i = (x - i)^2 / x and H is
      squarefree, and none is -11, as x^2 + 11x - 1 shares no root with H
      (``census._squarefree_hasse`` certifies both).  So Y = 0 is not a
      Y-value of a root of P.
    * P is squarefree, as H is.  If the roots of P are closed under sigma,
      they fall into orbits of two points, except the fixed points u = 2e,
      the deg R roots of R = gcd(P, u^2 + 22u - 4).  So deg P + deg R is
      even (VerificationError if not), and ss5star_p has
      (deg P + deg R)/2 + [p = 3 mod 4] roots, its degree.
    * A linear factor is a root Y = a in F_p.  A two-point orbit in the roots
      of P with Y = a is the root set of Q_a, which lies in F_p[u]; so these
      orbits are the a with Q_a | P, the conic hits, as squarefreeness rules
      out Q_a = (u - 2e)^2 and a = 0 raises in the census.  The fixed point
      2e is in F_p exactly when 125, so 5, is a residue mod p, and then
      Y(2e) is too; if not, Frobenius takes 2e to the other fixed point, and
      Y(2e) to Y of it, a different value, so Y(2e) is not in F_p.  And
      Y = 0 is in F_p.

    The check that every j5* lies in F_(p^2) becomes P | u^(p^2) - u, which
    is stronger: Y(u) lies in F_(p^2) whenever u does.  It runs before the
    parity check, so a root of P outside F_(p^2) raises
    RootOutsideQuadraticField.
    """
    check_bounds(p)
    P, hits = _conic_hits(p, _squarefree_hasse(p))
    u = mp.rem([0, 1], P, p)
    if mp.pow_mod(u, p * p, P, p) != u:
        raise RootOutsideQuadraticField(f"p={p}: P does not divide u^(p^2) - u")
    fixed = mp.deg(mp.gcd(P, mp.from_int_poly(SIGMA_FIXED, p), p))
    if (mp.deg(P) + fixed) % 2:
        raise VerificationError(f"p={p}: deg P + deg gcd(P, u^2 + 22u - 4) is odd: sigma does not pair the roots of P")
    zero = p % 4 == 3
    degree = (mp.deg(P) + fixed) // 2 + zero
    linear = len(hits) + fixed * (legendre(5, p) == 1) + zero
    degree_want, linear_want = degree_formula(p), L5star_formula(p)
    return {
        "p": p,
        "degree_found": degree,
        "degree_formula": degree_want,
        "linear_found": linear,
        "linear_formula": linear_want,
        "match": degree == degree_want and linear == linear_want,
    }


def section7_identity_disc() -> bool:
    """disc_z((z^2+12z+16)^3 + j (z+11)) = 3125 j^4 (j - 1728)^2 over Z[j]."""
    jpoly = Poly([0, 1])
    f = Poly([Poly([c]) + jpoly * b for c, b in zip(ZP_JNUM, (11, 1, 0, 0, 0, 0, 0))])
    lhs = discriminant(f)
    rhs = Poly([0, 0, 0, 0, 3125]) * Poly([-1728, 1]) ** 2
    return lhs == rhs


def section7_identity_res_t() -> bool:
    """Res_t(z^2 + 4 + t (z+11), t^2 - 44t - 16) = (z^2 + 22z - 4)^2 over Z[z]."""
    f = Poly([Poly([4, 0, 1]), Poly([11, 1])])  # ascending in t
    g = Poly([Poly([-16]), Poly([-44]), Poly([1])])
    lhs = resultant(f, g)
    rhs = Poly([-4, 22, 1]) ** 2
    return lhs == rhs


def section7_identity_res_z() -> bool:
    """Res_z((z^2+12z+16)^3 + j (z+11), z^2 + 22z - 4) = -125 H_-20(j) over Z[j]."""
    jpoly = Poly([0, 1])
    f = Poly([Poly([c]) + jpoly * b for c, b in zip(ZP_JNUM, (11, 1, 0, 0, 0, 0, 0))])
    g = Poly([Poly([-4]), Poly([22]), Poly([1])])
    lhs = resultant(f, g)
    rhs = Poly(list(HD[20])) * (-125)
    return lhs == rhs


def section7_identities() -> bool:
    return section7_identity_disc() and section7_identity_res_t() and section7_identity_res_z()
