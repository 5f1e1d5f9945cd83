"""The supersingular polynomial for the level-5 Fricke group.

ss5star_p(Y) is the monic squarefree polynomial over F_p whose roots are the
distinct values j5* in F-bar_p with R5(j, j5*) = 0 for some supersingular j,
where

    R5(X, Y) = X^2 - X (Y^5 - 80Y^4 + 1890Y^3 - 12600Y^2 + 7776Y + 3456)
             + (Y^2 + 216Y + 144)^3.

It is computed over F_p alone, as the squarefree part of Res_X(ss_p(X),
R5(X, Y)), and its linear factors are counted as deg gcd(ss5star_p, Y^p - Y).
The verdict also checks that ss5star_p divides Y^(p^2) - Y, i.e. that every
j5* lies in F_{p^2}.

The genus-zero parametrization (j, j5*) = (-(z^2+12z+16)^3/(z+11),
-(z^2+4)/(z+11)) of the Fricke curve gives a second construction over F_p: the
same norm, taken of ss_p(j(z)) (cleared of its denominator) over the quadratic
z^2 + Y z + 11Y + 4 whose roots z have j5*(z) = Y.  Its squarefree part must
be ss5star_p again.  The values j5* found one by one in F_{p^2}, from the
supersingular j in F_{p^2}, are kept as a test oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import VerificationError, modpoly as mp
from .classno import h5l, h_minus_p
from .ffactor import factor_ff, roots_in
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


class RootOutsideQuadraticField(VerificationError):
    """A j5* value fell outside F_{p^2}."""


@dataclass(frozen=True)
class FrickeReport:
    p: int
    degree_found: int
    degree_formula: int
    linear_found: int
    linear_formula: int

    @property
    def degree_match(self) -> bool:
        return self.degree_found == self.degree_formula

    @property
    def linear_match(self) -> bool:
        return self.linear_found == self.linear_formula

    @property
    def match(self) -> bool:
        return self.degree_match and self.linear_match

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "degree_found": self.degree_found,
            "degree_formula": self.degree_formula,
            "linear_found": self.linear_found,
            "linear_formula": self.linear_formula,
            "match": self.match,
        }


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


def _fricke_values_from_R5(p: int, js: list[FqElem]) -> set:
    """Distinct roots of R5(j, .) over all supersingular j, as F_{p^2} elements.

    Conjugate j-invariants give Frobenius-conjugate root sets, so only one
    representative per Frobenius orbit is solved directly.
    """
    fld = make_extension(p, 2)
    out = set()
    seen = set()
    for j in js:
        if j.coords in seen:
            continue
        jp = j**p
        seen.add(j.coords)
        seen.add(jp.coords)
        f = [fld.embed(c % p) for c in R5_C]
        for k, b in enumerate(R5_B):
            f[k] = f[k] - j * b
        f[0] = f[0] + j * j
        # containment in F_{p^2}: the roots found, with multiplicity, must
        # account for the whole (monic) degree
        found = roots_in(f, p)
        if sum(m for _, m in found) != len(f) - 1:
            raise RootOutsideQuadraticField(f"p={p}, j={j}: roots escape F_(p^2)")
        out.update(r.coords for r, _ in found)
        if jp != j:
            out.update((r**p).coords for r, _ in found)
    return out


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
    """Predicted number of linear factors, from the class numbers h(-p), h(-5p)."""
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
    val2 = (1 + chi5) * hp
    if val2 % 2:
        raise VerificationError(f"(1 + (p/5)) h(-p) = {val2} is odd at p={p}")
    return val2 // 2 + h5


def verify_fricke(p: int) -> FrickeReport:
    f = build_ss5star(p)
    y = mp.rem([0, 1], f, p)
    yp = mp.pow_mod(y, p, f, p)
    if mp.pow_mod(yp, p, f, p) != y:
        raise RootOutsideQuadraticField(f"p={p}: ss5star_p does not divide Y^(p^2) - Y")
    linear = mp.deg(mp.gcd(f, mp.sub(yp, y, p), p))
    return FrickeReport(p, mp.deg(f), degree_formula(p), linear, L5star_formula(p))


def zparam_cross_check(p: int) -> bool:
    """ss5star_p again, through the z-parametrization.

    ss_p(j) = 0 at j = -ZP_JNUM(z) / ZP_LIN(z) exactly when S(z) = 0, S the
    numerator of ss_p(j(z)), and j5*(z) = Y exactly when z is a root of
    ZP_YNUM(z) + Y ZP_LIN(z) = z^2 + Y z + 11Y + 4.  (z = -11 never lies on
    it, as it gives 125 = 0.)  So the j5* values are the roots of
    Res_z(S(z), z^2 + Y z + 11Y + 4), a norm of degree 6 deg ss_p.
    """
    ss = build_ss(p)
    S = mp.compose_rational(ss, mp.from_int_poly([-c for c in ZP_JNUM], p), list(ZP_LIN), p)
    B = mp.from_int_poly((-ZP_YNUM[1], -ZP_LIN[1]), p)
    C = mp.from_int_poly((ZP_YNUM[0], ZP_LIN[0]), p)
    norm = _quadratic_norm(S, B, C, p)
    if mp.deg(norm) != 6 * mp.deg(ss):
        return False
    return mp.monic(mp.quo(norm, mp.gcd(norm, mp.deriv(norm, p), p), p), p) == build_ss5star(p)


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
