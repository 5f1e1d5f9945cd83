"""The supersingular polynomial for the level-5 Fricke group.

ss5star_p(X) is the monic squarefree polynomial over F_p whose roots are the
distinct values j5* in F-bar_p with R5(j, j5*) = 0 for some supersingular j,
where

    R5(X, Y) = X^2 - X (Y^5 - 80Y^4 + 1890Y^3 - 12600Y^2 + 7776Y + 3456)
             + (Y^2 + 216Y + 144)^3.

The construction checks that every such j5* already lies in F_{p^2} and that
the product of (X - j5*) has coefficients in the prime field; either failure
raises a diagnostic rather than silently extending the field.  A second,
independent construction goes through the genus-zero parametrization
(j, j5*) = (-(z^2+12z+16)^3/(z+11), -(z^2+4)/(z+11)) and is used as a
cross-check.
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


class CoefficientNotInPrimeField(ArithmeticError):
    """The Fricke polynomial failed to descend to F_p (construction bug)."""


class RootOutsideQuadraticField(ArithmeticError):
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
            for r, m in roots_in(list(coeffs), p, 2):
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
        # containment in F_{p^2}: #distinct roots found must equal the degree
        # of the squarefree part
        found = roots_in(f, p, 2)
        nf_distinct = _squarefree_degree(f, fld)
        if len(found) != nf_distinct:
            raise RootOutsideQuadraticField(f"p={p}, j={j}: roots escape F_(p^2)")
        out.update(r.coords for r, _ in found)
        if jp != j:
            out.update((r**p).coords for r, _ in found)
    return out


def _squarefree_degree(f: list[FqElem], fld) -> int:
    from .ffactor import _ExtOps

    ops = _ExtOps(fld)
    fm = ops.monic(list(f))
    g = ops.gcd(fm, ops.deriv(fm))
    return (len(fm) - 1) - (len(g) - 1)


def _fricke_values_from_zparam(p: int, js: list[FqElem]) -> set:
    """The same value set through the z-parametrization: for each supersingular j,
    eliminate z between (z^2+12z+16)^3 + j (z+11) and z^2 + t z + (11 t + 4)."""
    fld = make_extension(p, 2)
    one = fld.one()

    def const(c: int):
        return Poly([fld.embed(c % p)])

    out = set()
    for j in js:
        fz = Poly([const(c) + Poly([j * b]) for c, b in zip(ZP_JNUM, (11, 1, 0, 0, 0, 0, 0))])
        gz = Poly([Poly([fld.embed(4), fld.embed(11)]), Poly([fld.zero(), one]), Poly([one])])
        tpoly = resultant(fz, gz)
        coeffs = [c.c[0] if isinstance(c, Poly) and c.c else (fld.zero() if isinstance(c, Poly) else c) for c in tpoly.c]
        found = roots_in(coeffs, p, 2)
        out.update(r.coords for r, _ in found)
    return out


def build_ss5star(p: int) -> list[int]:
    """The Fricke supersingular polynomial over F_p (monic, squarefree)."""
    js = supersingular_j_fp2(p)
    values = _fricke_values_from_R5(p, js)
    fld = make_extension(p, 2)
    prod = [fld.one()]
    for coords in sorted(values):
        root = FqElem(fld, coords)
        prod = [
            (prod[k - 1] if k else fld.zero()) - (prod[k] * root if k < len(prod) else fld.zero())
            for k in range(len(prod) + 1)
        ]
    out = []
    for c in prod:
        if not c.in_prime_field():
            raise CoefficientNotInPrimeField(f"p={p}: coefficient {c} outside F_p")
        out.append(c.coords[0])
    return out


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
    deg = mp.deg(f)
    linear = sum(1 for x in range(p) if mp.eval_at(f, x, p) == 0)
    return FrickeReport(p, deg, degree_formula(p), linear, L5star_formula(p))


def zparam_cross_check(p: int) -> bool:
    """Root-set equality of the R5 route and the z-parametrization route."""
    js = supersingular_j_fp2(p)
    return _fricke_values_from_R5(p, js) == _fricke_values_from_zparam(p, js)


def frobenius_stable(p: int) -> bool:
    """The j5* value set is closed under x -> x^p."""
    js = supersingular_j_fp2(p)
    values = _fricke_values_from_R5(p, js)
    fld = make_extension(p, 2)
    return all((FqElem(fld, c) ** p).coords in values for c in values)


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
