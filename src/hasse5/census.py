"""Counting the special factors of the Hasse invariant over F_l.

Two factor families are counted, depending on l mod 5:

* quartics  x^4 + a x^3 + (11a+2) x^2 - a x + 1          (l = 2, 3 mod 5)
* quadratics x^2 + r x + s with r = e5 (s-1) or ebar5 (s-1), where e5 and
  ebar5 are the two roots of x^2 + 11x - 1 in F_l         (l = 1, 4 mod 5)

and the count is compared against the linear expression in the class number
h(-5l) selected by (l mod 5, l mod 8).  Both roots of x^2 + 11x - 1 are tried
for the quadratic relation, so the canonical choice of sqrt(5) made by
``golden_units`` never affects the count; a factor is counted once even if it
satisfies both relations (only x^2 + 1 can).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import VerificationError
from .classno import h5l
from .ffactor import FactorList, factor_ff
from .fp import golden_units
from .hasse import build_hasse


@dataclass(frozen=True)
class GShape:
    """x^4 + a x^3 + (11a+2) x^2 - a x + 1 over F_l."""

    l: int
    a: int

    def coeffs(self) -> tuple[int, ...]:
        l, a = self.l, self.a
        return (1, (-a) % l, (11 * a + 2) % l, a % l, 1)


@dataclass(frozen=True)
class KShape:
    """x^2 + r x + s over F_l with r = e5 (s-1) (variant 'eps') or ebar5 (s-1)."""

    l: int
    r: int
    s: int
    variant: str

    def coeffs(self) -> tuple[int, ...]:
        return (self.s, self.r, 1)


@dataclass(frozen=True)
class CensusReport:
    l: int
    l_mod5: int
    l_mod8: int
    h: int
    found_count: int
    predicted_count: int
    match: bool
    factors: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "l_mod5": self.l_mod5,
            "l_mod8": self.l_mod8,
            "h_minus_5l": self.h,
            "found": self.found_count,
            "predicted": self.predicted_count,
            "match": self.match,
            "factors": [list(f) for f in self.factors],
        }


def _hasse_factors(l: int, hasse=None) -> FactorList:
    f = build_hasse(l) if hasse is None else hasse
    fl = factor_ff(f, l)
    if any(m != 1 for _, m in fl.factors):
        raise VerificationError(f"Hasse invariant not squarefree at l={l}")
    return fl


def find_g_factors(l: int, hasse=None) -> list[GShape]:
    """Irreducible quartic factors of the Hasse invariant with coefficient
    vector (1, a, 11a+2, -a, 1)."""
    if l % 5 not in (2, 3):
        raise ValueError("quartic census needs l = 2, 3 mod 5")
    out = []
    for coeffs, _ in _hasse_factors(l, hasse).factors:
        if len(coeffs) != 5:
            continue
        c0, c1, c2, c3, c4 = coeffs
        a = c3  # monic: coefficient of x^3
        if c4 == 1 and c0 == 1 and c2 == (11 * a + 2) % l and c1 == (-a) % l:
            out.append(GShape(l, a))
    return out


def find_k_factors(l: int, hasse=None) -> list[KShape]:
    """Irreducible quadratic factors x^2 + rx + s with r = e5(s-1) or ebar5(s-1)."""
    if l % 5 not in (1, 4):
        raise ValueError("quadratic census needs l = 1, 4 mod 5")
    pair = golden_units(l)
    out = []
    for coeffs, _ in _hasse_factors(l, hasse).factors:
        if len(coeffs) != 3:
            continue
        s, r, lead = coeffs
        if lead != 1:
            raise VerificationError(f"factor {coeffs} of the Hasse invariant is not monic at l={l}")
        if r == pair.eps5 * (s - 1) % l:
            out.append(KShape(l, r, s, "eps"))
        elif r == pair.eps5bar * (s - 1) % l:
            out.append(KShape(l, r, s, "epsbar"))
    return out


def _check_divides(k: int, h: int, l: int) -> None:
    if h % k:
        raise VerificationError(f"{k} does not divide h(-5l) = {h} at l={l}")


def predicted_count(l: int, h: int) -> int:
    """The class-number formula for the special-factor count, keyed on
    (l mod 5, l mod 4 / mod 8)."""
    m5 = l % 5
    if m5 in (2, 3):
        if l % 4 == 1:
            _check_divides(4, h, l)
            return h // 4
        if l % 8 == 3:
            _check_divides(2, h, l)
            return h // 2 - 1
        return h - 1
    if m5 == 4:
        if l % 4 == 1:
            _check_divides(2, h, l)
            return h // 2
        if l % 8 == 3:
            return h - 3
        return 2 * h - 3
    # m5 == 1
    if l % 4 == 1:
        _check_divides(2, h, l)
        return h // 2
    if l % 8 == 3:
        return h - 1
    return 2 * h - 1


def companion(l: int, k: KShape) -> KShape:
    """kbar(x) = s^{-1} x^2 k(-1/x) = x^2 - (r/s) x + 1/s."""
    sinv = pow(k.s, l - 2, l)
    return KShape(l, (-k.r * sinv) % l, sinv, k.variant)


def census(l: int, hasse=None) -> CensusReport:
    if l % 5 == 0:
        raise ValueError("l must be a prime different from 5")
    h = h5l(l)
    if l % 5 in (2, 3):
        shapes = find_g_factors(l, hasse)
        facs = tuple(s.coeffs() for s in shapes)
    else:
        shapes = find_k_factors(l, hasse)
        facs = tuple(s.coeffs() for s in shapes)
    pred = predicted_count(l, h)
    found = len(shapes)
    return CensusReport(l, l % 5, l % 8, h, found, pred, found == pred, facs)
