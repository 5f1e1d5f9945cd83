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

The factors are found without factoring the Hasse invariant H.  H is checked
squarefree (gcd(H, H') = 1); H mod f is then computed for every member f of a
family at once, by one vectorized Horner sweep over H's coefficients; and only
the members that divide H are tested for irreducibility: quartics by
``modpoly.is_irreducible``, quadratics by the Legendre symbol of the
discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import VerificationError, modpoly as mp
from .classno import h5l
from .fp import golden_units, legendre
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


def _squarefree_hasse(l: int, hasse) -> list[int]:
    """The Hasse invariant over F_l (or the injected ``hasse``), checked squarefree."""
    f = build_hasse(l) if hasse is None else mp.from_int_poly(hasse, l)
    if mp.deg(mp.gcd(f, mp.deriv(f, l), l)) != 0:
        raise VerificationError(f"Hasse invariant not squarefree at l={l}")
    return f


def _sweep_range(l: int, k: int) -> np.ndarray:
    """The parameter values 0..l-1 of a k-wide sweep, once its int64 bound holds."""
    if (k + 1) * l * l >= 2**63:
        raise ValueError(f"l={l} is too large for the int64 divisibility sweep")
    return np.arange(l, dtype=np.int64)


def _divisor_params(f: list[int], red: np.ndarray, l: int) -> list[int]:
    """Column indices t with f = 0 mod m_t, where m_t = x^k - sum_i red[i, t] x^i.

    Horner over f's coefficients from the top, for every column at once: the
    k-wide state holds f's prefix mod m_t, and x^k is replaced by red[:, t].
    Only the outgoing top slot is reduced mod l.  A slot takes at most k
    products below l^2 on its way to the top, so every entry stays below
    (k+1) l^2, which ``_sweep_range`` checked fits in int64.
    """
    state = np.zeros_like(red)
    for c in reversed(f):
        top = state[-1] % l
        state[1:] = state[:-1]
        state[0] = c
        state += top * red
    return np.flatnonzero(~(state % l).any(axis=0)).tolist()


def find_g_factors(l: int, hasse=None) -> list[GShape]:
    """Irreducible quartic factors of the Hasse invariant with coefficient
    vector (1, a, 11a+2, -a, 1), in ascending coefficient order."""
    if l % 5 not in (2, 3):
        raise ValueError("quartic census needs l = 2, 3 mod 5")
    a = _sweep_range(l, 4)
    f = _squarefree_hasse(l, hasse)
    # x^4 = -1 + a x - (11a+2) x^2 - a x^3 mod g_a
    red = np.stack([np.full(l, l - 1, dtype=np.int64), a, -(11 * a + 2) % l, -a % l])
    shapes = [GShape(l, t) for t in _divisor_params(f, red, l)]
    return sorted((g for g in shapes if mp.is_irreducible(g.coeffs(), l)), key=GShape.coeffs)


def find_k_factors(l: int, hasse=None) -> list[KShape]:
    """Irreducible quadratic factors x^2 + rx + s with r = e5(s-1) or ebar5(s-1),
    in ascending coefficient order; x^2 + 1 satisfies both and is counted once."""
    if l % 5 not in (1, 4):
        raise ValueError("quadratic census needs l = 1, 4 mod 5")
    s = _sweep_range(l, 2)
    f = _squarefree_hasse(l, hasse)
    pair = golden_units(l)
    found: dict[tuple[int, int], KShape] = {}
    for variant, e in (("eps", pair.eps5), ("epsbar", pair.eps5bar)):
        # x^2 = -s - e(s-1) x mod x^2 + e(s-1) x + s
        red = np.stack([-s % l, -e * (s - 1) % l])
        for t in _divisor_params(f, red, l):
            r = e * (t - 1) % l
            if legendre(r * r - 4 * t, l) == -1:
                found.setdefault((t, r), KShape(l, r, t, variant))
    return sorted(found.values(), key=KShape.coeffs)


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
