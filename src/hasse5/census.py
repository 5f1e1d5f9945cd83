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

The factors are found without factoring the Hasse invariant H.  H is
certified squarefree in O(l) by the Picard-Fuchs operator that annihilates it
(see ``_squarefree_hasse``); H mod f is then computed for every member f of a
family at once, by one vectorized Horner sweep over H's coefficients; and only
the members that divide H are tested for irreducibility, each by one Legendre
symbol: a quartic g_a by that of a^2 - 44a - 16 = -4 theta_1, from the one
root of its resolvent cubic in F_l (see ``find_g_factors``), a quadratic by
that of its discriminant.  The census raises no polynomial to a power.
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


# x^2 + 11x - 1: its roots and 0 are the singular points of L below
SINGULAR = [-1, 11, 1]


def _squarefree_hasse(l: int) -> list[int]:
    """The Hasse invariant H over F_l, certified squarefree in O(l).

    H passes four checks, or VerificationError is raised: L(H) = 0 in F_l[x]
    for L = theta^2 - x(11 theta^2 + 11 theta + 3) - x^2 (theta + 1)^2,
    theta = x d/dx, one coefficient at a time; H(0) != 0;
    gcd(H, x^2 + 11x - 1) = 1; and deg H < l.

    They prove H squarefree.  In D = d/dx, L = x^2 (1 - 11x - x^2) D^2 + lower
    terms.  Let a be a double root of H with a (1 - 11a - a^2) != 0.  The k-th
    derivative of L(H) = 0 gives H^(k+2)(a) from lower derivatives, with the
    invertible leading coefficient a^2 (1 - 11a - a^2); as H(a) = H'(a) = 0,
    every derivative of H vanishes at a.  Since deg H < l, H is its Taylor
    series sum_{k<l} H^(k)(a) (x - a)^k / k!, so H = 0, against H(0) != 0.
    The other two checks rule out a double root at 0 or at a root of
    x^2 + 11x - 1.  (Igusa's argument for the Legendre family, PNAS 44, 1958.)
    """
    f = build_hasse(l)
    h = [0, 0] + f + [0, 0]  # h[n + 2] is the coefficient of x^n
    for n in range(len(f) + 2):
        m = n - 1
        if (n * n * h[n + 2] - (11 * m * m + 11 * m + 3) * h[n + 1] - m * m * h[n]) % l:
            raise VerificationError(f"L(H) has a nonzero x^{n} coefficient at l={l}")
    if not f or f[0] == 0:
        raise VerificationError(f"H(0) = 0 at l={l}")
    if mp.deg(mp.gcd(f, mp.from_int_poly(SINGULAR, l), l)):
        raise VerificationError(f"H shares a root with x^2 + 11x - 1 at l={l}")
    if mp.deg(f) >= l:
        raise VerificationError(f"Hasse invariant has degree {mp.deg(f)} >= l={l}")
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


def find_g_factors(l: int, f: list[int]) -> list[GShape]:
    """Irreducible quartic factors g_a = x^4 + a x^3 + (11a+2) x^2 - a x + 1
    of a squarefree f, in ascending coefficient order.

    A divisor g_a of f is irreducible exactly when a^2 - 44a - 16 is a
    non-residue mod l.  This is the finite-field case of Kappe and Warren's
    resolvent test (Amer. Math. Monthly 96, 1989).  Let y_1..y_4 be the roots
    of g_a(y - a/4).  Its resolvent cubic has the roots -theta_i =
    (y_1 + y_k)^2, k = 2, 3, 4, with -theta_1 = (a^2 - 44a - 16)/4 and
    theta_2, theta_3 = -a (a/4 + e) for e = ebar5, e5
    (``icosa._resolvent_cubic_holds`` checks this over Q(zeta_5)[a]).

    * f squarefree rules out a = 0: g_0 = (x^2 + 1)^2.
    * disc g_a = 125 a^2 (a^2 - 44a - 16)^2.  For l = 2, 3 mod 5, 5 is a
      non-residue, so a^2 - 44a - 16, with the roots 22 +- 10 sqrt 5, has no
      root in F_l.  So g_a is separable for a != 0, and theta_1 != 0.
    * The resolvent is over F_l, so theta_2 + theta_3 is in F_l, but
      theta_2 - theta_3 = +-5 sqrt(5) a is not.  So theta_1 is the only root
      of the resolvent in F_l.
    * Frobenius therefore fixes exactly one of the three pairings of
      y_1..y_4, say {y_1, y_2 | y_3, y_4}, and swaps the other two.  It acts
      as a transposition, and g_a = 1 + 1 + 2, or as a 4-cycle, and g_a is
      irreducible.  A transposition fixes y_1 + y_2.  A 4-cycle sends it to
      y_3 + y_4 = -(y_1 + y_2), which differs from y_1 + y_2 as theta_1 != 0.
    * So g_a is irreducible exactly when y_1 + y_2 is not in F_l, that is,
      when (y_1 + y_2)^2 = -theta_1 is a non-square.

    A hit at a = 0 proves f not squarefree and raises VerificationError.
    """
    if l % 5 not in (2, 3):
        raise ValueError("quartic census needs l = 2, 3 mod 5")
    a = _sweep_range(l, 4)
    # x^4 = -1 + a x - (11a+2) x^2 - a x^3 mod g_a
    red = np.stack([np.full(l, l - 1, dtype=np.int64), a, -(11 * a + 2) % l, -a % l])
    hits = _divisor_params(f, red, l)
    if 0 in hits:
        raise VerificationError(f"(x^2 + 1)^2 divides f at l={l}: f is not squarefree")
    shapes = [GShape(l, t) for t in hits if legendre(t * t - 44 * t - 16, l) == -1]
    return sorted(shapes, key=GShape.coeffs)


def find_k_factors(l: int, f: list[int]) -> list[KShape]:
    """Irreducible quadratic factors x^2 + rx + s of f with r = e5(s-1) or
    ebar5(s-1), in ascending coefficient order; x^2 + 1 satisfies both and is
    counted once."""
    if l % 5 not in (1, 4):
        raise ValueError("quadratic census needs l = 1, 4 mod 5")
    s = _sweep_range(l, 2)
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


def census(l: int) -> CensusReport:
    if l % 5 == 0:
        raise ValueError("l must be a prime different from 5")
    h = h5l(l)
    find = find_g_factors if l % 5 in (2, 3) else find_k_factors
    shapes = find(l, _squarefree_hasse(l))
    facs = tuple(s.coeffs() for s in shapes)
    pred = predicted_count(l, h)
    found = len(shapes)
    return CensusReport(l, l % 5, l % 8, h, found, pred, found == pred, facs)
