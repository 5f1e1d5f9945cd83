"""Counting the special factors of the Hasse invariant over F_l.

Two factor families are counted, depending on l mod 5:

* quartics  g_a = x^4 + a x^3 + (11a+2) x^2 - a x + 1    (l = 2, 3 mod 5)
* quadratics K_s = x^2 + r x + s with r = e (s-1) for e = e5 or ebar5, the
  two roots of x^2 + 11x - 1 in F_l                     (l = 1, 4 mod 5)

and the count is compared against the linear expression in the class number
h(-5l) selected by (l mod 5, l mod 8).  Both roots of x^2 + 11x - 1 are tried,
so the canonical choice of sqrt(5) made by ``golden_units`` never affects the
count; only x^2 + 1 satisfies both relations, and it is counted once.

The factors are found without factoring the Hasse invariant H, on X_0(5)
rather than X_1(5).  H is certified squarefree in O(l) by the Picard-Fuchs
operator that annihilates it (see ``_squarefree_hasse``).  It is invariant
under the diamond operator b -> -1/b, x^(2n) H(-1/x) = H(x) for deg H = 2n,
which ``_fold`` checks; so with u = x - 1/x,

    x^(-n) H = P(u)  (n even)    or    x^(-n) H = (x + 1/x) P(u)  (n odd),

and the folded invariant P has degree about l/2.  Both families fold onto
one conic: g_a = x^2 Q_a(x - 1/x) with Q_a(u) = u^2 + a u + 11a + 4, the
z-fibre of ``fricke`` at Y = a, of discriminant a^2 - 44a - 16.

* g_a | H <=> Q_a | P, for a != 0 with a^2 - 44a - 16 != 0.  The roots of
  g_a are the roots of x^2 - u0 x - 1 for the roots u0 of Q_a; they are
  distinct (a double one needs u0^2 = -4, so a = 0), and none is 0 or +-i
  (g_a(0) = 1, g_a(+-i) = -a (11 +- 2i) and 11 +- 2i != 0 as 125 != 0), so
  H vanishes at one exactly when P vanishes at x - 1/x.  A hit at a = 0
  means (x^2 + 1)^2 | H, so H is not squarefree, and raises.
* The sigma-orbits.  The roots of an irreducible Q_a are {u0, sigma(u0)} with
  sigma(u) = (4 - 11u)/(u + 11), the Fricke involution: u0 + sigma(u0) = -a
  and u0 sigma(u0) = 11a + 4 both follow from Q_a(u0) = 0.  Its fixed points
  u = 2e, the doubled roots of x^2 + 11x - 1, lie in F_l exactly when
  l = 1, 4 mod 5.
* Quartics: g_a is irreducible exactly when a^2 - 44a - 16 is a non-residue
  (see ``find_g_factors``).
* Quadratics: K_s K_(1/s) = g_a with a = e (s-1)^2 / s, and the companion
  K_(1/s) = s^(-1) x^2 K_s(-1/x) divides H with K_s, by the symmetry.  For
  s != +-1 the roots x, s/x of an irreducible K_s give the two roots
  x - 1/x, s/x - x/s of Q_a, distinct as (s + 1)(x^2 - s) != 0, so Q_a is
  irreducible; conversely, for an irreducible Q_a, g_a has no root in F_l
  (it would give one of Q_a) and its two quadratic factors are irreducible.
  The two self-companion cases are read off P directly: x^2 + 1 = x (x + 1/x)
  divides H exactly when n is odd, and x^2 - 2e x - 1 = x (u - 2e) exactly
  when P(2e) = 0, at a fixed point of sigma.

So the census is one blocked divisor sweep of width 2 over P's coefficients
(``modpoly._divisor_params``: baby steps x^j mod Q_a, then Horner in x^b over
P's blocks of b coefficients), P mod Q_a for every a in F_l at once, and one
Legendre symbol of a^2 - 44a - 16 per hit, for both families.  It raises no
polynomial to a power.

The same P and the same hits serve ``fricke.verify_fricke``: Y(u) =
-(u^2 + 4)/(u + 11), the j5* of ``fricke``, takes the value a exactly on the
roots of Q_a, so the Fricke polynomial's degree and its linear factors are
counts of sigma-orbits of roots of P, and of hits.
"""

from __future__ import annotations

import numpy as np

from . import VerificationError, modpoly as mp
from .classno import h5l
from .fp import golden_units, legendre, sqrt_mod
from .hasse import build_hasse
from .modpoly import _check_sweep, _divisor_params


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


def _fold(l: int, f: list[int]) -> list[int]:
    """The folded invariant P of f = sum c_j x^j of degree 2n over F_l:
    x^(-n) f = P(u) for even n, (x + 1/x) P(u) for odd n, u = x - 1/x.

    f must satisfy x^(2n) f(-1/x) = f(x), that is c_j = (-1)^j c_(2n-j), or
    VerificationError is raised.  Then x^(-n) f = c_n + sum_(k>=1) c_(n+k)
    phi_k with phi_k = x^k + (-1)^n (-1/x)^k, and c_n = 0 for odd n.  Both
    L_k = x^k + (-1/x)^k and M_k = x^k - (-1/x)^k satisfy
    phi_(k+1) = u phi_k + phi_(k-1), as x and -1/x are the roots of
    t^2 - u t - 1; L_0 = 2, L_1 = u and M_0 = 0, M_1 = x + 1/x.  So one
    Clenshaw pass b_k = c_(n+k) + u b_(k+1) + b_(k+2), k = n..0, gives
    P = u b_1 + 2 b_2 + c_n = b_0 + b_2 for even n and P = b_1 for odd n.
    """
    c = np.array(f, dtype=np.int64)
    sign = 1 - 2 * (np.arange(len(c)) % 2)
    if len(c) % 2 == 0 or ((c - sign * c[::-1]) % l).any():
        raise VerificationError(f"x^(deg f) f(-1/x) != f(x) at l={l}: f is not invariant under x -> -1/x")
    n = len(c) // 2
    b1 = b2 = b3 = np.zeros(n + 1, dtype=np.int64)  # entries below l
    for k in range(n, -1, -1):
        b = b2.copy()
        b[1:] += b1[:-1]
        b[0] += c[n + k]
        b1, b2, b3 = b % l, b1, b2
    # b1, b2, b3 = b_0, b_1, b_2
    return mp.trim(((b2 if n % 2 else b1 + b3) % l).tolist())


def _conic_hits(l: int, f: list[int]) -> tuple[list[int], list[int]]:
    """(P, hits) for a squarefree symmetric f: P = _fold(l, f), and the a in
    F_l, ascending, with Q_a = u^2 + a u + 11a + 4 a divisor of P.  A divisor
    Q_0 proves (x^2 + 1)^2 | f and raises VerificationError.

    Both sweeps read this one pass: the census keeps the hits with Q_a
    irreducible (``_irreducible_hits``), and ``fricke.verify_fricke`` counts
    every hit, one sigma-orbit of roots of P on which
    Y = -(u^2 + 4)/(u + 11) takes the value a."""
    _check_sweep(2, l)  # before the sweep's arrays of length l are made
    p = _fold(l, f)
    a = np.arange(l, dtype=np.int64)
    # u^2 = -(11a + 4) - a u mod Q_a
    hits = _divisor_params(p, np.stack([-(11 * a + 4) % l, -a % l]), l)
    if 0 in hits:
        raise VerificationError(f"(x^2 + 1)^2 divides f at l={l}: f is not squarefree")
    return p, hits


def _irreducible_hits(l: int, f: list[int]) -> tuple[list[int], list[int]]:
    """(P, the hits a of ``_conic_hits`` with Q_a irreducible, that is with
    a^2 - 44a - 16 = disc Q_a a non-residue mod l)."""
    p, hits = _conic_hits(l, f)
    return p, [a for a in hits if legendre(a * a - 44 * a - 16, l) == -1]


def find_g_factors(l: int, f: list[int]) -> list[list[int]]:
    """Irreducible quartic factors g_a = x^4 + a x^3 + (11a+2) x^2 - a x + 1
    of a squarefree f invariant under x -> -1/x, as sorted ascending
    coefficient lists: one g_a for each irreducible Q_a dividing the fold of f.

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

    A hit at a = 0 proves f not squarefree, and an f that is not invariant
    under x -> -1/x fails the fold; both raise VerificationError.
    """
    if l % 5 not in (2, 3):
        raise ValueError("quartic census needs l = 2, 3 mod 5")
    _, hits = _irreducible_hits(l, f)
    return sorted([1, -a % l, (11 * a + 2) % l, a, 1] for a in hits)


def find_k_factors(l: int, f: list[int]) -> list[list[int]]:
    """Irreducible quadratic factors x^2 + rx + s of a squarefree f invariant
    under x -> -1/x, with r = e(s-1) for e = e5 or ebar5, as sorted ascending
    coefficient lists [s, r, 1]; x^2 + 1 satisfies both and is counted once.

    Each irreducible Q_a dividing the fold of f gives the pair K_s, K_(1/s):
    s + 1/s = a/e + 2, so s and 1/s are the roots of e s^2 - (2e + a) s + e,
    of discriminant a (a + 4e).  The product of a (a + 4e) over both e is
    a^2 (a^2 - 44a - 16), a non-residue, so exactly one e gives s in F_l.
    x^2 + 1 comes from n odd (deg f = 2n) and is irreducible for l = 3 mod 4;
    x^2 - 2ex - 1 from P(2e) = 0, irreducible when e^2 + 1 is a non-residue.
    """
    if l % 5 not in (1, 4):
        raise ValueError("quadratic census needs l = 1, 4 mod 5")
    p, hits = _irreducible_hits(l, f)
    pair = golden_units(l)
    units = (pair.eps5, pair.eps5bar)
    factors = [[1, 0, 1]] if mp.deg(f) % 4 == 2 and l % 4 == 3 else []
    for e in units:
        if mp.eval_at(p, 2 * e, l) == 0 and legendre(e * e + 1, l) == -1:
            factors.append([l - 1, -2 * e % l, 1])
    for a in hits:
        e = next(e for e in units if legendre(a * (a + 4 * e), l) == 1)
        root, inv = sqrt_mod(a * (a + 4 * e), l), pow(2 * e, -1, l)
        for s in ((2 * e + a + root) * inv % l, (2 * e + a - root) * inv % l):
            factors.append([s, e * (s - 1) % l, 1])
    return sorted(factors)


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


def census(l: int) -> dict:
    """The census verdict at l, as the JSON payload that ``hasse5 census``
    prints: the special factors found, in ascending coefficient order, and
    their count against ``predicted_count``."""
    if l % 5 == 0:
        raise ValueError("l must be a prime different from 5")
    h = h5l(l)
    find = find_g_factors if l % 5 in (2, 3) else find_k_factors
    factors = find(l, _squarefree_hasse(l))
    pred = predicted_count(l, h)
    return {
        "l": l,
        "l_mod5": l % 5,
        "l_mod8": l % 8,
        "h_minus_5l": h,
        "found": len(factors),
        "predicted": pred,
        "match": len(factors) == pred,
        "factors": factors,
    }
