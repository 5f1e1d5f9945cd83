"""The Hasse invariant of the one-parameter curve with a rational 5-torsion point,
and the supersingular polynomial ss_p(X) over F_p.

The curve family is Y^2 + (1+b)XY + bY = X^3 + bX^2 (a point of order 5 at the
origin).  Its Hasse invariant over F_l is the truncated generating series
sum_{n<l} A_n b^n mod l of the Apery numbers A_n = sum_k C(n,k)^2 C(n+k,k) of
zeta(2), which Beukers (Asterisque 147-148, 1987) ties to Gamma_1(5), the
group of this family.  It is built in O(l) steps from their three-term
recurrence.  The test suite checks it against the expansion of Deuring's
J_l through j(b) and through the degree-12 map j5.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import VerificationError, modpoly as mp
from .classno import h_minus_p
from .fp import legendre

# j(b) = C4(b)^3 / (b^5 (1 - 11b - b^2)) and j5(x) = C45(x)^3 / (x (1 - 11x - x^2)^5)
C4 = [1, -12, 14, 12, 1]  # b^4 + 12b^3 + 14b^2 - 12b + 1
DEN_J = [0, 0, 0, 0, 0, 1, -11, -1]  # b^5 (1 - 11b - b^2)
C45 = [1, 228, 494, -228, 1]  # x^4 - 228x^3 + 494x^2 + 228x + 1


@dataclass(frozen=True)
class HasseParams:
    l: int
    n_l: int
    r: int
    s: int


def hasse_params(l: int) -> HasseParams:
    if l <= 5:
        raise ValueError("need a prime l > 5")
    n = l // 12
    r = (1 - legendre(-3, l)) // 2
    s = (1 - legendre(-4, l)) // 2
    return HasseParams(l, n, r, s)


def build_Jl(l: int) -> list[int]:
    """J_l(t) = sum_k C(2n+s, 2k+s) C(2n-2k, n-k) (-432)^(n-k) (t-1728)^k  over F_l."""
    par = hasse_params(l)
    n, s = par.n_l, par.s
    out: list[int] = []
    shift = [(-1728) % l, 1]
    pw = [1]
    for k in range(n + 1):
        c = comb(2 * n + s, 2 * k + s) * comb(2 * n - 2 * k, n - k) * (-432) ** (n - k)
        out = mp.add(out, mp.scale(pw, c % l, l), l)
        if k < n:
            pw = mp.mul(pw, shift, l)
    return out


def build_hasse(l: int) -> list[int]:
    """The Hasse invariant over F_l, degree 12*n_l + 4r + 6s: the coefficients
    A_0, ..., A_{l-1} mod l from A_0 = 1, A_1 = 3 and
    (n+1)^2 A_{n+1} = (11n^2 + 11n + 3) A_n + n^2 A_{n-1}.
    A wrong degree raises VerificationError.
    """
    par = hasse_params(l)
    h = [1, 3]
    for n in range(1, l - 1):
        h.append(((11 * n * n + 11 * n + 3) * h[n] + n * n * h[n - 1]) * pow(n + 1, -2, l) % l)
    h = mp.from_int_poly(h, l)
    if mp.deg(h) != 12 * par.n_l + 4 * par.r + 6 * par.s:
        raise VerificationError(f"Hasse invariant has degree {mp.deg(h)} != 12n + 4r + 6s at l={l}")
    return h


def build_ss(p: int) -> list[int]:
    """Monic supersingular polynomial over F_p: X^rho (X-1728)^sigma J_p(X),
    with rho = 1 iff p = 2 mod 3 and sigma = 1 iff p = 3 mod 4."""
    par = hasse_params(p)
    out = build_Jl(p)
    if p % 3 == 2:
        out = mp.mul(out, [0, 1], p)
    if p % 4 == 3:
        out = mp.mul(out, [(-1728) % p, 1], p)
    if out[-1] != 1:
        raise VerificationError(f"supersingular polynomial is not monic at p={p}")
    if mp.deg(out) != par.n_l + par.r + par.s:
        raise VerificationError(f"supersingular polynomial has degree {mp.deg(out)} != n + r + s at p={p}")
    return out


def deuring_L(p: int) -> int:
    """Count of supersingular j-invariants lying in the prime field F_p."""
    h = h_minus_p(p)
    if p % 4 == 1:
        if h % 2:
            raise VerificationError(f"h(-p) = {h} is odd for p={p} = 1 mod 4")
        return h // 2
    if p % 8 == 3:
        return 2 * h
    return h


def g_of_xj_coeffs() -> tuple[list[int], list[int]]:
    """Integer pieces of G(x, j) = C45(x)^3 - j * x (1 - 11x - x^2)^5:
    returns (C45^3, x(1-11x-x^2)^5) over Z."""
    from .poly import Poly

    a = Poly(C45) ** 3
    b = Poly([0, 1]) * Poly([1, -11, -1]) ** 5
    return list(a.c), list(b.c)
