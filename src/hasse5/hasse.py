"""The Hasse invariant of the one-parameter curve with a rational 5-torsion point,
and the supersingular polynomial ss_p(X) over F_p.

The curve family is Y^2 + (1+b)XY + bY = X^3 + bX^2 (a point of order 5 at the
origin).  Its Hasse invariant over F_l is assembled here in two independent
ways -- once through the j-invariant written in the parameter b, once through
the alternative degree-12 rational map j5 -- and the two expansions are
checked equal on every build.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import VerificationError, modpoly as mp
from .classno import h_minus_p
from .fp import legendre

# j(b) = C4(b)^3 / (b^5 (1 - 11b - b^2)): numerator/denominator pieces (ascending)
C4 = [1, -12, 14, 12, 1]  # b^4 + 12b^3 + 14b^2 - 12b + 1
Q6 = [1, -18, 74, 18, 1]  # b^4 + 18b^3 + 74b^2 - 18b + 1
DEN_J = [0, 0, 0, 0, 0, 1, -11, -1]  # b^5 (1 - 11b - b^2)

# j5(x) = C45(x)^3 / (x (1 - 11x - x^2)^5) and the degree-6 companion
C45 = [1, 228, 494, -228, 1]  # x^4 - 228x^3 + 494x^2 + 228x + 1
C65_NEG_FACTOR = [1, -522, -10006, 522, 1]  # x^4 + 522x^3 - 10006x^2 - 522x + 1
X2P1 = [1, 0, 1]


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


def _den_j5(l: int) -> list[int]:
    # x (1 - 11x - x^2)^5
    base = mp.from_int_poly([1, -11, -1], l)
    p5 = [1]
    for _ in range(5):
        p5 = mp.mul(p5, base, l)
    return mp.mul([0, 1], p5, l)


def build_hasse(l: int) -> list[int]:
    """The Hasse invariant over F_l, degree 12*n_l + 4r + 6s.

    Built via the parameter-b j-invariant and cross-checked against the
    expansion through j5; any disagreement raises VerificationError.
    """
    par = hasse_params(l)
    n, r, s = par.n_l, par.r, par.s
    J = build_Jl(l)

    num1 = mp.mul_many([mp.from_int_poly(C4, l)] * 3, l)
    h1 = mp.compose_rational(J, num1, mp.from_int_poly(DEN_J, l), l)
    for _ in range(r):
        h1 = mp.mul(h1, mp.from_int_poly(C4, l), l)
    for _ in range(s):
        h1 = mp.mul(h1, mp.from_int_poly(X2P1, l), l)
        h1 = mp.mul(h1, mp.from_int_poly(Q6, l), l)

    num2 = mp.mul_many([mp.from_int_poly(C45, l)] * 3, l)
    h2 = mp.compose_rational(J, num2, _den_j5(l), l)
    for _ in range(r):
        h2 = mp.mul(h2, mp.from_int_poly(C45, l), l)
    for _ in range(s):
        h2 = mp.mul(h2, mp.from_int_poly(X2P1, l), l)
        h2 = mp.mul(h2, mp.from_int_poly(C65_NEG_FACTOR, l), l)

    if h1 != h2:
        raise VerificationError(f"the two Hasse invariant expansions disagree for l={l}")
    if mp.deg(h1) != 12 * n + 4 * r + 6 * s:
        raise VerificationError(f"Hasse invariant has degree {mp.deg(h1)} != 12n + 4r + 6s at l={l}")
    return h1


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
