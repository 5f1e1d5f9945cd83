"""The Hasse invariant of the one-parameter curve with a rational 5-torsion point,
and the supersingular polynomial ss_p(X) over F_p.

The curve family is Y^2 + (1+b)XY + bY = X^3 + bX^2 (a point of order 5 at the
origin).  Its Hasse invariant over F_l is the truncated generating series
sum_{n<l} A_n b^n mod l of the Apery numbers A_n = sum_k C(n,k)^2 C(n+k,k) of
zeta(2), which Beukers (Asterisque 147-148, 1987) ties to Gamma_1(5), the
group of this family.  It is built in O(l) steps from their three-term
recurrence.  The test suite checks it against the expansion of Deuring's
J_l through j(b) and through the degree-12 map j5.

The supersingular polynomial X^rho (X - 1728)^sigma J_p(X) takes J_p from its
truncated 2F1 series (Kaneko-Zagier 1998) in O(p) scalar steps over F_p.  The
test suite checks it against Deuring's expansion of J_p about t = 1728.
"""

from __future__ import annotations

from . import VerificationError, modpoly as mp
from .fp import legendre

# j(b) = C4(b)^3 / (b^5 (1 - 11b - b^2)) and j5(x) = C45(x)^3 / (x (1 - 11x - x^2)^5)
C4 = [1, -12, 14, 12, 1]  # b^4 + 12b^3 + 14b^2 - 12b + 1
DEN_J = [0, 0, 0, 0, 0, 1, -11, -1]  # b^5 (1 - 11b - b^2)
C45 = [1, 228, 494, -228, 1]  # x^4 - 228x^3 + 494x^2 + 228x + 1


def hasse_params(l: int) -> tuple[int, int, int]:
    """(n_l, r, s) for a prime l > 5, with n_l = l // 12, r = 1 iff l = 2 mod 3
    and s = 1 iff l = 3 mod 4: the Hasse invariant over F_l has degree
    12 n_l + 4r + 6s."""
    if l <= 5:
        raise ValueError("need a prime l > 5")
    return l // 12, (1 - legendre(-3, l)) // 2, (1 - legendre(-4, l)) // 2


def build_hasse(l: int) -> list[int]:
    """The Hasse invariant over F_l, degree 12*n_l + 4r + 6s: the coefficients
    A_0, ..., A_{l-1} mod l from A_0 = 1, A_1 = 3 and
    (n+1)^2 A_{n+1} = (11n^2 + 11n + 3) A_n + n^2 A_{n-1}.
    A wrong degree raises VerificationError.
    """
    n_l, r, s = hasse_params(l)
    h = [1, 3]
    for n in range(1, l - 1):
        h.append(((11 * n * n + 11 * n + 3) * h[n] + n * n * h[n - 1]) * pow(n + 1, -2, l) % l)
    h = mp.from_int_poly(h, l)
    if mp.deg(h) != 12 * n_l + 4 * r + 6 * s:
        raise VerificationError(f"Hasse invariant has degree {mp.deg(h)} != 12n + 4r + 6s at l={l}")
    return h


def build_ss(p: int) -> list[int]:
    """Monic supersingular polynomial over F_p: X^rho (X-1728)^sigma J_p(X),
    with rho = 1 iff p = 2 mod 3 and sigma = s = 1 iff p = 3 mod 4, and
    J_p = sum_{k<=n} c_k X^(n-k), X^n 2F1(a, a + 1/3; 1; 1728/X) truncated at
    a = 1/12 + s/2: c_0 = 1, c_{k+1} = 12 (12k+1+6s)(12k+5+6s) c_k / (k+1)^2."""
    n, _, s = hasse_params(p)
    c = [1]
    for k in range(n):
        c.append(12 * (12 * k + 1 + 6 * s) * (12 * k + 5 + 6 * s) * c[k] * pow(k + 1, -2, p) % p)
    out = [0] * (p % 3 == 2) + c[::-1]  # X^rho J_p
    if p % 4 == 3:
        out = mp.mul(out, [(-1728) % p, 1], p)
    return out


def g_of_xj_coeffs() -> tuple[list[int], list[int]]:
    """Integer pieces of G(x, j) = C45(x)^3 - j * x (1 - 11x - x^2)^5:
    returns (C45^3, x(1-11x-x^2)^5) over Z."""
    from .poly import Poly

    a = Poly(C45) ** 3
    b = Poly([0, 1]) * Poly([1, -11, -1]) ** 5
    return list(a.c), list(b.c)
