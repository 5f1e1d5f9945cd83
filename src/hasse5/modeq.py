"""The level-5 modular equation and the class-equation factorization checks.

Central objects:

* ``Q5`` -- the de-symmetrized modular polynomial, Q5(-x-y, xy) = Phi5(x, y);
* ``phi5()`` -- Phi5(x, y) as an exact integer bivariate polynomial;
* ``HD`` -- the table of class polynomials H_{-d} appearing in the
  factorization of K_{5p} = H_{-20p} (p = 1 mod 4) or H_{-5p} H_{-20p}
  (p = 3 mod 4) modulo p;
* ``build_k5p`` -- reconstruction of K_{5p} mod p from the supersingular
  factors of Phi5(x^p, x), each with twice its multiplicity there: their
  product g is split once with no gcd, its factors certifying it squarefree
  with factors of degree 1 and 2: the linear ones by one root sweep of g
  over F_p, their cofactor Q with no root at them (``_certify``), the
  quadratic ones, distinct and multiplying to Q, read off their traces and
  norms, x + x^p and x^(p+1) mod Q from x^p mod ss_p reduced mod Q once, by
  Newton's identities (``_quadratic_factors``);
  g comes from Phi5(x^p, x) mod ss_p by Horner in x^p mod ss_p over Phi5's
  rows reduced mod p (``_phi5_mod``), and the multiplicity of each factor is
  the order of the first Hasse derivative of Phi5 in its second variable,
  evaluated at (x^p, x), that does not vanish at the factor's root, read for
  every factor at once off one table of those derivatives at the roots, as
  pairs over F_p[beta]/(q) (``_hasse_nonzero``);
* ``verify_class_equation`` -- the structural comparison of that
  reconstruction against the predicted product
  H_{-20}^(2 e20) * prod H_{-d}^(4 e_d) * prod (X^2 + a_i X + b_i)^2
  together with the degree identity a_p h(-5p) = 4 e20 + sum 4 e_d deg H_{-d}
  + 4 N_p, in one pass over the factors of K_{5p}, factoring no H_{-d};
* ``cofactor_resultant`` -- the resultant R(d) extracted from the cofactor
  f_d of the quartic block Q_d inside F_d(x) = x^{5h} (1-11x-x^2)^h H_{-d}(j(x)).

Everything is exact; expected values live in :mod:`hasse5.refdata`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import comb, prod

import numpy as np

from . import VerificationError, modpoly as mp
from .classno import h5l
from .fp import legendre
from .hasse import C4, DEN_J, build_ss
from .numfield import BiQuadElem, QuadElem
from .poly import BiPoly, Poly, discriminant, galois_norm, resultant

# ---------------------------------------------------------------------------
# The de-symmetrized modular polynomial Q5(u, v):  Q5[i][j] = coeff of u^i v^j.

Q5 = BiPoly(
    [
        [
            2**90 * 3**18 * 5**3 * 11**9,
            -277458457161876591676690089078008919883776,
            5495857649359740948103830574202880,
            -441973132732967824498752,
            1666008466480,
            -1,
        ],
        [
            -53274330803424425450420160273356509151232000,
            -35714002250464310712293507636763033600,
            -26898103232984020907026022400,
            -107878922099683200,
            -3720,
            0,
        ],
        [
            6692500042627997708487149415015068467200,
            -192457939757860831020806056181760,
            383083610766544859184,
            -4550940,
            0,
            0,
        ],
        [
            -280244777828439527804321565297868800,
            -128541798897012758937600,
            -2028551200,
            0,
            0,
            0,
        ],
        [1284733132841424456253440, -246683410956, 0, 0, 0, 0],
        [-1963211489280, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ]
)

# Class polynomials H_{-d} (ascending coefficients).
HD: dict[int, tuple[int, ...]] = {
    4: (-1728, 1),
    11: (32 * 32 * 32, 1),
    16: (-(66**3), 1),
    19: (96 * 96 * 96, 1),
    20: (-681472000, -1264000, 1),
    24: (14670139392, -4834944, 1),
    36: (-1790957481984, -153542016, 1),
    51: (6262062317568, 5541101568, 1),
    64: (-7367066619912, -82226316240, 1),
    91: (-3845689020776448, 10359073013760, 1),
    99: (-56171326053810176, 37616060956672, 1),
    84: (
        -5133201653210986057826304,
        88821246589810089394176,
        -5663679223085309952,
        -3196800946944,
        1,
    ),
    96: (
        -984163224549635621646336,
        447805364111967209472,
        670421055192156288,
        -23340144296736,
        1,
    ),
}

T_SET = (4, 11, 16, 19, 24, 36, 51, 64, 84, 91, 96, 99)
QUAD_D = (24, 36, 51, 64, 91, 99)
QUART_D = (84, 96)


@lru_cache(maxsize=1)
def phi5() -> BiPoly:
    """Phi5(x, y) = Q5(-x-y, xy) as an exact integer bivariate polynomial."""
    grid = [[0] * 13 for _ in range(13)]
    for i, j, c in Q5.terms():
        sign = -1 if i % 2 else 1
        for a in range(i + 1):
            grid[a + j][i - a + j] += sign * c * comb(i, a)
    return BiPoly(grid)


def phi5_diag() -> Poly:
    """Phi5(x, x) over Z."""
    g = phi5().g
    out = [0] * (len(g) + len(g[0]))
    for i, row in enumerate(g):
        for j, c in enumerate(row):
            out[i + j] += c
    return Poly(out)


def phi5_xp_x(p: int) -> list[int]:
    """Phi5(x^p, x) over F_p, assembled coefficient-by-coefficient (degree 6p).

    ``build_k5p`` never forms it; the tests use it as the reference."""
    g = phi5().g
    out = [0] * (6 * p + 7)
    for i, row in enumerate(g):
        for j, c in enumerate(row):
            if c:
                out[p * i + j] = (out[p * i + j] + c) % p
    return mp.trim(out)


def phi5_resultant_definition_holds() -> bool:
    """5^15 Phi5(x, y) equals the z-resultant of the two degree-6 model polynomials.

    Both sides have degree <= 6 in x and in y, so agreement on a 7 x 7 integer
    grid proves the polynomial identity.
    """
    ph = phi5()
    scale = 5**15
    base1 = Poly([16, 12, 1]) ** 3
    base2 = Poly([496, -228, 1]) ** 3
    lin = Poly([11, 1])
    lin5 = lin**5
    for x0 in range(7):
        for y0 in range(7):
            f = base1 + x0 * lin
            g = base2 + y0 * lin5
            r = resultant(f, g)
            if r != scale * ph.eval(x0, y0):
                return False
    return True


def hd_poly(d: int) -> Poly:
    return Poly(HD[d])


def check_phi5_diagonal() -> bool:
    """Phi5(x, x) = -H20 H4^2 H11^2 H16^2 H19^2 exactly over Z."""
    rhs = -(hd_poly(20) * hd_poly(4) ** 2 * hd_poly(11) ** 2 * hd_poly(16) ** 2 * hd_poly(19) ** 2)
    return phi5_diag() == rhs


def check_discy() -> tuple[int, int, int] | None:
    """disc_y(Phi5(x, y)) = 5^5 x^4 (x - 1728)^4 prod_{d != 4} H_{-d}(x)^2,
    checked at integer points x0.  Returns None when it holds, and otherwise
    the first point where it fails with its two sides:
    (x0, disc(Phi5(x0, y)), the right side at x0).

    The points suffice.  Write Phi5 = sum_j c_j(x) y^j, of degree n in y,
    with every c_j of degree <= e in x.  disc_y(Phi5) is
    +-Res_y(Phi5, dPhi5/dy) / c_n, and that Sylvester matrix has 2n - 1
    rows of entries of x-degree <= e, so deg_x disc_y(Phi5) <= (2n - 1) e
    (66 for Phi5, monic of degree 6 in y and in x).  Where c_n(x0) != 0,
    x -> x0 keeps both degrees in y, so it maps that Sylvester matrix to the
    one of Phi5(x0, y): disc_y commutes with x -> x0.  Two polynomials of
    degree <= N = max((2n - 1) e, deg of the right side) that agree at
    N + 1 points are equal, as in ``phi5_resultant_definition_holds``."""
    rows = phi5().g  # rows[i][j]: the coefficient of x^i y^j
    c = [Poly([row[j] for row in rows]) for j in range(len(rows[0]))]
    n, e = len(c) - 1, len(rows) - 1
    factors = [(Poly([0, 1]), 4), (Poly([-1728, 1]), 4)] + [(hd_poly(d), 2) for d in T_SET if d != 4]
    points = (x0 for x0 in count() if c[n](x0) != 0)
    for x0 in islice(points, max((2 * n - 1) * e, sum(f.degree * k for f, k in factors)) + 1):
        lhs = discriminant(Poly([cj(x0) for cj in c]))
        rhs = 5**5 * prod(f(x0) ** k for f, k in factors)
        if lhs != rhs:
            return x0, lhs, rhs
    return None


# ---------------------------------------------------------------------------
# Derivative data of F(t) = Phi5(t^p, t) = Q(-t^p - t, t^(p+1)) at the roots of
# the low-degree class polynomials (all evaluated in characteristic zero).


@lru_cache(maxsize=1)
def _partials() -> dict[str, BiPoly]:
    q1 = Q5.d_du()
    q2 = Q5.d_dv()
    return {
        "Q1": q1,
        "Q2": q2,
        "Q11": q1.d_du(),
        "Q12": q1.d_dv(),
        "Q22": q2.d_dv(),
    }


def diag_derivs(t):
    """(F(t), F'(t), F''(t)) for a linear-factor root t, via u = -2t, v = t^2."""
    P = _partials()
    u, v = -2 * t, t * t
    F = Q5.eval(u, v)
    F1 = -P["Q1"].eval(u, v) + t * P["Q2"].eval(u, v)
    F2 = P["Q11"].eval(u, v) - 2 * t * P["Q12"].eval(u, v) + t * t * P["Q22"].eval(u, v)
    return F, F1, F2


def quad_derivs(u, v):
    """(Q, Q1, Q2, D1, D2) at the coefficients (u, v) of a quadratic factor
    x^2 + ux + v, where D1 = Q11 - v Q22 and D2 = 2 Q12 + u Q22."""
    P = _partials()
    q22 = P["Q22"].eval(u, v)
    return (
        Q5.eval(u, v),
        P["Q1"].eval(u, v),
        P["Q2"].eval(u, v),
        P["Q11"].eval(u, v) - v * q22,
        2 * P["Q12"].eval(u, v) + u * q22,
    )


def table1_gcd(d: int) -> int:
    """gcd(D1, D2) at the coefficients of the quadratic H_{-d}."""
    from math import gcd

    c0, c1, _ = HD[d]
    q, q1, q2, d1, d2 = quad_derivs(c1, c0)
    if q != 0 or q1 != 0 or q2 != 0:
        raise VerificationError(f"Q5 or a first derivative is nonzero at H_-{d}")
    return gcd(d1, d2)


def h20_root_data() -> tuple[QuadElem, int, int, int]:
    """F and F' at t = 632000 + 282880 sqrt(5): returns (F(t), A, B, A^2 - 5 B^2)
    where F'(t) = A + B sqrt(5)."""
    t = QuadElem(5, 632000, 282880)
    F, F1, _ = diag_derivs(t)
    if F != 0:
        raise VerificationError("F(t) != 0 at the H_-20 root")
    A, B = F1.a, F1.b
    return F, A, B, A * A - 5 * B * B


def sporadic_case(d: int, case: int):
    """The printed sporadic quadratic factor data for d in {84, 96}.

    case 1 and 2: returns (N(Q(u,v)), gcd(N(Q1), N(Q2))).
    case 3: Q = Q1 = Q2 = 0 and returns gcd(N(D1), N(D2)).
    """
    from math import gcd

    u, v = _SPORADIC_UV[(d, case)]
    q, q1, q2, d1, d2 = quad_derivs(u, v)
    if case == 3:
        if q != 0 or q1 != 0 or q2 != 0:
            raise VerificationError(f"Q5 or a first derivative is nonzero at sporadic d={d} case 3")
        return gcd(d1.norm(), d2.norm())
    return q.norm(), gcd(q1.norm(), q2.norm())


_SPORADIC_UV = {
    (84, 1): (
        QuadElem(3, -1598400473472, 922836934656),
        QuadElem(3, -2856689444809764864, 1649310419952599040),
    ),
    (84, 2): (
        QuadElem(7, -1598400473472, 604139268096),
        QuadElem(7, 24757128541605888, -9357315081633792),
    ),
    (84, 3): (
        QuadElem(21, -1598400473472, 348799965696),
        QuadElem(21, 92704725504000, -20235870240768),
    ),
    (96, 1): (
        QuadElem(2, -11670072148368, 8251987131648),
        QuadElem(2, -17962539423257664, 12701433452887296),
    ),
    (96, 2): (
        QuadElem(3, -11670072148368, 6737719296672),
        QuadElem(3, 342272619618959808, -197611189074074880),
    ),
    (96, 3): (
        QuadElem(6, -11670072148368, -4764286992816),
        QuadElem(6, 10900447400376000, 4450089034924416),
    ),
}


# ---------------------------------------------------------------------------
# Epsilon flags and the class-equation reconstruction mod p.


def a_p(p: int) -> int:
    """1, 2, 4 according as p = 1 mod 4, 3 mod 8, 7 mod 8."""
    val = 1 + (1 - legendre(-1, p)) * (2 + legendre(2, p)) // 2
    if val != {1: 1, 3: 2, 7: 4}[p % 8 if p % 4 == 3 else 1]:
        raise VerificationError(f"a_p = {val} disagrees with p mod 8 at p={p}")
    return val


@lru_cache(maxsize=1)
def _disc_hd() -> dict[int, int]:
    return {d: discriminant(hd_poly(d)) for d in HD if len(HD[d]) > 2}


def epsilon_flags(p: int) -> dict[int, int]:
    """The 0/1 exponent selectors for H_{-20} and each H_{-d}, d in the special set.

    e_d = 1 for d in ``QUAD_D`` needs (disc H_{-d} / p) = -1, so H_{-d} stays
    irreducible, and e20 = 1 needs (5/p) = 1, that is (disc H_{-20} / p) = 1
    for p > 20 as disc H_{-20} = 2^18 5^3 13^2 17^2, so H_{-20} splits into
    distinct linears.  Only the quartic blocks' shape is left to check.
    """
    flags = {20: (1 - legendre(-20, p)) * (1 + legendre(5, p)) // 4}
    for d in (4, 11, 16, 19):
        flags[d] = (1 - legendre(-d, p)) // 2
    dh = _disc_hd()
    for d in QUAD_D:
        flags[d] = (1 - legendre(-d, p)) * (1 - legendre(dh[d], p)) // 4
    flags[84] = (1 - legendre(-84, p)) * (1 - legendre(3, p)) * (1 - legendre(7, p)) // 8
    flags[96] = (1 - legendre(-96, p)) * (1 - legendre(2, p)) * (1 - legendre(3, p)) // 8
    return flags


@lru_cache(maxsize=None)
def _hasse_rows(i: int) -> tuple[tuple[int, ...], ...]:
    """D_Y^i Phi5, the i-th Hasse derivative of Phi5(X, Y) in its second
    variable, over Z: row a holds sum_b C(b, i) c_ab Y^(b - i), the
    coefficient of X^a, where Phi5 = sum c_ab X^a Y^b."""
    rows = [mp.trim([comb(b, i) * c for b, c in enumerate(row)][i:]) for row in phi5().g]
    while rows and not rows[-1]:
        rows.pop()
    return tuple(map(tuple, rows))


def _phi5_mod(m: list[int], p: int) -> tuple[list[int], list[int]]:
    """(X, Phi5(X, x) mod m) over F_p for X = x^p mod m and m of degree
    >= 1, both on one ``mulmod`` mod m: X by one square-and-multiply
    (``mp._power``, each multiply by x a shift), then Horner in X over
    Phi5's rows (``_hasse_rows(0)``), reduced mod p and mod m once, one
    ``mulmod`` a step."""
    mulmod, times_x = mp.mulmod_by(m, p)
    n = mp.deg(m)
    X = mp._power(mulmod, times_x, mp.pad(mp.rem([0, 1], m, p), n), p)
    rows = [mp.pad(mp.rem(mp.from_int_poly(r, p), m, p), n) for r in _hasse_rows(0)]
    acc = rows[-1]
    for r in reversed(rows[:-1]):
        acc = (mulmod(acc, X) + r) % p
    return mp.trim(X.tolist()), mp.trim(acc.tolist())


def _pair_mul(u0, u1, v0, v1, c, b, p: int):
    """(u0 + u1 beta)(v0 + v1 beta) in F_p[beta]/(beta^2 - c beta + b), as
    its pair of coefficients, for arrays with entries in [0, p); every term
    formed is below p^2."""
    t = u1 * v1 % p
    return (u0 * v0 - b * t) % p, (u0 * v1 + u1 * v0 + c * t) % p


def _hasse_nonzero(factors: list[list[int]], p: int) -> np.ndarray:
    """The (7, len(factors)) bool table of D_i = (D_Y^i Phi5)(x^p, x) mod q
    != 0, for i <= 6 and each monic irreducible q = x - r or x^2 - c x + b.

    At a root beta of q, in F_p[beta]/(q) as pairs u0 + u1 beta, x^p is r or
    c - beta (the two roots of q add up to c), and x is beta (r for a linear
    q, with c = b = 0).  Six pair products give the powers 0..6 of both, one
    broadcast product the 49 monomials (x^p)^a x^j, and D = H @ M the values
    D_i(beta^p, beta), where H[i, 7a + j] is the coefficient of X^a Y^j in
    D_Y^i Phi5 mod p, read off ``_hasse_rows`` at each call.  Each entry of
    H @ M sums 49 products below p^2, a bound ``mp._check_products`` checks
    (``check_bounds`` keeps ``build_k5p`` far inside it).
    """
    mp._check_products(49, p)
    H = np.zeros(7 * 49, dtype=np.int64)
    at, coeffs = [], []
    for i in range(7):
        for a, row in enumerate(_hasse_rows(i)):
            at.extend(range(49 * i + 7 * a, 49 * i + 7 * a + len(row)))
            coeffs.extend(c % p for c in row)
    H[at] = coeffs
    cols = []  # per factor: u0 of x^p and of x, u1 of x^p and of x, c, b
    for q in factors:
        if len(q) == 2:
            r = -q[0] % p
            cols.append((r, r, 0, 0, 0, 0))
        else:
            c = -q[1] % p
            cols.append((c, 0, p - 1, 1, c, q[0]))
    T = np.array(cols, dtype=np.int64).reshape(len(factors), 6).T
    u0, u1, c, b = T[0:2], T[2:4], T[4], T[5]
    pow0, pow1 = [np.ones_like(u0)], [np.zeros_like(u0)]
    for _ in range(6):
        v0, v1 = _pair_mul(pow0[-1], pow1[-1], u0, u1, c, b, p)
        pow0.append(v0)
        pow1.append(v1)
    P0, P1 = np.stack(pow0), np.stack(pow1)  # (exponent, x^p or x, factor)
    M = _pair_mul(P0[:, None, 0], P1[:, None, 0], P0[None, :, 1], P1[None, :, 1], c, b, p)
    D = H.reshape(7, 49) @ np.stack(M).reshape(2, 49, len(factors)) % p
    return (D != 0).any(axis=0)


def _certify(g: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """(the factors x - r of g, Q) for g monic, where the r are the roots of
    g in F_p, ascending, and Q = g / prod(x - r) has no root in F_p; raises
    ``VerificationError`` when it has one.

    The r come from one blocked sweep over all of F_p (``_roots``), so they
    are every root of g in F_p, and they are distinct, so L = prod(x - r) is
    squarefree and divides g exactly.  Every root of Q in F_p is a root of g,
    so if Q(r) != 0 for each r, checked by one sweep over the r alone, Q has
    no root in F_p and is coprime to L; a repeated linear factor of g leaves
    a copy in Q, so Q(r) = 0.  ``_quadratic_factors`` ends the certificate
    (``build_k5p``, step 2).
    """
    roots = _roots(g, p)
    lins = [[-r % p, 1] for r in roots]
    lin = [1]
    for q in lins:
        lin = mp.mul(lin, q, p)
    quad = mp.quo(g, lin, p)
    if roots and mp._divisor_params(quad, np.array([roots]), p):
        raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
    return lins, quad


def _roots(f: list[int], p: int) -> list[int]:
    """The distinct roots of f in F_p, ascending, by one blocked sweep over all
    of F_p (``mp._divisor_params``, width 1, which needs 2 p^2 < 2^63)."""
    return mp._divisor_params(f, np.arange(p)[None, :], p)


def _from_power_sums(sums: list[int], p: int) -> list[int]:
    """prod_i (t - v_i), ascending, from sums[k] = sum_i v_i^k for k <= m < p,
    by Newton's identities: c_k = (-1)^k e_k, the coefficient of t^(m-k),
    has k c_k = -sum_(j=1..k) c_(k-j) sums[j]."""
    c = [1]
    for k in range(1, len(sums)):
        c.append(-sum(c[k - j] * sums[j] for j in range(1, k + 1)) * pow(k, p - 2, p) % p)
    return c[::-1]


def _quadratic_factors(f: list[int], Xf: list[int], p: int) -> list[list[int]]:
    """The irreducible quadratic factors of f, a monic squarefree product of
    them over F_p (p odd), for Xf = x^p mod f and f with no root in F_p
    (``_certify`` checks it in ``build_k5p``); raises ``VerificationError``
    when f is found not to be one, so also when deg f is odd.  A constant f
    has no factor, and a quadratic f is its own.

    For f = prod_i q_i of degree 2m, q_i = x^2 - c_i x + b_i, each q_i is
    fixed by its trace c_i and norm b_i, read off with no splitting.
    T = x + Xf and W = x Xf mod f take the values c_i and b_i at both roots
    beta, beta^p of q_i, as beta^p is the other root.  Let s_j be the power
    sums of the 2m roots of f, from Newton's identities
    (sum_(j>=1) s_j t^(j-1) = -rev(f)'/rev(f)); then Tr(U) = sum_j U_j s_j,
    the sum of U over the roots of f, also for an unreduced U.  For
    V = T + lambda W, with the values v_i = c_i + lambda b_i,
    Tr(V^k)/2 = sum_i v_i^k (p is odd), and Newton's identities give
    R_V = prod_i (t - v_i) from these m power sums (k <= m < p).  When the
    sweep finds m distinct roots of R_V, put
    S_U = R_V(t) sum_i u_i / (t - v_i) = sum_i u_i prod_(j != i) (t - v_j),
    the polynomial part of R_V(t) sum_(k<m) (Tr(U V^k)/2) t^(-k-1); then
    S_U(v_i) = u_i R_V'(v_i), so c_i = S_T(v_i)/R_V'(v_i) and
    b_i = S_W(v_i)/R_V'(v_i).  The q_i are distinct, so the pairs (c_i, b_i)
    are, and two of them have v_i = v_j for at most one lambda: of
    m(m-1)/2 + 1 values of lambda one separates every pair, as long as p
    exceeds m(m-1)/2.  Up to min(p, m(m-1)/2 + 1) values are tried, and the
    q_i found must be distinct and multiply to f (a repeated factor of f
    fails every lambda).  Then, f having no root in F_p, each q_i is
    irreducible and f squarefree, whether or not Xf is right.  The power
    sums' Newton inverse sums fewer than 2n - 2 products of residues, every
    other int64 sum at most n + 1: ``mp._rev_inverse`` and ``mp.mulmod_by``
    check these bounds.
    """
    n = mp.deg(f)
    if n % 2:  # no product of quadratics has odd degree
        raise VerificationError(f"the quadratic factors found do not multiply to the degree-{n} piece at p={p}")
    if n < 3:
        return [f] if n == 2 else []
    m = n // 2
    mulmod, times_x = mp.mulmod_by(f, p)

    def hankel(s, u):
        """sum_k s[j + k] u[k] mod p, for j < len(u)."""
        return np.convolve(s, u[::-1])[len(u) - 1 : 2 * len(u) - 1] % p

    # the power sums s_0, ..., s_(2n-2) of the roots of f: n, then -rev(f)'/rev(f)
    rev = np.asarray(f[::-1], dtype=np.int64)
    drev = np.arange(1, n + 1) * rev[1:] % p
    s = np.concatenate(([n % p], -np.convolve(drev, mp._rev_inverse(rev, 2 * n - 2, p))[: 2 * n - 2] % p))
    T = mp.pad(mp.add([0, 1], Xf, p), n)
    W = times_x(mp.pad(Xf, n))
    half = (p + 1) // 2
    tries = min(p, m * (m - 1) // 2 + 1)
    for lam in range(tries):
        V = (T + lam * W) % p
        powers = [mp.pad([1], n)]
        for _ in range(m):
            powers.append(mulmod(powers[-1], V))
        P = np.array(powers)  # the rows V^0, ..., V^m
        R = _from_power_sums((P @ s[:n] % p * half % p).tolist(), p)  # from Tr(V^k)/2
        v = _roots(R, p)
        if len(v) == m:
            break
    else:
        raise VerificationError(f"no lambda < {tries} separates the quadratic factors of a degree-{n} piece at p={p}")
    dR, top = mp.deriv(R, p), np.asarray(R[1:], dtype=np.int64)
    # S_U from sum_i u_i v_i^k = Tr(U V^k)/2, k < m, where Tr(U V^k) = V^k . hankel(s, U)
    S_T, S_W = (hankel(top, P[:m] @ hankel(s, U) % p * half % p).tolist() for U in (T, W))
    factors = []
    for t in v:
        inv_d = pow(mp.eval_at(dR, t, p), p - 2, p)
        factors.append([mp.eval_at(S_W, t, p) * inv_d % p, -mp.eval_at(S_T, t, p) * inv_d % p, 1])
    if len(set(map(tuple, factors))) < m:
        raise VerificationError(f"the quadratic factors found for the degree-{n} piece are not distinct at p={p}")
    prod = [1]
    for q in factors:
        prod = mp.mul(prod, q, p)
    if prod != f:
        raise VerificationError(f"the quadratic factors found do not multiply to the degree-{n} piece at p={p}")
    return factors


def check_bounds(p: int) -> None:
    """Raise ``ValueError`` for a p past the int64 bounds of ``build_k5p``,
    before ss_p and x^p mod ss_p: the root sweep of ``_certify`` needs
    2 p^2 < 2^63, and the longest int64 sums, in ``_quadratic_factors``'s
    Newton inverse for a factor of ss_p (of degree n <= p//12 + 2), have
    fewer than 2n - 2 products; the products mod ss_p have at most
    p//12 + 3.  Both bounds grow with p."""
    mp._check_sweep(1, p)
    mp._check_products(2 * (p // 12) + 2, p)


def build_k5p(p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factors of K_{5p} mod p: the supersingular irreducible factors of
    F = Phi5(x^p, x), carrying twice their multiplicity in F, sorted by
    (degree, coefficient tuple).

    With X = x^p mod ss_p, gcd(ss_p, F) is taken as g = gcd(ss_p, Phi5(X, x)
    mod ss_p), where ``_phi5_mod`` finds X and Phi5(X, x) mod ss_p on one
    Barrett context for ss_p: one square-and-multiply, then Horner in X over
    Phi5's rows reduced mod p and mod ss_p once.  Three steps follow, none
    of them a general factorization.

    1. ``_certify`` returns the linear factors x - r of g, read off the
       roots r of g found by one blocked sweep over F_p, and their cofactor
       Q, and checks that Q has no root in F_p.  Every root of g is a
       supersingular j, which lies in F_(p^2) (Deuring), so Q is a product
       of distinct irreducible quadratics unless ss_p or g is wrong.

    2. Q splits into its factors, once: ``_quadratic_factors`` reads the
       quadratic ones x^2 - c x + b off their traces c = x + x^p and norms
       b = x^(p+1), which are constant on the two roots of each factor; x^p
       mod Q is X mod Q, as Q divides ss_p, the one remainder of X taken.
       Power sums and Newton's identities read the pairs (c, b) off.  They
       must be distinct and multiply back to Q.  With step 1 this certifies
       g squarefree with factors of degree 1 and 2 only, by no power and no
       gcd: a monic quadratic with no root in F_p is irreducible, distinct
       irreducible factors make Q squarefree, and Q is coprime to the
       squarefree L = prod(x - r).

    3. The multiplicity of each factor q in F is the least i with
       D_i = (D_Y^i Phi5)(x^p, x) mod q nonzero, where D_Y^i is the i-th
       Hasse derivative in the second variable (``_hasse_rows``).  One table
       (``_hasse_nonzero``) holds D_0, ..., D_6 for every factor at once:
       q is irreducible (steps 1 and 2 certify it), so F_p[x]/(q) is a field,
       F_p[beta] for a root beta of q, and q divides D_i exactly when
       D_i(beta^p, beta) = 0.  Its elements are pairs u0 + u1 beta;
       beta^p is r for q = x - r, and c - beta for q = x^2 - c x + b, as
       the two roots beta, beta^p of q add up to c.
       Proof: the i-th Hasse derivative of x^(pa+b) is C(pa+b, i) x^(pa+b-i),
       and by Lucas C(pa+b, i) = C(b, i) mod p for b, i <= 6 < p, so the i-th
       Hasse derivative D^(i) F of F is (D_Y^i Phi5)(x^p, x).  q is
       irreducible, so it divides D^(i) F exactly when D^(i) F vanishes at a
       root beta of q, where it is (D_Y^i Phi5)(beta^p, beta).  If F = q^k u
       with q not dividing u, the Leibniz rule gives q^(k-i) | D^(i) F for
       i < k and D^(k) F = (q')^k u mod q; q is irreducible over the perfect
       field F_p, hence separable, so q does not divide q'.  So q divides D_i
       exactly when i < k, and the least i is k.  Phi5 is monic of degree 6
       in Y, so D_Y^6 Phi5 = 1 and k <= 6; a q dividing every D_i up to
       i = 6 raises ``VerificationError``.  q divides g, so D_0 = F mod q
       must vanish: a q where it does not, as a wrong root beta^p would give,
       raises ``VerificationError`` too.
    """
    if p <= 20:
        raise ValueError("class-equation reconstruction needs p > 20")
    check_bounds(p)
    ss = build_ss(p)
    X, phi = _phi5_mod(ss, p)
    g = mp.gcd(ss, phi, p)
    lins, quad = _certify(g, p)
    factors = lins + _quadratic_factors(quad, mp.rem(X, quad, p), p)
    nonzero = _hasse_nonzero(factors, p)
    if nonzero[0].any():
        raise VerificationError(f"Phi5(x^p, x) does not vanish at a root of a factor of gcd(ss_p, Phi5(x^p, x)) at p={p}")
    if not nonzero.any(axis=0).all():
        raise VerificationError(f"a factor of gcd(ss_p, Phi5(x^p, x)) divides D_Y^6 Phi5(x^p, x) = 1 at p={p}")
    out = [(tuple(q), 2 * int(k)) for q, k in zip(factors, nonzero.argmax(axis=0))]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def in_validity_range(p: int) -> bool:
    """The primes where the predicted K_{5p} shape holds: the 22-prime
    exceptional set and p > 379."""
    from .refdata import S_SET

    return p in S_SET or p > 379


def verify_class_equation(p: int) -> dict:
    """Compare the reconstructed K_{5p} mod p against the predicted shape; the
    result is the JSON payload that ``hasse5 k5p`` prints.

    One pass over the factors q of ``build_k5p(p)``, factoring no class
    polynomial: q is credited to every flagged H_{-d} it divides mod p (they
    can share a factor below the Gross-Zagier bound d1 d2 / 4) and matched to
    the last in the order of ``epsilon_flags``; a q dividing none is a
    leftover X^2 + a X + b.  Discrepancies are reported in the payload's
    "mismatches", never raised; they refute the prediction only where
    ``in_validity_range(p)`` holds.

    The selectors of ``epsilon_flags`` already require a flagged H_{-20} to
    split and a flagged quadratic H_{-d} to stay irreducible; only the
    quartic blocks' shape is checked against the factors found.
    """
    flags = epsilon_flags(p)
    k5p_list = build_k5p(p)
    hd = {d: mp.from_int_poly(HD[d], p) for d in flags}
    credited = {d: [] for d in flags if flags[d]}  # d -> degrees of the factors of K_5p dividing H_-d
    head, body, matched, leftovers, sporadic = [], [], [], [], []
    for coeffs, mult in k5p_list:
        q = list(coeffs)
        divides = [d for d in credited if not mp.rem(hd[d], q, p)]
        for d in divides:
            credited[d].append(len(q) - 1)
        if divides:
            d = divides[-1]
            want = 2 if d == 20 else 4
            if mult != want:
                body.append(f"factor {coeffs} (d={d}): expected multiplicity {want}, found {mult}")
            matched.append([q, mult, d])
            continue
        if len(coeffs) != 3:
            body.append(f"leftover factor {coeffs} is not quadratic")
            continue
        if mult != 2:
            body.append(f"leftover {coeffs}: multiplicity {mult} != 2")
        b_i, a_i, _ = coeffs
        if Q5.eval(a_i, b_i) % p:
            body.append(f"leftover {coeffs}: Q5(a, b) != 0 mod p")
        leftovers.append([a_i, b_i])
        for d in QUART_D:
            if not flags[d] and not mp.rem(hd[d], q, p):
                sporadic.append(f"leftover {coeffs} divides H_-{d} mod {p} (sporadic)")
        # never observed, but reported rather than assumed impossible
        if q == hd[20]:
            sporadic.append(f"leftover {coeffs} coincides with H_-20 mod {p}")

    for d, degrees in credited.items():
        if d in QUART_D and set(degrees) - {2}:
            head.append(f"H_-{d} mod {p} is not a product of two irreducible quadratics")
        if sum(degrees) < len(HD[d]) - 1:
            body.append(f"predicted factors of H_-{d} mod {p} absent: degree {sum(degrees)} of {len(HD[d]) - 1} found")
    mismatches = head + body  # the class polynomials' own shape first

    h = h5l(p)
    ap = a_p(p)
    rhs = 4 * flags[20] + sum(4 * flags[d] * (len(HD[d]) - 1) for d in T_SET) + 4 * len(leftovers)
    degree = sum((len(c) - 1) * m for c, m in k5p_list)
    if degree != ap * h:
        mismatches.append(f"deg K_5p = {degree} != a_p h(-5p) = {ap * h}")
    return {
        "p": p,
        "eps": {str(d): flag for d, flag in flags.items()},
        "matched": matched,
        "leftovers": leftovers,
        "N_p": len(leftovers),
        "a_p": ap,
        "h_minus_5p": h,
        "degree": degree,
        "identity_holds": ap * h == rhs,
        "structure_ok": not mismatches,
        "mismatches": mismatches,
        "sporadic_notes": sporadic,
    }


# ---------------------------------------------------------------------------
# The characteristic-zero cofactor resultants R(d).


class NonExactSplit(VerificationError):
    """Q_d does not divide F_d exactly (would indicate a transcription error)."""


# Table-2 quartic parameters a for g_d(x) = x^4 + a x^3 + (11a+2) x^2 - a x + 1.
# Quadratic cases carry (m, a0, a1) for a = a0 + a1 sqrt(m); biquadratic cases
# carry (m1, m2, c0, c1, c2, c3) with the products sqrt(m1) sqrt(m2) fixed by
# the convention sqrt(m1*m2) = -sqrt(m1)*sqrt(m2) (principal complex branches:
# sqrt(-3)*sqrt(-7) = -sqrt(21), sqrt(-2)*sqrt(-3) = -sqrt(6)).
GD_PARAM_INT = {11: 4, 16: 18, 19: 36}
GD_PARAM_QUAD = {
    24: (-3, -6, 6),
    36: (-3, 30, 22),
    51: (-3, -12, 48),
    64: (-2, -108, 63),
    91: (-7, -108, 144),
    99: (-3, 436, 176),
}
GD_PARAM_BIQUAD = {
    # c = (rational, sqrt(m1), sqrt(m2), sqrt(m1)*sqrt(m2)); printed radicals
    # sqrt(21) and sqrt(6) equal minus the product of the imaginary radicals.
    84: (-3, -7, -117, -57, -33, 27),
    96: (-2, -3, 81, 159, 129, -33),
}


def gd_param(d: int):
    """The Table-2 parameter a of g_d, in its coefficient field."""
    if d in GD_PARAM_INT:
        return GD_PARAM_INT[d]
    if d in GD_PARAM_QUAD:
        return QuadElem(*GD_PARAM_QUAD[d])
    return BiQuadElem(*GD_PARAM_BIQUAD[d])


def gd_poly(d: int):
    """The Table-2 quartic g_d over its coefficient field."""
    a = gd_param(d)
    return Poly([1, -a, 11 * a + 2, a, 1])


def qd_poly(d: int) -> Poly:
    """Q_d = product of the Galois conjugates of g_d; integer coefficients."""
    if d == 20:
        return Poly([1, -22, -6, 22, 1])
    q = galois_norm(gd_poly(d))
    if any(int(c) != c for c in q.c):
        raise NonExactSplit(f"the conjugate product of g_{d} is not integral")
    return q.map(int)


def fd_poly(d: int) -> Poly:
    """F_d(x) = x^{5h} (1-11x-x^2)^h H_{-d}(j(x)) over Z, h = deg H_{-d}."""
    from .poly import compose_rational

    num = Poly(C4) ** 3
    den = Poly(DEN_J)
    return compose_rational(Poly(HD[d]), num, den)


def fd_split(d: int) -> tuple[Poly, Poly]:
    """(Q_d, f_d) with F_d = Q_d f_d; raises NonExactSplit when the division fails."""
    F = fd_poly(d)
    Q = qd_poly(d)
    quot, rem = divmod(F, Q)
    if not rem.is_zero():
        raise NonExactSplit(f"Q_{d} does not divide F_{d}")
    return Q, quot


def cofactor_remainder(d: int) -> tuple[Poly, Poly]:
    """(A_d, B_d): the remainder A_d(t) x + B_d(t) of ftilde_d by x^2 + t x + 11t + 4."""
    from .poly import detilde

    _, f = fd_split(d)
    ft = detilde(f)
    lift = Poly([Poly([c]) for c in ft.c])
    gt = Poly([Poly([4, 11]), Poly([0, 1]), Poly([1])])
    rem = divmod(lift, gt)[1]
    A = rem[1] if rem.degree >= 1 else Poly()
    B = rem[0] if rem.degree >= 0 else Poly()
    return (A if isinstance(A, Poly) else Poly([A]), B if isinstance(B, Poly) else Poly([B]))


def cofactor_resultant(d: int) -> int:
    """R(d) = Res_t(A_d, B_d)."""
    A, B = cofactor_remainder(d)
    return resultant(A, B)


def qd_disc(d: int) -> int:
    return discriminant(qd_poly(d))


def table5_value(d: int):
    """a^2 - 44a - 16 for the Table-2 parameter a, in the coefficient field."""
    a = gd_param(d)
    return a * a - 44 * a - 16
