"""The level-5 modular equation and the class-equation factorization checks.

Central objects:

* ``Q5`` -- the de-symmetrized modular polynomial, Q5(-x-y, xy) = Phi5(x, y);
* ``phi5()`` -- Phi5(x, y) as an exact integer bivariate polynomial;
* ``HD`` -- the table of class polynomials H_{-d} appearing in the
  factorization of K_{5p} = H_{-20p} (p = 1 mod 4) or H_{-5p} H_{-20p}
  (p = 3 mod 4) modulo p;
* ``build_k5p`` -- reconstruction of K_{5p} mod p from the supersingular
  factors of Phi5(x^p, x), with multiplicities read off Phi5(x^p, x)^2,
  computed modulo ss_p and modulo powers of each factor;
* ``verify_class_equation`` -- the structural comparison of that
  reconstruction against the predicted product
  H_{-20}^(2 e20) * prod H_{-d}^(4 e_d) * prod (X^2 + a_i X + b_i)^2
  together with the degree identity a_p h(-5p) = 4 e20 + sum 4 e_d deg H_{-d}
  + 4 N_p;
* ``cofactor_resultant`` -- the resultant R(d) extracted from the cofactor
  f_d of the quartic block Q_d inside F_d(x) = x^{5h} (1-11x-x^2)^h H_{-d}(j(x)).

Everything is exact; expected values live in :mod:`hasse5.refdata`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import VerificationError, modpoly as mp
from .classno import h5l
from .ffactor import factor_ff
from .fp import legendre
from .hasse import C4, DEN_J, build_ss
from .numfield import BiQuadElem, QuadElem
from .poly import BiPoly, Poly, discriminant, resultant

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


class StructureMismatch(ValueError):
    """The reconstructed class equation does not match the predicted factor shape."""


@lru_cache(maxsize=1)
def phi5() -> BiPoly:
    """Phi5(x, y) = Q5(-x-y, xy) as an exact integer bivariate polynomial."""
    grid = [[0] * 13 for _ in range(13)]
    from math import comb

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


def check_discy() -> Poly | None:
    """disc_y(Phi5(x,y)) - 5^5 x^4 (x-1728)^4 prod_{d != 4} H_{-d}(x)^2;
    returns None on success, the nonzero difference polynomial on failure."""
    ph = phi5().g
    ncols = len(ph[0])
    ypoly = Poly([Poly([row[j] for row in ph]) for j in range(ncols)])
    lhs = discriminant(ypoly)  # a Poly in x: entries of the Sylvester matrix were x-polys
    rhs = Poly([0, 0, 0, 0, 5**5]) * Poly([-1728, 1]) ** 4
    for d in T_SET:
        if d != 4:
            rhs = rhs * hd_poly(d) ** 2
    diff = lhs - rhs
    return None if diff.is_zero() else diff


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
    """The 0/1 exponent selectors for H_{-20} and each H_{-d}, d in the special set."""
    flags = {20: (1 - legendre(-20, p)) * (1 + legendre(5, p)) // 4}
    for d in (4, 11, 16, 19):
        flags[d] = (1 - legendre(-d, p)) // 2
    dh = _disc_hd()
    for d in QUAD_D:
        flags[d] = (1 - legendre(-d, p)) * (1 - legendre(dh[d], p)) // 4
    flags[84] = (1 - legendre(-84, p)) * (1 - legendre(3, p)) * (1 - legendre(7, p)) // 8
    flags[96] = (1 - legendre(-96, p)) * (1 - legendre(2, p)) * (1 - legendre(3, p)) // 8
    return flags


def _phi5_xp_x_mod(m: list[int], p: int) -> list[int]:
    """Phi5(x^p, x) mod m over F_p, without forming the degree-6p polynomial:
    X = x^p mod m, then Horner in X over the rows of Phi5 (degree 6 in X)."""
    X = mp.pow_mod([0, 1], p, m, p)
    acc: list[int] = []
    for row in reversed(phi5().g):
        acc = mp.rem(mp.add(mp.mul(acc, X, p), mp.from_int_poly(row, p), p), m, p)
    return acc


def build_k5p(p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factors of K_{5p} mod p: the supersingular irreducible factors of
    Phi5(x^p, x), carrying twice their multiplicity in Phi5(x^p, x).

    gcd(ss_p, Phi5(x^p, x)) is taken as gcd(ss_p, Phi5(x^p, x) mod ss_p), and
    the multiplicity of a factor q is the largest k with Phi5(x^p, x) = 0
    mod q^k.  Returned sorted by (degree, coefficient tuple).
    """
    if p <= 20:
        raise ValueError("class-equation reconstruction needs p > 20")
    ss = build_ss(p)
    g = mp.gcd(ss, _phi5_xp_x_mod(ss, p), p)
    out = []
    for coeffs, m in factor_ff(g, p).factors:
        if m != 1:
            raise VerificationError(f"supersingular polynomial has a repeated factor at p={p}")
        q = list(coeffs)
        mult, qk = 0, q
        while not _phi5_xp_x_mod(qk, p):
            mult += 1
            qk = mp.mul(qk, q, p)
        if mult < 1:
            raise VerificationError(f"factor {coeffs} of gcd(ss_p, Phi5(x^p, x)) does not divide Phi5(x^p, x)")
        out.append((coeffs, 2 * mult))
    out.sort(key=lambda t: (len(t[0]) - 1, t[0]))
    return out


@dataclass(frozen=True)
class K5pReport:
    p: int
    eps: dict
    matched: tuple  # ((coeffs, multiplicity, source_d), ...)
    leftovers: tuple  # ((a_i, b_i), ...) each of multiplicity 2
    n_p: int
    a_p: int
    h5p: int
    degree: int
    identity_holds: bool
    structure_ok: bool
    mismatches: tuple = field(default_factory=tuple)
    sporadic_notes: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "eps": {str(k): v for k, v in self.eps.items()},
            "matched": [[list(c), m, d] for c, m, d in self.matched],
            "leftovers": [list(t) for t in self.leftovers],
            "N_p": self.n_p,
            "a_p": self.a_p,
            "h_minus_5p": self.h5p,
            "degree": self.degree,
            "identity_holds": self.identity_holds,
            "structure_ok": self.structure_ok,
            "mismatches": list(self.mismatches),
            "sporadic_notes": list(self.sporadic_notes),
        }


def in_validity_range(p: int) -> bool:
    """The primes where the predicted K_{5p} shape holds: the 22-prime
    exceptional set and p > 379."""
    from .refdata import S_SET

    return p in S_SET or p > 379


def verify_class_equation(p: int, force: bool = False) -> K5pReport:
    """Compare the reconstructed K_{5p} mod p against the predicted shape.

    Outside the validity range the comparison is still performed when
    ``force`` is set, and discrepancies are reported instead of raised.
    """
    in_range = in_validity_range(p)
    if not (in_range or force):
        raise ValueError(f"p={p} outside the validity range; use force to run anyway")

    flags = epsilon_flags(p)
    k5p_list = build_k5p(p)
    found = dict(k5p_list)
    mismatches: list[str] = []

    expected: dict[tuple[int, ...], tuple[int, int]] = {}  # coeffs -> (multiplicity, d)
    if flags[20]:
        for coeffs, m in factor_ff(mp.from_int_poly(HD[20], p), p).factors:
            if len(coeffs) != 2 or m != 1:
                mismatches.append(f"H_-20 mod {p} did not split into distinct linears")
                continue
            expected[coeffs] = (2, 20)
    for d in (4, 11, 16, 19):
        if flags[d]:
            expected[tuple(mp.from_int_poly(HD[d], p))] = (4, d)
    for d in QUAD_D:
        if flags[d]:
            q = tuple(mp.from_int_poly(HD[d], p))
            if legendre(_disc_hd()[d], p) != -1:
                mismatches.append(f"H_-{d} mod {p} unexpectedly reducible")
            expected[q] = (4, d)
    for d in QUART_D:
        if flags[d]:
            pieces = factor_ff(mp.from_int_poly(HD[d], p), p).factors
            if len(pieces) != 2 or any(len(c) != 3 or m != 1 for c, m in pieces):
                mismatches.append(f"H_-{d} mod {p} is not a product of two irreducible quadratics")
            for coeffs, _ in pieces:
                expected[coeffs] = (4, d)

    matched = []
    for coeffs, (mult, d) in sorted(expected.items(), key=lambda t: (len(t[0]), t[0])):
        got = found.pop(coeffs, None)
        if got is None:
            mismatches.append(f"predicted factor {coeffs} (d={d}) absent")
        elif got != mult:
            mismatches.append(f"factor {coeffs} (d={d}): expected multiplicity {mult}, found {got}")
            matched.append((coeffs, got, d))
        else:
            matched.append((coeffs, got, d))

    leftovers = []
    sporadic = []
    hd84 = mp.from_int_poly(HD[84], p)
    hd96 = mp.from_int_poly(HD[96], p)
    hd20 = mp.from_int_poly(HD[20], p)
    for coeffs, mult in sorted(found.items(), key=lambda t: (len(t[0]), t[0])):
        if len(coeffs) != 3:
            mismatches.append(f"leftover factor {coeffs} is not quadratic")
            continue
        if mult != 2:
            mismatches.append(f"leftover {coeffs}: multiplicity {mult} != 2")
        b_i, a_i, _ = coeffs
        if Q5.eval(a_i, b_i) % p:
            mismatches.append(f"leftover {coeffs}: Q5(a, b) != 0 mod p")
        leftovers.append((a_i, b_i))
        for d, hdp in ((84, hd84), (96, hd96)):
            if not flags[d] and not mp.rem(hdp, list(coeffs), p):
                sporadic.append(f"leftover {coeffs} divides H_-{d} mod {p} (sporadic)")
        # never observed, but reported rather than assumed impossible
        if list(coeffs) == hd20:
            sporadic.append(f"leftover {coeffs} coincides with H_-20 mod {p}")

    n_p = len(leftovers)
    h = h5l(p)
    ap = a_p(p)
    rhs = 4 * flags[20] + sum(4 * flags[d] * (len(HD[d]) - 1) for d in T_SET) + 4 * n_p
    identity = ap * h == rhs
    degree = sum((len(c) - 1) * m for c, m in k5p_list)
    if degree != ap * h:
        mismatches.append(f"deg K_5p = {degree} != a_p h(-5p) = {ap * h}")

    ok = not mismatches
    if not ok and in_range and not force:
        raise StructureMismatch(f"p={p}: " + "; ".join(mismatches))
    return K5pReport(
        p,
        flags,
        tuple(matched),
        tuple(leftovers),
        n_p,
        ap,
        h,
        degree,
        identity,
        ok,
        tuple(mismatches),
        tuple(sporadic),
    )


# ---------------------------------------------------------------------------
# The characteristic-zero cofactor resultants R(d).


class NonExactSplit(ArithmeticError):
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


def _g_shape(a) -> Poly:
    return Poly([1, -a, 11 * a + 2, a, 1])


def gd_poly(d: int):
    """The Table-2 quartic g_d over its coefficient field."""
    if d in GD_PARAM_INT:
        return _g_shape(GD_PARAM_INT[d])
    if d in GD_PARAM_QUAD:
        m, a0, a1 = GD_PARAM_QUAD[d]
        return _g_shape(QuadElem(m, a0, a1))
    m1, m2, c0, c1, c2, c3 = GD_PARAM_BIQUAD[d]
    return _g_shape(BiQuadElem(m1, m2, c0, c1, c2, c3))


def qd_poly(d: int) -> Poly:
    """Q_d = product of the Galois conjugates of g_d; integer coefficients."""
    if d == 20:
        return Poly([1, -22, -6, 22, 1])
    if d in GD_PARAM_INT:
        return gd_poly(d)
    if d in GD_PARAM_QUAD:
        g = gd_poly(d)
        q = g * g.map(lambda c: c.conj() if isinstance(c, QuadElem) else c)
        return q.map(_rat_int)
    g = gd_poly(d)
    q = Poly([1])
    for fs in (False, True):
        for ft in (False, True):
            q = q * g.map(lambda c: c.conj(fs, ft) if isinstance(c, BiQuadElem) else c)
    return q.map(_rat_int)


def _rat_int(c):
    if isinstance(c, QuadElem):
        if c.b != 0:
            raise NonExactSplit("conjugate product not rational")
        v = c.a
    elif isinstance(c, BiQuadElem):
        if not c.is_rational():
            raise NonExactSplit("conjugate product not rational")
        v = c.c[0]
    else:
        v = c
    iv = int(v)
    if iv != v:
        raise NonExactSplit("conjugate product not integral")
    return iv


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
    if d in GD_PARAM_INT:
        a = GD_PARAM_INT[d]
    elif d in GD_PARAM_QUAD:
        m, a0, a1 = GD_PARAM_QUAD[d]
        a = QuadElem(m, a0, a1)
    else:
        m1, m2, c0, c1, c2, c3 = GD_PARAM_BIQUAD[d]
        a = BiQuadElem(m1, m2, c0, c1, c2, c3)
    return a * a - 44 * a - 16
