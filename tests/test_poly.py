import random
import sys
from fractions import Fraction

import pytest

from hasse5 import cli, poly
from hasse5.numfield import CycNum
from hasse5.poly import (
    BiPoly,
    NotSkewPalindromic,
    Poly,
    compose_rational,
    det_bareiss,
    detilde,
    discriminant,
    resultant,
    sylvester,
)


def rand_poly(rng, deg, lo=-9, hi=9):
    c = [rng.randrange(lo, hi + 1) for _ in range(deg)] + [rng.randrange(1, hi + 1)]
    return Poly(c)


def test_arithmetic_basics():
    f = Poly([1, 2, 3])
    g = Poly([-1, 1])
    assert f + g == Poly([0, 3, 3])
    assert f - f == 0
    assert f * g == Poly([-1, -1, -1, 3])
    assert (g**3) == Poly([-1, 3, -3, 1])
    assert f(2) == 1 + 4 + 12
    q, r = divmod(f, g)
    assert q * g + r == f


def test_resultant_sign_convention():
    # Res(x - 2, x - 3) = -1 pins the row order of the Sylvester matrix
    assert resultant(Poly([-2, 1]), Poly([-3, 1])) == -1


def test_resultant_printed_cubic_pair():
    # remainder data of the degree-8 cofactor at d = 11
    A = Poly([0, -648, 54, -1])
    B = Poly([-8624, -3128, 469, -11])
    assert resultant(A, B) == -(2**17) * 7**3 * 11 * 13 * 19 * 43


def test_resultant_parametrized():
    # Res_t(z^2 + 4 + t(z+11), t^2 - 44t - 16) = (z^2 + 22z - 4)^2
    f = Poly([Poly([4, 0, 1]), Poly([11, 1])])
    g = Poly([Poly([-16]), Poly([-44]), Poly([1])])
    assert resultant(f, g) == Poly([-4, 22, 1]) ** 2


def test_resultant_swap_sign():
    rng = random.Random(3)
    for _ in range(40):
        f = rand_poly(rng, rng.randrange(1, 5))
        g = rand_poly(rng, rng.randrange(1, 5))
        r1 = resultant(f, g)
        r2 = resultant(g, f)
        assert r1 == (-1) ** (f.degree * g.degree) * r2


def _sparse_poly(rng, deg, density, coeff):
    """A polynomial of degree deg whose lower coefficients are coeff(rng)
    with probability density and 0 otherwise."""
    c = [coeff(rng) if rng.random() < density else 0 for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = coeff(rng)
    return Poly(c + [lead])


def _z_coeff(rng):
    return rng.randrange(-9, 10)


def test_resultant_matches_bareiss_over_Z(monkeypatch):
    # the subresultant PRS against det_bareiss(sylvester(f, g)): dense and
    # sparse pairs with non-monic leading coefficients, deg f < deg g (the
    # swap sign) and, every fourth pair, a shared factor (the result 0)
    real = poly._prem
    gaps = []

    def prem(a, b):
        r = real(a, b)
        if 1 < len(r) < len(b) - 1:  # the next step has delta > 1
            gaps.append(len(b) - len(r))
        return r

    monkeypatch.setattr(poly, "_prem", prem)
    rng = random.Random(35)
    swaps = zeros = 0
    for k in range(1200):
        density = 1.0 if k % 2 else 0.3
        f = _sparse_poly(rng, rng.randrange(1, 9), density, _z_coeff)
        g = _sparse_poly(rng, rng.randrange(1, 9), density, _z_coeff)
        if k % 4 == 0:
            h = _sparse_poly(rng, rng.randrange(1, 3), density, _z_coeff)
            f, g = f * h, g * h
        got, want = resultant(f, g), det_bareiss(sylvester(f, g))
        assert got == want and type(got) is int, (f, g)
        swaps += f.degree < g.degree
        zeros += got == 0
    assert swaps >= 300 and zeros >= 300 and len(gaps) >= 100


RINGS = {
    "Z[j]": (lambda rng: Poly([rng.randrange(-3, 4) for _ in range(rng.randrange(3))]), Poly),
    "Q(zeta5)": (lambda rng: CycNum(*[rng.randrange(-2, 3) for _ in range(4)]), CycNum),
    "Q": (lambda rng: Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)), Fraction),
}


@pytest.mark.parametrize("ring", RINGS)
def test_resultant_matches_bareiss_over_rings(ring):
    # the same comparison over Z[j] (Poly coefficients), Q(zeta_5) and Q; a
    # shared factor gives the ring's zero, of the ring's type, as Bareiss does
    coeff, kind = RINGS[ring]
    rng = random.Random(36)
    for k in range(60):
        density = 1.0 if k % 2 else 0.4
        f = _sparse_poly(rng, rng.randrange(1, 6), density, coeff)
        g = _sparse_poly(rng, rng.randrange(1, 6), density, coeff)
        if k % 3 == 0:
            h = _sparse_poly(rng, 1, density, coeff)
            f, g = f * h, g * h
        got, want = resultant(f, g), det_bareiss(sylvester(f, g))
        assert got == want and type(got) is type(want) is kind, (f, g)
        assert got == 0 or k % 3, (f, g)


def test_resultant_matches_bareiss_with_int_and_Poly_coefficients():
    # Z[j] coefficients given partly as plain ints, as in Poly([Poly([3]), 1]):
    # the pseudo-remainders then subtract a Poly from an int 0
    def coeff(rng):
        if rng.random() < 0.4:
            return rng.randrange(-3, 4)
        return Poly([rng.randrange(-3, 4) for _ in range(rng.randrange(3))])

    rng = random.Random(37)
    for k in range(150):
        density = 1.0 if k % 2 else 0.4
        f = _sparse_poly(rng, rng.randrange(1, 6), density, coeff)
        g = _sparse_poly(rng, rng.randrange(1, 6), density, coeff)
        assert resultant(f, g) == det_bareiss(sylvester(f, g)), (f, g)
    assert resultant(Poly([0, Poly([1, 1]), Poly([2])]), Poly([Poly([3]), 1])) == Poly([15, -3])


def test_resultant_matches_bareiss_on_charzero_calls(monkeypatch, capsys):
    # every poly.resultant call of `charzero --suite all`, direct or through
    # discriminant, recorded by a spy and recomputed by Bareiss
    calls = []
    real = poly.resultant

    def spy(f, g):
        r = real(f, g)
        calls.append((f, g, r))
        return r

    for mod in [m for name, m in sys.modules.items() if name.startswith("hasse5")]:
        if getattr(mod, "resultant", None) is real:
            monkeypatch.setattr(mod, "resultant", spy)
    assert cli.main(["charzero", "--suite", "all"]) == 0
    capsys.readouterr()
    # 67 points of disc_y(Phi5), a 7 x 7 grid for the 5^15 Phi5 definition,
    # and the parametrization identities over Z[j] and Z[z]
    assert len(calls) >= 67 + 49 and any(isinstance(f.lc(), Poly) for f, _, _ in calls)
    for f, g, r in calls:
        assert r == det_bareiss(sylvester(f, g)), (f, g)


def test_resultant_vanishes_iff_common_factor_mod_p():
    from hasse5 import modpoly as mp

    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13])
        f = rand_poly(rng, rng.randrange(1, 5))
        g = rand_poly(rng, rng.randrange(1, 5))
        fp = mp.from_int_poly(f.c, p)
        gp = mp.from_int_poly(g.c, p)
        if not fp or not gp or mp.deg(fp) != f.degree or mp.deg(gp) != g.degree:
            continue  # leading coefficient collapsed mod p
        r = resultant(f, g)
        common = mp.deg(mp.gcd(fp, gp, p)) >= 1
        assert (r % p == 0) == common


def test_discriminant_quadratic():
    assert discriminant(Poly([-1, 11, 1])) == 125


def test_discriminant_symbolic_quartic_family():
    # disc of x^4 + a x^3 + (11a+2) x^2 - a x + 1 equals 125 a^2 (a^2 - 44a - 16)^2
    a = Poly([0, 1])
    one = Poly([1])
    g = Poly([one, -a, 11 * a + 2, a, one])
    d = discriminant(g)
    assert d == 125 * a * a * (a * a - 44 * a - 16) ** 2


def test_compose_rational_trivial():
    assert compose_rational(Poly([0, 1]), Poly([0, 0, 1]), Poly([1, 1])) == Poly([0, 0, 1])
    assert compose_rational(Poly([0, 0, 1]), Poly([0, 1]), Poly([2])) == Poly([0, 0, 1])


def test_compose_rational_evaluation_property():
    rng = random.Random(5)
    for _ in range(30):
        F = rand_poly(rng, rng.randrange(1, 4))
        num = rand_poly(rng, rng.randrange(1, 3))
        den = rand_poly(rng, rng.randrange(0, 3))
        if den.is_zero():
            continue
        x0 = Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
        if den(x0) == 0:
            continue
        lhs = compose_rational(F, num, den)(x0)
        rhs = den(x0) ** F.degree * F(Fraction(num(x0), 1) / den(x0))
        assert lhs == rhs


def test_detilde_examples():
    assert detilde(Poly([1, -12, 14, 12, 1])) == Poly([16, 12, 1])
    # x^8 + 32x^7 + 300x^6 + 32x^5 - 8026x^4 - 32x^3 + 300x^2 - 32x + 1
    f11 = Poly([1, -32, 300, -32, -8026, 32, 300, 32, 1])
    assert detilde(f11) == Poly([-7424, 128, 304, 32, 1])
    # degree-2 base case: x^2 + cx - 1 -> x + c
    assert detilde(Poly([-1, 7, 1])) == Poly([7, 1])
    # n/2 odd: x^2 - 1 = x (x - 1/x), although x^2 f(-1/x) = -f, and x^2 + 1,
    # with x^2 f(-1/x) = f, has no expansion
    assert detilde(Poly([-1, 0, 1])) == Poly([0, 1])
    with pytest.raises(NotSkewPalindromic):
        detilde(Poly([1, 0, 1]))


def test_detilde_roundtrip():
    rng = random.Random(6)
    x = Poly([0, 1])
    for _ in range(25):
        m = rng.randrange(1, 6)
        tilde = rand_poly(rng, m)
        # f = x^m tilde(x - 1/x) expanded: sum c_k x^(m-k) (x^2-1)^k
        f = Poly()
        for k, ck in enumerate(tilde.c):
            f = f + (Poly([-1, 0, 1]) ** k).shift(m - k) * ck
        assert detilde(f) == tilde


def test_detilde_rejects():
    with pytest.raises(NotSkewPalindromic):
        detilde(Poly([1, 2, 3]))  # odd degree
    with pytest.raises(NotSkewPalindromic):
        detilde(Poly([1, 0, 0, 0, 2]))  # not skew-palindromic


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 1]), Poly())


def test_bipoly_basics():
    q = BiPoly([[1, 2], [3, 0]])  # 1 + 2v + 3u
    assert q.eval(1, 1) == 6
    assert q.d_du() == BiPoly([[3]])
    assert q.d_dv() == BiPoly([[2], [0]])
