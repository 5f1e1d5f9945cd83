import random
from fractions import Fraction

import pytest

from hasse5.poly import (
    BiPoly,
    NotSkewPalindromic,
    Poly,
    compose_rational,
    detilde,
    discriminant,
    resultant,
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
