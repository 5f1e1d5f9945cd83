import itertools
import random
import re
from fractions import Fraction

import pytest

from hasse5 import VerificationError, fp, modpoly as mp
from hasse5.ffactor import factor_ff
from hasse5.fp import NotSplit, golden_units, legendre, make_extension, sqrt_mod
from hasse5.intfactor import primes_in
from oracles import legendre_naive, sqrts_naive, squares_mod


def test_legendre_examples():
    assert legendre(-1, 13) == 1
    assert legendre(5, 7) == -1  # squares mod 7 are {1, 2, 4}
    assert squares_mod(7) == {0, 1, 2, 4}
    assert legendre(-20, 19) == -1 and legendre(5, 19) == 1


def test_legendre_against_naive():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-p, 2 * p):
            assert legendre(a, p) == legendre_naive(a, p)


def test_legendre_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice(primes_in(3, 200))
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_sqrt_examples():
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(5, 11) == 4
    assert sqrt_mod(5, 13) is None


def test_sqrt_exhaustive_small():
    for p in primes_in(3, 100):
        for a in range(p):
            r = sqrt_mod(a, p)
            roots = sqrts_naive(a, p)
            if not roots:
                assert r is None
            else:
                assert r == roots[0]  # canonical smaller root


def test_sqrt_sampled_large():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice(primes_in(10**4, 10**4 + 500))
        a = rng.randrange(p)
        r = sqrt_mod(a, p)
        if r is not None:
            assert r * r % p == a % p
            assert r <= p - r


def test_golden_units_11():
    assert golden_units(11) == (10, 1)


def test_golden_units_not_split():
    with pytest.raises(NotSplit):
        golden_units(7)


def test_golden_units_rejects_a_missing_square_root(monkeypatch):
    monkeypatch.setattr(fp, "sqrt_mod", lambda a, l: None)
    with pytest.raises(VerificationError, match="5 has no square root mod 19"):
        golden_units(19)


def test_golden_units_rejects_a_wrong_square_root(monkeypatch):
    # e5 = (5s - 11)/2 is a root of x^2 + 11x - 1 exactly when s^2 = 5, so a
    # wrong s fails at every l, also at l = 11, where every eps^5 is +-1, a
    # root of x^2 + 11x - 1 = x^2 - 1: 2^2 != 5 mod 19 and 3^2 != 5 mod 11
    for l, s in ((19, 2), (11, 3)):
        monkeypatch.setattr(fp, "sqrt_mod", lambda a, q: s)
        with pytest.raises(VerificationError, match=re.escape(f"golden units are not the roots of x^2 + 11x - 1 mod {l}")):
            golden_units(l)


def test_golden_pair_invariants_sample():
    for l in primes_in(7, 500):
        if l % 5 in (1, 4):
            e5, e5bar = golden_units(l)
            assert (e5 + e5bar + 11) % l == 0
            assert (e5 * e5bar + 1) % l == 0


def _first_irreducible_quadratic(l):
    # enumeration oracle: lexicographic scan over (c1, c0)
    for c1 in range(l):
        for c0 in range(l):
            if c0 == 0:
                continue
            if all((x * x + c1 * x + c0) % l for x in range(l)):
                return (c0, c1, 1)
    raise AssertionError


def test_make_extension_deterministic():
    assert make_extension(7, 2).defining == (1, 0, 1)  # x^2 + 1
    assert make_extension(13, 2).defining == (2, 0, 1)  # x^2 + 2
    for l in (7, 11, 13, 17, 19, 23):
        assert make_extension(l, 2).defining == _first_irreducible_quadratic(l)
    for l, k in ((7, 1), (7, 3), (7, 4), (2, 2)):
        with pytest.raises(ValueError):
            make_extension(l, k)


def test_frobenius_fixes_field():
    rng = random.Random(9)
    for l, k in ((7, 2), (11, 2), (31, 2)):
        fld = make_extension(l, k)
        for _ in range(10):
            x = fld.rand(rng)
            assert x ** (l**k) == x


EXT_FIELDS = [(l, 2) for l in primes_in(7, 59)]


def _first_certified_irreducible(l, k):
    # the same scan order as make_extension, certified by a full factorization:
    # one factor, of degree k and multiplicity 1
    for high in itertools.product(range(l), repeat=k - 1):
        for c0 in range(1, l):
            coeffs = (c0,) + tuple(reversed(high)) + (1,)
            if factor_ff(coeffs, l).factors == ((coeffs, 1),):
                return coeffs
    raise AssertionError


def test_make_extension_matches_certified_scan():
    for l, k in EXT_FIELDS:
        assert make_extension(l, k).defining == _first_certified_irreducible(l, k), (l, k)


FQ_PRIMES = primes_in(7, 49)


def _all_elements(fld):
    """Every element of F_(l^2), in lexicographic order of coordinates."""
    return [fld.elem((a, b)) for a in range(fld.l) for b in range(fld.l)]


def test_field_arithmetic_and_inverse():
    for l in FQ_PRIMES:
        fld = make_extension(l, 2)
        y = fld.elem((3, 5))
        for x in _all_elements(fld):
            assert (x + (-x)).is_zero() and x - x == 0
            # the closed-form product against the product mod the defining polynomial
            prod = mp.rem(mp.mul(list(x.coords), list(y.coords), l), list(fld.defining), l)
            assert (x * y).coords == tuple(prod + [0] * (2 - len(prod)))
            assert x**l == x.conjugates()[1]  # GALOIS holds Frobenius
            if x.is_zero():
                continue
            inv = 1 / x
            assert x * inv == fld.one() == 1
            assert x**-1 == inv and y / x == y * inv
            assert x * x.conjugates()[1] == x.norm() != 0
        with pytest.raises(ZeroDivisionError):
            1 / fld.zero()
        with pytest.raises(ZeroDivisionError):
            y / l
        with pytest.raises(TypeError):
            y * Fraction(1, 2)  # only ints embed in F_(l^2)


def test_fq_sqrt():
    for l in FQ_PRIMES:
        fld = make_extension(l, 2)
        elems = _all_elements(fld)
        smallest_root = {}
        for r in elems:
            smallest_root.setdefault((r * r).coords, r.coords)
        for z in elems:
            s = z.sqrt()
            if z.coords not in smallest_root:
                assert s is None, z
            else:
                assert s is not None and s.coords == smallest_root[z.coords], z
