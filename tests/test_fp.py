import itertools
import random

import pytest

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
    pair = golden_units(11)
    assert (pair.eps5, pair.eps5bar) == (10, 1)


def test_golden_units_not_split():
    with pytest.raises(NotSplit):
        golden_units(7)


def test_golden_pair_invariants_sample():
    for l in primes_in(7, 500):
        if l % 5 in (1, 4):
            pair = golden_units(l)
            assert (pair.eps5 + pair.eps5bar + 11) % l == 0
            assert (pair.eps5 * pair.eps5bar + 1) % l == 0


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
    for k in (1, 3, 4):
        with pytest.raises(ValueError):
            make_extension(7, k)


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


def test_field_arithmetic_and_inverse():
    for l, k in EXT_FIELDS:
        rng = random.Random(10 * l + k)
        fld = make_extension(l, k)
        done = 0
        while done < 50:
            x = fld.rand(rng)
            if x.is_zero():
                continue
            assert x * x.inv() == fld.one() == 1
            assert (x + (-x)).is_zero()
            done += 1
        with pytest.raises(ZeroDivisionError):
            fld.zero().inv()


def test_fq_sqrt():
    rng = random.Random(11)
    for l in (11, 19):
        fld = make_extension(l, 2)
        for _ in range(20):
            x = fld.rand(rng)
            s = (x * x).sqrt()
            assert s is not None and s * s == x * x
        # every base-field element is a square in F_{l^2}
        for a in range(1, l):
            s = fld.embed(a).sqrt()
            assert s is not None and s * s == fld.embed(a)
