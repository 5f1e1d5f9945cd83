import random

import pytest

from hasse5.intfactor import (
    IntFactorization,
    UnresolvedCofactor,
    factor_integer,
    from_factors,
    is_prime,
    primes_in,
)


def test_factor_one():
    f = factor_integer(1)
    assert f == IntFactorization(1, ())
    assert f.value() == 1


def test_factor_minus_176():
    f = factor_integer(-176)
    assert f.unit == -1
    assert f.factors == ((2, 4), (11, 1))


def test_factor_disc_h24():
    n = 2**19 * 3**6 * 13**2 * 19**2
    f = factor_integer(n)
    assert f.factors == ((2, 19), (3, 6), (13, 2), (19, 2))


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_unresolved_cofactor():
    # product of two primes above the bound stays composite
    n = 1000003 * 1000033
    with pytest.raises(UnresolvedCofactor):
        factor_integer(n, trial_bound=100)


def test_large_prime_cofactor_allowed():
    # a single prime between bound and bound^2 is recognized
    f = factor_integer(2 * 1000003, trial_bound=1000)
    assert f.factors == ((2, 1), (1000003, 1))


def test_roundtrip_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(-10**9, 10**9)
        if n == 0:
            continue
        f = factor_integer(n)
        assert f.value() == n
        assert list(f.factors) == sorted(f.factors)


def test_from_factors():
    assert from_factors(-1, [(2, 4), (11, 1)]) == -176


def test_primes_in():
    assert primes_in(7, 30) == [7, 11, 13, 17, 19, 23, 29]
    assert all(is_prime(p) for p in primes_in(2, 500))
    assert not is_prime(1) and not is_prime(561)
