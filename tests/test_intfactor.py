from hasse5.intfactor import is_prime, primes_in
from hasse5.refdata import fv


def test_from_factors():
    assert fv(-1, (2, 4), (11, 1)) == -176


def test_primes_in():
    assert primes_in(7, 30) == [7, 11, 13, 17, 19, 23, 29]
    assert all(is_prime(p) for p in primes_in(2, 500))
    assert not is_prime(1) and not is_prime(561)
