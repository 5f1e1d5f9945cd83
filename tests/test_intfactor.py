import tracemalloc

from hasse5.intfactor import is_prime, primes_in
from hasse5.refdata import fv
from oracles import primes_in_by_sieve


def test_from_factors():
    assert fv(-1, (2, 4), (11, 1)) == -176


def test_primes_in():
    assert primes_in(7, 30) == [7, 11, 13, 17, 19, 23, 29]
    assert all(is_prime(p) for p in primes_in(2, 500))
    assert not is_prime(1) and not is_prime(561)


def test_primes_in_matches_the_plain_sieve():
    ranges = [(lo, hi) for lo in range(-2, 40) for hi in range(-2, 60)]
    ranges += [(0, 10**5), (7, 1500), (99_000, 101_000), (10**6 - 500, 10**6 + 500), (121, 121), (49, 53), (5, 3)]
    for lo, hi in ranges:
        assert primes_in(lo, hi) == primes_in_by_sieve(lo, hi), (lo, hi)


def test_primes_in_memory_follows_the_range_not_its_end():
    # a 200-wide range near 2^31 sieves 201 bytes with the primes up to
    # isqrt(2^31) = 46340, not 2^31 bytes
    lo, hi = 2**31 - 200, 2**31
    tracemalloc.start()
    try:
        got = primes_in(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)] and len(got) == 10
    assert peak < 2**21, peak
