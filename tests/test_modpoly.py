import itertools
import random

import numpy as np

from hasse5 import modpoly as mp
from hasse5.poly import Poly
from oracles import quartic_irreducible_naive


def test_basic_ops():
    p = 7
    assert mp.add([1, 2], [6, 5], p) == []
    assert mp.mul([1, 1], [1, 1], p) == [1, 2, 1]
    q, r = mp.divmod_([1, 0, 1], [3, 1], p)
    assert mp.add(mp.mul(q, [3, 1], p), r, p) == [1, 0, 1]
    assert mp.gcd([6, 0, 1], [1, 2, 1], p) == [1, 1]
    assert mp.monic([2, 4], p) == [4, 1]


def test_pow_mod():
    p = 13
    m = [1, 0, 0, 1]  # x^3 + 1
    got = mp.pow_mod([0, 1], p, m, p)
    f = Poly([0, 1]) ** p
    want = mp.rem(mp.from_int_poly(f.c, p), m, p)
    assert got == want


def test_large_poly_numpy_path_matches_schoolbook():
    rng = random.Random(30)
    p = 40961  # large enough that the int64 guard still passes at this size
    a = [rng.randrange(p) for _ in range(300)]
    b = [rng.randrange(p) for _ in range(200)]
    fast = mp.mul(a, b, p)
    slow = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            slow[i + j] = (slow[i + j] + x * y) % p
    assert fast == mp.trim(slow)


def test_mul_matches_numpy_across_schoolbook_cutoff(monkeypatch):
    rng = random.Random(32)
    real_convolve = np.convolve
    calls = []

    def convolve(a, b):
        calls.append((len(a), len(b)))
        return real_convolve(a, b)

    monkeypatch.setattr(mp.np, "convolve", convolve)
    cut = mp._SCHOOLBOOK_BELOW
    shapes = [(1, 1), (2, 3), (4, 4), (1, cut - 1), (1, cut), (5, 5), (7, 9), (1, 300), (300, 2)]
    for p in (7, 1499, 2**61 - 1):  # the last fails the int64 guard at every length
        for n, m in shapes:
            f = [rng.randrange(p) for _ in range(n)]
            g = [rng.randrange(p) for _ in range(m)]
            want = mp.trim((real_convolve(np.array(f, dtype=object), np.array(g, dtype=object)) % p).tolist())
            calls.clear()
            assert mp.mul(f, g, p) == want, (p, n, m)
            assert bool(calls) == (n * m >= cut and mp._np_ok(min(n, m), p)), (p, n, m)


def test_is_irreducible_matches_exhaustive_search_on_quartics():
    rng = random.Random(33)
    cases = [(5, c) for c in itertools.product(range(5), repeat=4)]
    cases += [(13, tuple(rng.randrange(13) for _ in range(4))) for _ in range(300)]
    for p, low in cases:
        coeffs = (*low, 1)
        assert mp.is_irreducible(coeffs, p) == quartic_irreducible_naive(coeffs, p), (p, coeffs)


def test_eval_and_compose():
    p = 11
    F = [8, 1]  # t + 8
    num = [0, 0, 1]
    den = [1, 1]
    out = mp.compose_rational(F, num, den, p)
    # den^1 * F(num/den) = num + 8 den
    assert out == mp.add(num, mp.scale(den, 8, p), p)
