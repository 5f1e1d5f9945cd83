import itertools
import random
import re
from math import isqrt

import numpy as np
import pytest

from hasse5 import modpoly as mp
from hasse5.census import _fold, _squarefree_hasse
from hasse5.intfactor import is_prime, primes_in
from hasse5.poly import Poly
from oracles import (
    compose_rational,
    divisor_params_by_horner,
    is_irreducible,
    pow_mod_by_squaring,
    quartic_irreducible_naive,
)


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


def test_pow_mod_zero_exponent_is_one_mod_m():
    assert mp.pow_mod([0, 1], 0, [3], 7) == mp.pow_mod([0, 1], 1, [3], 7) == []
    assert mp.pow_mod([0, 1], 0, [3, 5, 2], 7) == [1]
    assert mp.pow_mod([], 0, [3, 5, 2], 7) == [1]
    with pytest.raises(ZeroDivisionError):
        mp.pow_mod([0, 1], 0, [], 7)


def _check_pow_mod_against_oracle(primes, degrees, seed, monkeypatch):
    """pow_mod against list square-and-multiply with every product on int64
    (no float64), for f longer than m, shorter, 0, and the variable x, which
    ``_power`` raises by shifts."""
    rng = random.Random(seed)
    for p in primes:
        exps = (0, 1, 2, p, p * p, (p * p - 1) // 2, rng.getrandbits(200) | 1 << 199)
        for n in degrees:
            for lead in (1, rng.randrange(2, p)):  # monic and not
                m = [rng.randrange(p) for _ in range(n)] + [lead]
                fs = [[rng.randrange(p) for _ in range(flen)] for flen in (2 * n + 3, (n + 1) // 2, 0)]
                for f in fs + [[0, 1]]:
                    for e in exps:
                        with monkeypatch.context() as patch:
                            patch.setattr(mp, "_FLOAT_FROM", float("inf"))
                            want = pow_mod_by_squaring(f, e, m, p)
                        assert mp.pow_mod(f, e, m, p) == want, (p, n, lead, f, e)


def _check_pow_mod_raises(p, degrees, seed):
    """pow_mod and mulmod_by raise past the int64 guard, for every modulus
    of degree >= 1 and exponent >= 1, rather than compute on other ints."""
    rng = random.Random(seed)
    for n in degrees:
        m = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        with pytest.raises(ValueError, match="too large"):
            mp.mulmod_by(m, p)
        for f in ([0, 1], [rng.randrange(p) for _ in range(2 * n + 3)]):
            with pytest.raises(ValueError, match="too large"):
                mp.pow_mod(f, p, m, p)


INT64_PRIMES = (7, 1499, 40961)
PAST_INT64_PRIME = 2**61 - 1  # fails the int64 guard, so pow_mod raises


def test_pow_mod_matches_squaring_oracle(monkeypatch):
    assert all(mp._np_ok(301, p) for p in INT64_PRIMES) and not mp._np_ok(2, PAST_INT64_PRIME)
    _check_pow_mod_against_oracle(INT64_PRIMES, (*range(1, 9), 19, 20, 24), 34, monkeypatch)
    _check_pow_mod_raises(PAST_INT64_PRIME, (*range(1, 9), 20), 35)
    with pytest.raises(ValueError, match="too large"):
        mp._rev_inverse(np.ones(3, dtype=np.int64), 2, PAST_INT64_PRIME)
    # products with operands on both sides of _FLOAT_FROM
    _check_pow_mod_against_oracle((1499,), (mp._FLOAT_FROM - 1, mp._FLOAT_FROM, mp._FLOAT_FROM + 1), 39, monkeypatch)


@pytest.mark.heavy
def test_pow_mod_matches_squaring_oracle_long_moduli(monkeypatch):
    _check_pow_mod_against_oracle(INT64_PRIMES, (64,), 36, monkeypatch)
    _check_pow_mod_against_oracle((1499,), (300,), 37, monkeypatch)  # deg ss_p at p near 3600
    _check_pow_mod_raises(PAST_INT64_PRIME, (32,), 38)


def test_power_of_x_squares_and_shifts(monkeypatch):
    # x^e takes one mulmod per squaring, and its 1-bits are shifts; any other
    # base, x mod a modulus of degree 1 included, takes one mulmod more a 1-bit
    rng = random.Random(47)
    p, e = 1499, rng.getrandbits(200) | 1 << 199
    squarings, ones = e.bit_length() - 1, bin(e).count("1") - 1
    mulmod_by, calls = mp.mulmod_by, []

    def counted(m, p):
        mulmod, times_x = mulmod_by(m, p)
        return (lambda a, b: calls.append(1) or mulmod(a, b)), times_x

    monkeypatch.setattr(mp, "mulmod_by", counted)
    for n in (1, 2, 5, mp._FLOAT_FROM + 20):
        m = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        for f in ([0, 1], [1, 1]):
            calls.clear()
            mp.pow_mod(f, e, m, p)
            assert len(calls) == squarings + (0 if f == [0, 1] and n > 1 else ones), (n, f)


# the bound min(len a, len b) (p-1)^2 < 2^53 admits at most 200 coefficients here
FLOAT_EDGE_PRIME = 6710863


def test_float_convolution_is_exact_at_the_bound(monkeypatch):
    p = FLOAT_EDGE_PRIME
    s_max = (mp._F64_EXACT - 1) // (p - 1) ** 2
    assert is_prime(p) and s_max >= mp._FLOAT_FROM and s_max * (p - 1) ** 2 < mp._F64_EXACT <= (s_max + 1) * (p - 1) ** 2
    assert s_max * (p - 1) ** 2 > 2**52  # the largest coefficient fills all 53 bits of the significand
    convolve, dtypes = np.convolve, []
    monkeypatch.setattr(mp.np, "convolve", lambda a, b: dtypes.append(a.dtype.name) or convolve(a, b))
    for short, floats in ((mp._FLOAT_FROM - 1, False), (mp._FLOAT_FROM, True), (s_max, True), (s_max + 1, False)):
        for long_ in (short, short + 1, 3 * short):
            a = np.full(short, p - 1, dtype=np.int64)
            b = np.full(long_, p - 1, dtype=np.int64)
            want = convolve(a.astype(object), b.astype(object))
            for x, y in ((a, b), (b, a)):
                dtypes.clear()
                got = mp._convolve(x, y, p)
                assert got.dtype == np.int64 and got.tolist() == want.tolist(), (short, long_)
                assert dtypes == (["float64"] if floats else ["int64"]), (short, long_)


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


EDGE_PRIME = 151850029  # _np_ok admits at most 199 coefficients here


def _divmod_shapes():
    """(dividend length, divisor length) on both sides of every bound of
    divmod_'s rule: k*len(g) = _BARRETT_FROM, k = _BARRETT_K_PER_COEFF*len(g)
    for the quotient length k, and deg g = 0."""
    lo, per = mp._BARRETT_FROM, mp._BARRETT_K_PER_COEFF
    shapes = []
    for ng in (2, 3, 20, 160):
        k_lo = -(-lo // ng)  # the least k with k*len(g) >= _BARRETT_FROM
        shapes += [(ng + k - 1, ng) for k in (k_lo - 1, k_lo)]
    for ng in (3, 10, 20):
        shapes += [(ng + k - 1, ng) for k in (per * ng - 1, per * ng)]
    shapes += [(500, 1), (2, 1), (5, 5), (30, 40), (700, 300)]  # constant divisor, deg f < deg g
    shapes += [(194, 5)]  # k = 190, far past len(rev g): Newton runs to 190 coefficients
    return shapes


def test_divmod_matches_object_reference_across_divisor_cutoff(monkeypatch):
    rng = random.Random(38)
    real_barrett = mp._barrett
    calls = []

    def barrett(*args):
        calls.append(len(args[0]))
        return real_barrett(*args)

    monkeypatch.setattr(mp, "_barrett", barrett)
    n_max = (mp._I64_MAX - 1) // (EDGE_PRIME - 1) ** 2
    assert mp._np_ok(n_max, EDGE_PRIME) and not mp._np_ok(n_max + 1, EDGE_PRIME)
    cases = [(p, nf, ng) for p in (7, 1499, 2**61 - 1) for nf, ng in _divmod_shapes()]  # 2^61 - 1 fails the int64 guard
    cases += [(EDGE_PRIME, 99 + k, 100) for k in (n_max, n_max + 1, 3000)]  # the guard's last length, and past it
    for p, nf, ng in cases:
        for lead in (1, rng.randrange(2, p)):  # monic and not
            if p == EDGE_PRIME:  # the largest coefficients, for the largest convolution sums
                f, g = [p - 1] * nf, [p - 1] * (ng - 1) + [lead]
            else:
                f = [rng.randrange(p) for _ in range(nf - 1)] + [rng.randrange(1, p)]
                g = [rng.randrange(p) for _ in range(ng - 1)] + [lead]
            calls.clear()
            q, r = mp.divmod_(f, g, p)
            prod = np.convolve(np.array(q or [0], dtype=object), np.array(g, dtype=object))
            back = np.zeros(max(len(prod), len(r), nf), dtype=object)
            back[: len(prod)] += prod
            back[: len(r)] += np.array(r, dtype=object)
            assert mp.trim((back % p).tolist()) == f and len(r) < ng and (not r or r[-1]), (p, nf, ng, lead)
            k = nf - ng + 1
            barrett_runs = ng > 1 and k > 0 and mp._BARRETT_FROM <= k * ng < mp._BARRETT_K_PER_COEFF * ng * ng
            assert calls == ([nf] if barrett_runs and mp._np_ok(k, p) else []), (p, nf, ng, lead)


def _check_divisor_params(f, red, l):
    """``_divisor_params`` against the Horner sweep and against one remainder
    per column; returns the hits."""
    hits = mp._divisor_params(f, red, l)
    assert hits == divisor_params_by_horner(f, red, l), (l, len(f), red.shape)
    want = [t for t in range(red.shape[1]) if not mp.rem(mp.trim(list(f)), [-int(c) % l for c in red[:, t]] + [1], l)]
    assert hits == want, (l, len(f), red.shape)
    return hits


def _check_sweeps_against_horner(primes):
    """The census's 2-wide sweep of the fold P over the conics Q_a, and the
    1-wide root sweep of H over all of F_l, against the Horner sweep."""
    for l in primes:
        h = _squarefree_hasse(l)
        a = np.arange(l, dtype=np.int64)
        conics = np.stack([-(11 * a + 4) % l, -a % l])
        folded = _fold(l, h)
        assert mp._divisor_params(folded, conics, l) == divisor_params_by_horner(folded, conics, l), l
        assert mp._divisor_params(h, a[None, :], l) == divisor_params_by_horner(h, a[None, :], l), l


def test_divisor_params_matches_horner_on_the_sweeps():
    _check_sweeps_against_horner(primes_in(7, 400))


@pytest.mark.heavy
def test_divisor_params_matches_horner_on_the_sweeps_sampled_to_10000():
    _check_sweeps_against_horner(primes_in(401, 1500))
    _check_sweeps_against_horner(sorted(random.Random(40).sample(primes_in(1501, 10**4), 20)))


def test_divisor_params_at_block_boundaries():
    # n = b^2 - 1, b^2, b^2 + 1 moves the block size isqrt(n) and leaves f's
    # top block full or partial; the columns are all one divisor (so every
    # one divides f, or none does), or distinct, with f divisible by all of
    # them, by two or by none
    rng = random.Random(41)
    for l in (7, 101, 40961):
        for k in range(1, 5):
            for b in (1, 2, 3, 5):
                for n in sorted({0, 1, 2, b * b - 1, b * b, b * b + 1}):
                    same = np.array([rng.randrange(l) for _ in range(k)], dtype=np.int64)[:, None]
                    distinct = np.array([[rng.randrange(l) for _ in range(5)] for _ in range(k)], dtype=np.int64)
                    for red in (np.repeat(same, 3, axis=1), distinct):
                        ms = [[-int(c) % l for c in red[:, t]] + [1] for t in range(red.shape[1])]
                        fs = [[rng.randrange(l) for _ in range(n)], [0] * n]
                        for keep in (list(range(len(ms))), rng.sample(range(len(ms)), 2), []):
                            f = [1]
                            for t in keep:
                                f = mp.mul(f, ms[t], l)
                            if len(f) <= n:
                                f = mp.mul(f, [rng.randrange(l) for _ in range(n - len(f))] + [rng.randrange(1, l)], l)
                                fs.append(f)
                        for f in fs:
                            _check_divisor_params(f, red, l)


def test_divisor_params_at_the_int64_limit():
    # every entry l - 1, at the largest prime l with (b + k) l^2 < 2^63, so
    # each giant step's sums of b + k products reach toward 2^63; at
    # n = 144 b^2 the cap holds the block at b, where isqrt(n) = 12 b would
    # sum 12 b / (k + 1) products (l - 1)^2 and overflow
    for k, b in ((1, 2), (2, 3), (3, 5)):
        l = isqrt((2**63 - 1) // (b + k))
        while not is_prime(l):
            l -= 1
        assert (b + k) * l * l < 2**63 <= (b + k + 1) * l * l
        for ncols in (1, 2, 3):
            red = np.full((k, ncols), l - 1, dtype=np.int64)
            for n in (b * b, b * b + 1, b * b + b, 144 * b * b):
                _check_divisor_params([l - 1] * n, red, l)


def test_divisor_params_caps_the_block_near_2_30():
    # (10 + 2) l^2 > 2^63, so the block is capped below isqrt(100) = 10
    l = next(p for p in range(2**30 + 1, 2**30 + 200) if is_prime(p))
    assert (2**63 - 1) // (l * l) - 2 < isqrt(100)
    rng = random.Random(42)
    red = np.array([[l - 1] * 3 + [rng.randrange(l)] for _ in range(2)], dtype=np.int64)
    m = [-int(c) % l for c in red[:, 3]] + [1]
    _check_divisor_params([l - 1] * 100, red, l)
    _check_divisor_params([rng.randrange(l) for _ in range(100)], red, l)
    assert 3 in _check_divisor_params(mp.mul(m, [rng.randrange(l) for _ in range(98)] + [1], l), red, l)


def test_is_irreducible_matches_exhaustive_search_on_quartics():
    rng = random.Random(33)
    cases = [(5, c) for c in itertools.product(range(5), repeat=4)]
    cases += [(13, tuple(rng.randrange(13) for _ in range(4))) for _ in range(300)]
    for p, low in cases:
        coeffs = (*low, 1)
        assert is_irreducible(coeffs, p) == quartic_irreducible_naive(coeffs, p), (p, coeffs)


def test_eval_and_compose():
    p = 11
    F = [8, 1]  # t + 8
    num = [0, 0, 1]
    den = [1, 1]
    out = compose_rational(F, num, den, p)
    # den^1 * F(num/den) = num + 8 den
    assert out == mp.add(num, mp.scale(den, 8, p), p)


@pytest.mark.parametrize("k", [1, 2])
def test_divisor_params_rejects_an_l_past_the_int64_bound(k):
    # (k+1) l^2 < 2^63 keeps the block b >= 1; the first l past it raises
    # before any array is made, and the last l inside it still sweeps
    l = isqrt((2**63 - 1) // (k + 1))
    assert (k + 1) * l * l < 2**63 <= (k + 1) * (l + 1) ** 2
    red = np.ones((k, 1), dtype=np.int64)
    assert mp._divisor_params([1, 2], red, l) == divisor_params_by_horner([1, 2], red, l)
    with pytest.raises(ValueError, match=re.escape(f"l={l + 1} is too large for the int64 divisibility sweep of width {k}")):
        mp._divisor_params([1, 2], red, l + 1)
