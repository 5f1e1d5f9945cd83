import random
from collections import Counter
from functools import partial, reduce
from itertools import count

import pytest

from hasse5 import ffactor, modpoly as mp
from hasse5.ffactor import FactorList, factor_ff, roots_in
from hasse5.fp import FqElem, make_extension
from hasse5.hasse import build_hasse
from hasse5.intfactor import primes_in
from oracles import is_irreducible, quartic_irreducible_naive, reconstruct


def test_x2_plus_1_mod_7_irreducible():
    fl = factor_ff([1, 0, 1], 7)
    assert fl.factors == (((1, 0, 1), 1),)


def test_hasse7_factors():
    # independent construction of the degree-6 Hasse invariant at l = 7:
    # (b^2 + 1)(b^4 + 18b^3 + 74b^2 - 18b + 1) reduced mod 7
    h = mp.mul([1, 0, 1], mp.from_int_poly([1, -18, 74, 18, 1], 7), 7)
    assert h == build_hasse(7)
    fl = factor_ff(h, 7)
    assert fl.factors == (((1, 0, 1), 1), ((1, 3, 4, 4, 1), 1))
    # the quartic is irreducible by exhaustive search
    assert quartic_irreducible_naive((1, 3, 4, 4, 1), 7)


def test_multiplicities_and_reconstruction():
    p = 13
    f = reduce(partial(mp.mul, p=p), [[1, 1], [1, 1], [2, 0, 1], [5, 1, 1], [5, 1, 1], [5, 1, 1]])
    f = mp.scale(f, 4, p)
    fl = factor_ff(f, p)
    assert fl.unit == 4
    mults = dict(fl.factors)
    assert mults[(1, 1)] == 2 and mults[(5, 1, 1)] == 3
    assert reconstruct(fl) == f


def test_reconstruction_random():
    rng = random.Random(20)
    for _ in range(40):
        p = rng.choice([3, 7, 11, 31])
        deg = rng.randrange(1, 9)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = mp.trim(f)
        fl = factor_ff(f, p)
        assert reconstruct(fl) == f
        for coeffs, _ in fl.factors:
            assert is_irreducible(coeffs, p)
        assert is_irreducible(f, p) == (len(fl.factors) == 1 and fl.factors[0][1] == 1)


def test_factorization_deterministic():
    f = mp.from_int_poly([3, 1, 4, 1, 5, 9, 2, 6, 1], 101)
    assert factor_ff(f, 101) == factor_ff(f, 101)


@pytest.mark.parametrize("c", [1, 5])
def test_nonzero_constant_has_no_factors(c):
    assert ffactor.squarefree_decompose([c], 23) == []
    assert factor_ff([c], 23) == FactorList(23, c, ())


def test_squarefree_with_pth_power():
    p = 5
    f = reduce(partial(mp.mul, p=p), [[1, 1]] * 5 + [[2, 1]])  # (x+1)^5 (x+2)
    fl = factor_ff(f, p)
    assert dict(fl.factors) == {(1, 1): 5, (2, 1): 1}


def _degree_counts(f, p):
    fl = factor_ff(f, p)
    assert reconstruct(fl) == mp.from_int_poly(f, p)
    assert all(m == 1 for _, m in fl.factors)
    return Counter(len(coeffs) - 1 for coeffs, _ in fl.factors)


def _x_pk_minus_x(p, k):
    return [0, -1] + [0] * (p**k - 2) + [1]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_x_p2_minus_x_is_every_irreducible_of_degree_1_and_2(p):
    # x^(p^2) - x is the product of the monic irreducibles of degree 1 and 2
    assert _degree_counts(_x_pk_minus_x(p, 2), p) == {1: p, 2: (p * p - p) // 2}


def test_x_p4_minus_x_is_every_irreducible_of_degree_1_2_and_4():
    assert _degree_counts(_x_pk_minus_x(3, 4), 3) == {1: 3, 2: 3, 4: 18}
    assert _degree_counts(_x_pk_minus_x(5, 4), 5) == {1: 5, 2: 10, 4: 150}


class _Recorded:
    """Draws that log each element they hand out."""

    def __init__(self, draws, log):
        self.draws, self.log = draws, log

    def __iter__(self):
        return self

    def __next__(self):
        t = next(self.draws)
        self.log.append(t)
        return t


def test_no_splitting_element_is_drawn_twice(monkeypatch):
    # the pieces of one factorization share the draws, x + 1 first: a piece
    # restarting them would redraw elements that already failed on its parent
    log = []
    real = ffactor.equal_degree

    def recorder(f, d, p, draws):
        return real(f, d, p, draws if isinstance(draws, _Recorded) else _Recorded(draws, log))

    monkeypatch.setattr(ffactor, "equal_degree", recorder)
    for p, f in [(p, _x_pk_minus_x(p, 2)) for p in (3, 5, 7, 11, 13)] + [(5, _x_pk_minus_x(5, 4)), (379, build_hasse(379))]:
        log.clear()
        factor_ff(f, p)
        assert log and log[0] == p + 1, p
        assert len(set(log)) == len(log), p


def test_wrong_pow_mod_raises_after_one_whole_degree(monkeypatch):
    # a "power" that is always 1 never splits; factor_ff's draws x + 1, ...
    # stop after the last polynomial of degree 2 rather than run forever
    calls = []

    def pow_mod(a, e, m, p):
        calls.append(a)
        return [1]

    monkeypatch.setattr(mp, "pow_mod", pow_mod)
    with pytest.raises(ValueError, match="every polynomial of degree 2 failed to split a degree-2 product"):
        ffactor.equal_degree([2, 4, 1], 1, 7, count(8))
    assert len(calls) == 7**3 - 1 - 7


def test_roots_examples():
    r2 = roots_in([1, 0, 1], 7)
    assert len(r2) == 2 and all(m == 1 for _, m in r2)
    for r, _ in r2:
        assert (r * r + 1).is_zero()


def test_roots_multiplicity():
    # (x - 2)^3 (x - 5) over F_11
    f = reduce(partial(mp.mul, p=11), [[-2, 1]] * 3 + [[-5, 1]])
    assert [(r.coords, m) for r, m in roots_in(f, 11)] == [((2, 0), 3), ((5, 0), 1)]


def _eval(f, x):
    acc = x.field.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _roots_by_search(f, p):
    """Roots of f in F_(p^2) with multiplicities, by evaluating f and its
    derivatives at all p^2 elements (valid for multiplicities below p)."""
    fld = make_extension(p, 2)
    f = [c if isinstance(c, FqElem) else fld.embed(c) for c in f]
    derivs = [f]
    while len(derivs[-1]) > 1:
        g = derivs[-1]
        derivs.append([g[k] * k for k in range(1, len(g))])
    out = []
    for a in range(p):
        for b in range(p):
            x = fld.elem((a, b))
            m = 0
            while m < len(derivs) and _eval(derivs[m], x).is_zero():
                m += 1
            if m:
                out.append((x.coords, m))
    return sorted(out)


def _mul(f, g):
    out = [f[0].field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def test_roots_in_fp2_against_search():
    rng = random.Random(52)
    for p in primes_in(7, 31):
        fld = make_extension(p, 2)
        one = fld.one()
        while True:
            cubic = [rng.randrange(p) for _ in range(3)] + [1]
            if is_irreducible(cubic, p):
                break
        a, b = fld.rand(rng), fld.rand(rng)
        lead = fld.elem((rng.randrange(1, p), rng.randrange(p)))
        double_a = _mul([-a, one], [-a, one])
        cases = [
            [fld.rand(rng) for _ in range(rng.randrange(1, 7))] + [lead],
            _mul(double_a, _mul([-b, one], [fld.rand(rng), lead])),
            # the roots of the cubic lie in F_(p^3), outside F_(p^2)
            _mul(double_a, [fld.embed(c) for c in cubic]),
            [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [rng.randrange(1, p)],
        ]
        for f in cases:
            got = [(r.coords, m) for r, m in roots_in(f, p)]
            assert got == _roots_by_search(f, p), (p, f)
        assert roots_in(cases[2], p) == [(a, 2)]
