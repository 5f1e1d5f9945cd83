import random

from hasse5 import modpoly as mp
from hasse5.ffactor import FactorList, factor_ff, reconstruct, roots_in
from hasse5.fp import make_extension
from hasse5.hasse import build_hasse
from oracles import quartic_irreducible_naive


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
    f = mp.mul_many([[1, 1], [1, 1], [2, 0, 1], [5, 1, 1], [5, 1, 1], [5, 1, 1]], p)
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
            assert mp.is_irreducible(coeffs, p)
        assert mp.is_irreducible(f, p) == (len(fl.factors) == 1 and fl.factors[0][1] == 1)


def test_factorization_deterministic():
    f = mp.from_int_poly([3, 1, 4, 1, 5, 9, 2, 6, 1], 101)
    assert factor_ff(f, 101) == factor_ff(f, 101)


def test_squarefree_with_pth_power():
    p = 5
    f = mp.mul_many([[1, 1]] * 5 + [[2, 1]], p)  # (x+1)^5 (x+2)
    fl = factor_ff(f, p)
    assert dict(fl.factors) == {(1, 1): 5, (2, 1): 1}


def test_ext_field_factorization():
    # x^2 + 1 over F_7 is irreducible, but splits over F_49
    fl = factor_ff([1, 0, 1], 7, k=2)
    assert len(fl.factors) == 2
    assert all(len(c) == 2 and m == 1 for c, m in fl.factors)
    fld = make_extension(7, 2)
    recon = reconstruct(fl)
    assert [c.coords for c in recon] == [fld.embed(1).coords, fld.zero().coords, fld.embed(1).coords]


def test_roots_examples():
    assert roots_in([-2, 0, 1], 7, 1) == [(3, 1), (4, 1)]
    assert roots_in([1, 0, 1], 7, 1) == []
    r2 = roots_in([1, 0, 1], 7, 2)
    assert len(r2) == 2 and all(m == 1 for _, m in r2)
    fld = make_extension(7, 2)
    for r, _ in r2:
        assert (r * r + 1).is_zero()


def test_roots_multiplicity():
    # (x - 2)^3 (x - 5) over F_11
    f = mp.mul_many([[-2, 1]] * 3 + [[-5, 1]], 11)
    assert roots_in(f, 11, 1) == [(2, 3), (5, 1)]


def test_factor_list_str():
    fl = FactorList(7, 1, 2, (((1, 0, 1), 2), ((3, 1), 1)))
    s = str(fl)
    assert "x^2" in s and "^2" in s
