import pytest

from hasse5 import VerificationError, modpoly as mp
from hasse5.census import (
    GShape,
    KShape,
    census,
    companion,
    find_g_factors,
    find_k_factors,
    predicted_count,
)
from hasse5.classno import h5l
from hasse5.fp import golden_units, legendre
from hasse5.intfactor import is_prime, primes_in
from oracles import census_by_factoring, quartic_irreducible_naive


def test_find_g_7():
    shapes = find_g_factors(7)
    assert [s.a for s in shapes] == [4]
    assert shapes[0].coeffs() == (1, 3, 4, 4, 1)


def test_find_g_13():
    assert len(find_g_factors(13)) == 2


def test_find_k_11():
    assert len(find_k_factors(11)) == 3


def test_find_k_19():
    assert len(find_k_factors(19)) == 5


def test_wrong_residue_class_rejected():
    with pytest.raises(ValueError):
        find_g_factors(11)
    with pytest.raises(ValueError):
        find_k_factors(13)


def test_x2_plus_1_counted_once():
    # at l = 19, x^2 + 1 divides the Hasse invariant (s = 1) and has s-parameter 1,
    # so the relation degenerates; the census counts it exactly once
    shapes = find_k_factors(19)
    ones = [s for s in shapes if (s.r, s.s) == (0, 1)]
    assert len(ones) == 1


def test_predicted_count_cases():
    assert predicted_count(7, h5l(7)) == 1
    assert predicted_count(13, h5l(13)) == 2
    assert predicted_count(11, h5l(11)) == 3
    assert predicted_count(19, h5l(19)) == 5
    assert predicted_count(31, h5l(31)) == 7
    assert predicted_count(151, h5l(151)) == 23
    assert census(101).match  # exceptional-set prime


def test_census_examples():
    r = census(17)
    assert (r.found_count, r.predicted_count, r.match) == (1, 1, True)
    r = census(131)
    assert (r.found_count, r.predicted_count, r.match) == (11, 11, True)


def test_census_report_fields():
    r = census(13)
    assert r.l_mod5 == 3 and r.l_mod8 == 5 and r.h == 8
    d = r.to_dict()
    assert d["found"] == d["predicted"] == 2 and d["match"]


def test_g_shape_reversal_closure():
    # x^4 g(-1/x) = g(x) for every found shape
    for l in (7, 13, 23, 43):
        for s in find_g_factors(l):
            c = s.coeffs()
            rev = tuple(c[4 - k] * (-1) ** k % l for k in range(5))
            # x^4 g(-1/x) has coefficients c_{4-k} (-1)^(4-k); normalize lead
            rev = tuple(c[4 - k] * (-1) ** (4 - k) % l for k in range(5))
            assert rev == c


def test_k_factor_companion_pairing():
    # companions {k, kbar} both occur; self-paired ones have s = +-1
    for l in (11, 19, 29, 31, 41, 61):
        shapes = find_k_factors(l)
        coeff_set = {s.coeffs() for s in shapes}
        for s in shapes:
            cb = companion(l, s)
            assert cb.coeffs() in coeff_set
            if cb.coeffs() == s.coeffs():
                assert s.s in (1, l - 1)


def test_companion_product_has_g_shape():
    # for non-self-paired k, the product k * kbar is a quartic of the g-shape
    for l in (11, 19, 31):
        pair = golden_units(l)
        for s in find_k_factors(l):
            cb = companion(l, s)
            if cb.coeffs() == s.coeffs():
                continue
            prod = mp.mul(list(s.coeffs()), list(cb.coeffs()), l)
            a = prod[3]
            assert prod == [1, (-a) % l, (11 * a + 2) % l, a, 1]


def test_gshape_coeffs():
    g = GShape(7, 4)
    assert g.coeffs() == (1, 3, 4, 4, 1)


def test_census_matches_factoring_oracle():
    for l in primes_in(7, 199):
        if l % 5:
            assert census(l).to_dict() == census_by_factoring(l), l


@pytest.mark.heavy
def test_census_matches_factoring_oracle_to_1500():
    # every 10th prime past the range above, and the last below 1500: the
    # oracle takes about 9 minutes over every prime up to 1500, 1 minute here
    for l in primes_in(200, 1500)[::10] + [1499]:
        if l % 5:
            assert census(l).to_dict() == census_by_factoring(l), l


def _g(l, a):
    return list(GShape(l, a).coeffs())


def _k(l, e, s):
    return [s, e * (s - 1) % l, 1]


def test_reducible_g_divisor_not_counted():
    l = 13
    reducible = [a for a in range(l) if not quartic_irreducible_naive(GShape(l, a).coeffs(), l)]
    irreducible = [a for a in range(l) if quartic_irreducible_naive(GShape(l, a).coeffs(), l)]
    for a in reducible:
        h = mp.mul(_g(l, a), _g(l, irreducible[0]), l)
        if mp.deg(mp.gcd(h, mp.deriv(h, l), l)):
            continue  # g_a shares a factor with g_b; not a squarefree H
        assert find_g_factors(l, h) == [GShape(l, irreducible[0])]
        assert census(l, h).to_dict() == census_by_factoring(l, h)
        break
    else:
        pytest.fail("no reducible g_a coprime to an irreducible g_b at l=13")


def test_square_discriminant_k_divisor_not_counted():
    l = 11
    e = golden_units(l).eps5
    split = [s for s in range(l) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == 1]
    inert = [s for s in range(l) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == -1]
    h = mp.mul(_k(l, e, split[0]), _k(l, e, inert[0]), l)
    assert mp.deg(mp.gcd(h, mp.deriv(h, l), l)) == 0
    assert find_k_factors(l, h) == [KShape(l, _k(l, e, inert[0])[1], inert[0], "eps")]
    assert census(l, h).to_dict() == census_by_factoring(l, h)


def test_x2_plus_1_counted_once_in_injected_hasse():
    # at l = 19 (= 3 mod 4) x^2 + 1 is irreducible and satisfies both relations
    h = [1, 0, 1]
    assert find_k_factors(19, h) == [KShape(19, 0, 1, "eps")]
    assert census(19, h).to_dict() == census_by_factoring(19, h)


def test_non_squarefree_hasse_rejected():
    for l, f in ((13, _g(13, 1)), (11, [1, 0, 1])):
        h = mp.mul(mp.mul(f, f, l), [1, 1], l)
        with pytest.raises(VerificationError):
            census(l, h)
        with pytest.raises(VerificationError):
            census_by_factoring(l, h)


def test_primes_past_the_int64_sweep_rejected():
    # the sweep state stays below (k+1) l^2, which must fit in int64
    big = [p for p in range(2**31, 2**31 + 200) if is_prime(p)]
    for find in (find_g_factors, find_k_factors):
        l = next(p for p in big if (find is find_g_factors) == (p % 5 in (2, 3)))
        with pytest.raises(ValueError, match="too large"):
            find(l, [1, 1])
