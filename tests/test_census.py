import pytest

from hasse5 import VerificationError, census as census_mod, modpoly as mp
from hasse5.census import (
    GShape,
    KShape,
    census,
    find_g_factors,
    find_k_factors,
    predicted_count,
)
from hasse5.classno import h5l
from hasse5.fp import golden_units, legendre
from hasse5.fricke import verify_fricke
from hasse5.hasse import build_hasse
from hasse5.intfactor import is_prime, primes_in
from oracles import census_by_factoring, census_by_h_sweep, companion, is_irreducible, quartic_irreducible_naive


def test_find_g_7():
    shapes = find_g_factors(7, build_hasse(7))
    assert [s.a for s in shapes] == [4]
    assert shapes[0].coeffs() == (1, 3, 4, 4, 1)


def test_find_g_13():
    assert len(find_g_factors(13, build_hasse(13))) == 2


def test_find_k_11():
    assert len(find_k_factors(11, build_hasse(11))) == 3


def test_find_k_19():
    assert len(find_k_factors(19, build_hasse(19))) == 5


def test_wrong_residue_class_rejected():
    with pytest.raises(ValueError):
        find_g_factors(11, build_hasse(11))
    with pytest.raises(ValueError):
        find_k_factors(13, build_hasse(13))


def test_x2_plus_1_counted_once():
    # at l = 19, x^2 + 1 divides the Hasse invariant (s = 1) and has s-parameter 1,
    # so the relation degenerates; the census counts it exactly once
    shapes = find_k_factors(19, build_hasse(19))
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
        for s in find_g_factors(l, build_hasse(l)):
            c = s.coeffs()
            rev = tuple(c[4 - k] * (-1) ** k % l for k in range(5))
            # x^4 g(-1/x) has coefficients c_{4-k} (-1)^(4-k); normalize lead
            rev = tuple(c[4 - k] * (-1) ** (4 - k) % l for k in range(5))
            assert rev == c


def test_k_factor_companion_pairing():
    # companions {k, kbar} both occur; self-paired ones have s = +-1
    for l in (11, 19, 29, 31, 41, 61):
        shapes = find_k_factors(l, build_hasse(l))
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
        for s in find_k_factors(l, build_hasse(l)):
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


def _factors(l, h):
    return census_by_factoring(l, h)["factors"]


def test_reducible_g_divisor_not_counted():
    l = 13
    reducible = [a for a in range(l) if not quartic_irreducible_naive(GShape(l, a).coeffs(), l)]
    irreducible = [a for a in range(l) if quartic_irreducible_naive(GShape(l, a).coeffs(), l)]
    for a in reducible:
        h = mp.mul(_g(l, a), _g(l, irreducible[0]), l)
        if mp.deg(mp.gcd(h, mp.deriv(h, l), l)):
            continue  # g_a shares a factor with g_b; not a squarefree H
        shapes = find_g_factors(l, h)
        assert shapes == [GShape(l, irreducible[0])]
        assert [list(g.coeffs()) for g in shapes] == _factors(l, h)
        break
    else:
        pytest.fail("no reducible g_a coprime to an irreducible g_b at l=13")


def test_quartic_criterion_matches_irreducibility_oracles():
    # find_g_factors(l, g_a) keeps g_a exactly when it is irreducible, for
    # every a != 0: the Legendre symbol of a^2 - 44a - 16 against the gcd
    # test and, for small l, the exhaustive divisor search
    for l in primes_in(7, 399):
        if l % 5 not in (2, 3):
            continue
        for a in range(1, l):
            g = GShape(l, a)
            irreducible = is_irreducible(g.coeffs(), l)
            if l < 60:
                assert irreducible == quartic_irreducible_naive(g.coeffs(), l), (l, a)
            assert find_g_factors(l, list(g.coeffs())) == ([g] if irreducible else []), (l, a)


def test_quartic_census_raises_no_power(monkeypatch):
    # the quartic verdict is one Legendre symbol per hit: no x^(l^j) mod g_a
    primes = [7, 13, 43, 163, 373]
    expected = {l: census_by_factoring(l, build_hasse(l)) for l in primes}

    def no_power(*args):
        raise AssertionError("the census raised a polynomial to a power")

    monkeypatch.setattr(mp, "pow_mod", no_power)
    for l in primes:
        report = census(l)
        assert report.found_count and report.match, l
        assert report.to_dict() == expected[l], l


def test_g0_hit_rejected_as_not_squarefree():
    # g_0 = (x^2 + 1)^2 is never irreducible, though at l = 3 mod 4 its
    # a^2 - 44a - 16 = -16 is a non-residue: a hit at a = 0 is an error
    for l in (7, 13):
        h = mp.mul(_g(l, 0), _g(l, 4), l)
        with pytest.raises(VerificationError, match="not squarefree"):
            find_g_factors(l, h)


def test_square_discriminant_k_divisor_not_counted():
    # a split K_s and its companion K_(1/s) divide h and are not counted; the
    # inert pair is
    l = 11
    e = golden_units(l).eps5
    split = [s for s in range(2, l - 1) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == 1]
    inert = [s for s in range(2, l - 1) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == -1]
    ks = [_k(l, e, s) for s in (split[0], pow(split[0], -1, l), inert[0], pow(inert[0], -1, l))]
    h = [1]
    for k in ks:
        h = mp.mul(h, k, l)
    assert mp.deg(mp.gcd(h, mp.deriv(h, l), l)) == 0
    shapes = find_k_factors(l, h)
    assert shapes == sorted((KShape(l, k[1], k[0], "eps") for k in ks[2:]), key=KShape.coeffs)
    assert [list(k.coeffs()) for k in shapes] == _factors(l, h)


def test_x2_plus_1_counted_once_in_injected_hasse():
    # at l = 19 (= 3 mod 4) x^2 + 1 is irreducible and satisfies both relations
    h = [1, 0, 1]
    assert find_k_factors(19, h) == [KShape(19, 0, 1, "eps")]
    assert _factors(19, h) == [[1, 0, 1]]


def test_non_squarefree_hasse_rejected():
    for l, f in ((13, _g(13, 1)), (11, [1, 0, 1])):
        h = mp.mul(mp.mul(f, f, l), [1, 1], l)
        with pytest.raises(VerificationError):
            census_by_factoring(l, h)


def _perturbed(l, h):
    return h[:1] + [(h[1] + 1) % l] + h[2:]


def _times_singular(l, h):
    return mp.mul(h, [l - 1, 11, 1], l)


def _times_x(l, h):
    return [0] + h


@pytest.mark.parametrize("l", [7, 11, 13, 379])
@pytest.mark.parametrize("fault", [_perturbed, _times_singular, _times_x])
def test_squarefree_certificate_rejects_a_wrong_hasse(monkeypatch, l, fault):
    monkeypatch.setattr(census_mod, "build_hasse", lambda l: fault(l, build_hasse(l)))
    with pytest.raises(VerificationError, match="L\\(H\\) has a nonzero"):
        census(l)


@pytest.mark.parametrize(
    "fault, message",
    [
        # the zero polynomial satisfies L
        (lambda l, h: [], "H\\(0\\) = 0"),
        # a polynomial in x^l is a constant for theta = x d/dx, so L kills
        # (x^2 + 11x - 1)^l H and (x + 1)^l H; only deg H < l makes the
        # certificate's proof apply, and both have a repeated factor
        (lambda l, h: mp.mul(h, [l - 1] + [0] * (l - 1) + [11] + [0] * (l - 1) + [1], l), "shares a root"),
        (lambda l, h: mp.mul(h, [1] + [0] * (l - 1) + [1], l), "degree .* >= l"),
    ],
    ids=["zero", "singular-power", "x+1-power"],
)
def test_each_certificate_check_is_needed(monkeypatch, fault, message):
    l = 13
    monkeypatch.setattr(census_mod, "build_hasse", lambda l: fault(l, build_hasse(l)))
    with pytest.raises(VerificationError, match=message):
        census(l)


def test_primes_past_the_int64_sweep_rejected():
    # the sweep state stays below (k+1) l^2, which must fit in int64
    big = [p for p in range(2**31, 2**31 + 200) if is_prime(p)]
    for find in (find_g_factors, find_k_factors):
        l = next(p for p in big if (find is find_g_factors) == (p % 5 in (2, 3)))
        with pytest.raises(ValueError, match="too large"):
            find(l, [1, 1])


@pytest.mark.heavy
def test_census_matches_h_sweep_oracle_to_1500():
    # the fold replaced Horner sweeps over all of H: 4-wide for the quartics,
    # one 2-wide sweep per golden unit for the quadratics
    for l in primes_in(7, 1500):
        if l % 5:
            assert census(l).to_dict() == census_by_h_sweep(l), l


def _q(l, a):
    return [(11 * a + 4) % l, a % l, 1]


def test_fold_of_g_a_is_q_a():
    # g_a = x^2 Q_a(x - 1/x), and x^(-3) (x^2 + 1) g_a = (x + 1/x) Q_a(u)
    for l in (7, 11, 13, 379):
        for a in (1, 2, 5, l - 1):
            g = _g(l, a)
            assert census_mod._fold(l, g) == _q(l, a), (l, a)
            assert census_mod._fold(l, mp.mul([1, 0, 1], g, l)) == _q(l, a), (l, a)


def test_fold_rejects_a_perturbed_coefficient():
    # every coefficient but the middle one has a mirror image x^(2n) f(-1/x)
    for l in (7, 11, 13, 379):
        for f in (_g(l, 3), build_hasse(l)):
            for i in set(range(len(f))) - {len(f) // 2}:
                bent = f[:i] + [(f[i] + 1) % l] + f[i + 1:]
                with pytest.raises(VerificationError, match="not invariant"):
                    census_mod._fold(l, mp.trim(bent))


def test_census_is_one_2_wide_sweep_over_the_fold(monkeypatch):
    calls = []
    sweep = census_mod._divisor_params

    def recorder(f, red, l):
        calls.append((len(f), red.shape))
        return sweep(f, red, l)

    monkeypatch.setattr(census_mod, "_divisor_params", recorder)
    for l in (7, 11, 13, 19, 379, 1499):
        calls.clear()
        census(l)
        assert len(calls) == 1, l
        (length, shape), = calls
        assert shape == (2, l) and length <= (l + 1) // 2, (l, length, shape)


def _conic_count(l, p):
    return sum(mp.deg(mp.gcd(_q(l, a), p, l)) > 0 for a in range(l))


def _check_fricke_linear_count(primes):
    """The paper's corollary, prime by prime: the linear factors of
    ss_l^(5*) are counted by the conics Q_a that meet the fold P of H, plus
    one for l = 3 mod 4.  Observed at every prime to 400; Q_a is the z-fibre
    z^2 + Y z + 11Y + 4 of ``fricke`` at Y = a."""
    for l in primes:
        p = census_mod._fold(l, build_hasse(l))
        assert verify_fricke(l).linear_found == _conic_count(l, p) + (l % 4 == 3), l


def test_fricke_linear_count_from_the_fold():
    _check_fricke_linear_count(primes_in(7, 200))


@pytest.mark.heavy
def test_fricke_linear_count_from_the_fold_to_400():
    _check_fricke_linear_count(primes_in(201, 400))


def _check_census_by_sigma_roots(primes):
    """For l = 2, 3 mod 5 the census count is deg G / 2, G = gcd(P,
    (u + 11) u^l + 11u - 4): the roots of P on which Frobenius acts as sigma.
    Proof: the roots of an irreducible Q_a are {u0, sigma(u0)} (see the
    ``census`` docstring).  Conversely u0^l = sigma(u0) puts u0 in F_(l^2),
    as sigma is an involution over F_l; u0 is not in F_l, as sigma fixes only
    u = 2e and 5 is a non-residue; and its minimal polynomial
    (u - u0)(u - sigma(u0)) is Q_a for a = -(u0 + sigma(u0)).  u = -11 is no
    root (125 != 0), and P is squarefree as H is."""
    for l in primes:
        if l % 5 not in (2, 3):
            continue
        p = census_mod._fold(l, build_hasse(l))
        up = mp.pow_mod([0, 1], l, p, l)
        g = mp.gcd(p, mp.add(mp.mul([11, 1], up, l), [l - 4, 11], l), l)
        assert 2 * census(l).found_count == mp.deg(g), l


def test_census_counts_the_sigma_roots_of_the_fold():
    _check_census_by_sigma_roots(primes_in(7, 400))


@pytest.mark.heavy
def test_census_counts_the_sigma_roots_of_the_fold_to_1500():
    _check_census_by_sigma_roots(primes_in(401, 1500))
