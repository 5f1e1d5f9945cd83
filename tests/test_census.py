import re

import pytest

from hasse5 import VerificationError, census as census_mod, modpoly as mp
from hasse5.census import (
    census,
    find_g_factors,
    find_k_factors,
    predicted_count,
)
from hasse5.classno import h5l
from hasse5.fp import golden_units, legendre
from hasse5.fricke import ZP_JNUM, ZP_LIN, verify_fricke
from hasse5.hasse import build_hasse, build_ss
from hasse5.intfactor import is_prime, primes_in
from hasse5.modeq import a_p, build_k5p
from oracles import (
    census_by_factoring,
    census_by_h_sweep,
    companion,
    compose_rational,
    is_irreducible,
    quartic_irreducible_naive,
)


def test_find_g_7():
    shapes = find_g_factors(7, build_hasse(7))
    assert [g[3] for g in shapes] == [4]
    assert shapes == [[1, 3, 4, 4, 1]]


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
    ones = [k for k in shapes if k[:2] == [1, 0]]
    assert len(ones) == 1


def test_predicted_count_cases():
    assert predicted_count(7, h5l(7)) == 1
    assert predicted_count(13, h5l(13)) == 2
    assert predicted_count(11, h5l(11)) == 3
    assert predicted_count(19, h5l(19)) == 5
    assert predicted_count(31, h5l(31)) == 7
    assert predicted_count(151, h5l(151)) == 23


@pytest.mark.parametrize("l, h, k", [(13, 3, 4), (43, 3, 2), (29, 3, 2), (41, 3, 2)])
def test_predicted_count_rejects_an_inexact_division(l, h, k):
    # one case for each division the formula makes: l = 2, 3 mod 5 with
    # l = 1 mod 4 and with l = 3 mod 8, l = 4 mod 5 and l = 1 mod 5 with l = 1 mod 4
    with pytest.raises(VerificationError, match=re.escape(f"{k} does not divide h(-5l) = {h} at l={l}")):
        predicted_count(l, h)
    assert census(101)["match"]  # exceptional-set prime


def test_census_examples():
    r = census(17)
    assert (r["found"], r["predicted"], r["match"]) == (1, 1, True)
    r = census(131)
    assert (r["found"], r["predicted"], r["match"]) == (11, 11, True)


def test_census_rejects_l_5():
    with pytest.raises(ValueError, match=re.escape("l must be a prime different from 5")):
        census(5)


def test_census_report_fields():
    d = census(13)
    assert d["l_mod5"] == 3 and d["l_mod8"] == 5 and d["h_minus_5l"] == 8
    assert d["found"] == d["predicted"] == 2 and d["match"]


def test_g_shape_reversal_closure():
    # x^4 g(-1/x) = g(x) for every found shape
    for l in (7, 13, 23, 43):
        for c in find_g_factors(l, build_hasse(l)):
            # x^4 g(-1/x) has coefficients c_{4-k} (-1)^(4-k); normalize lead
            rev = [c[4 - k] * (-1) ** (4 - k) % l for k in range(5)]
            assert rev == c


def test_k_factor_companion_pairing():
    # companions {k, kbar} both occur; self-paired ones have s = +-1
    for l in (11, 19, 29, 31, 41, 61):
        shapes = find_k_factors(l, build_hasse(l))
        coeff_set = {tuple(k) for k in shapes}
        for k in shapes:
            cb = companion(l, k)
            assert tuple(cb) in coeff_set
            if cb == k:
                assert k[0] in (1, l - 1)


def test_companion_product_has_g_shape():
    # for non-self-paired k, the product k * kbar is a quartic of the g-shape
    for l in (11, 19, 31):
        for k in find_k_factors(l, build_hasse(l)):
            cb = companion(l, k)
            if cb == k:
                continue
            prod = mp.mul(k, cb, l)
            a = prod[3]
            assert prod == [1, (-a) % l, (11 * a + 2) % l, a, 1]


def test_census_matches_factoring_oracle():
    for l in primes_in(7, 199):
        if l % 5:
            assert census(l) == census_by_factoring(l), l


@pytest.mark.heavy
def test_census_matches_factoring_oracle_to_1500():
    # every 10th prime past the range above, and the last below 1500: the
    # oracle takes about 9 minutes over every prime up to 1500, 1 minute here
    for l in primes_in(200, 1500)[::10] + [1499]:
        if l % 5:
            assert census(l) == census_by_factoring(l), l


def _g(l, a):
    return [1, -a % l, (11 * a + 2) % l, a % l, 1]


def _k(l, e, s):
    return [s, e * (s - 1) % l, 1]


def _factors(l, h):
    return census_by_factoring(l, h)["factors"]


def test_reducible_g_divisor_not_counted():
    l = 13
    reducible = [a for a in range(l) if not quartic_irreducible_naive(_g(l, a), l)]
    irreducible = [a for a in range(l) if quartic_irreducible_naive(_g(l, a), l)]
    for a in reducible:
        h = mp.mul(_g(l, a), _g(l, irreducible[0]), l)
        if mp.deg(mp.gcd(h, mp.deriv(h, l), l)):
            continue  # g_a shares a factor with g_b; not a squarefree H
        shapes = find_g_factors(l, h)
        assert shapes == [_g(l, irreducible[0])]
        assert shapes == _factors(l, h)
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
            g = _g(l, a)
            irreducible = is_irreducible(g, l)
            if l < 60:
                assert irreducible == quartic_irreducible_naive(g, l), (l, a)
            assert find_g_factors(l, g) == ([g] if irreducible else []), (l, a)


def test_quartic_census_raises_no_power(monkeypatch):
    # the quartic verdict is one Legendre symbol per hit: no x^(l^j) mod g_a
    primes = [7, 13, 43, 163, 373]
    expected = {l: census_by_factoring(l, build_hasse(l)) for l in primes}

    def no_power(*args):
        raise AssertionError("the census raised a polynomial to a power")

    monkeypatch.setattr(mp, "pow_mod", no_power)
    for l in primes:
        report = census(l)
        assert report["found"] and report["match"], l
        assert report == expected[l], l


def test_g0_hit_rejected_as_not_squarefree():
    # g_0 = (x^2 + 1)^2 is never irreducible, though at l = 3 mod 4 its
    # a^2 - 44a - 16 = -16 is a non-residue: a hit at a = 0 is an error
    for l in (7, 13):
        h = mp.mul(_g(l, 0), _g(l, 4), l)
        with pytest.raises(VerificationError, match=re.escape(f"(x^2 + 1)^2 divides f at l={l}: f is not squarefree")):
            find_g_factors(l, h)


def test_square_discriminant_k_divisor_not_counted():
    # a split K_s and its companion K_(1/s) divide h and are not counted; the
    # inert pair is
    l = 11
    e, _ = golden_units(l)
    split = [s for s in range(2, l - 1) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == 1]
    inert = [s for s in range(2, l - 1) if legendre(_k(l, e, s)[1] ** 2 - 4 * s, l) == -1]
    ks = [_k(l, e, s) for s in (split[0], pow(split[0], -1, l), inert[0], pow(inert[0], -1, l))]
    h = [1]
    for k in ks:
        h = mp.mul(h, k, l)
    assert mp.deg(mp.gcd(h, mp.deriv(h, l), l)) == 0
    shapes = find_k_factors(l, h)
    assert shapes == sorted(ks[2:])
    assert shapes == _factors(l, h)


def test_x2_plus_1_counted_once_in_injected_hasse():
    # at l = 19 (= 3 mod 4) x^2 + 1 is irreducible and satisfies both relations
    h = [1, 0, 1]
    assert find_k_factors(19, h) == [[1, 0, 1]]
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
        (lambda l, h: [], "H(0) = 0 at l=13"),
        # a polynomial in x^l is a constant for theta = x d/dx, so L kills
        # (x^2 + 11x - 1)^l H and (x + 1)^l H; only deg H < l makes the
        # certificate's proof apply, and both have a repeated factor
        (lambda l, h: mp.mul(h, [l - 1] + [0] * (l - 1) + [11] + [0] * (l - 1) + [1], l), "H shares a root with x^2 + 11x - 1 at l=13"),
        (lambda l, h: mp.mul(h, [1] + [0] * (l - 1) + [1], l), "Hasse invariant has degree 25 >= l=13"),
    ],
    ids=["zero", "singular-power", "x+1-power"],
)
def test_each_certificate_check_is_needed(monkeypatch, fault, message):
    l = 13
    monkeypatch.setattr(census_mod, "build_hasse", lambda l: fault(l, build_hasse(l)))
    with pytest.raises(VerificationError, match=re.escape(message)):
        census(l)


def test_primes_past_the_int64_sweep_rejected():
    # a giant step of the sweep sums b + k >= k + 1 products below l^2, so
    # (k+1) l^2 must fit in int64
    big = [p for p in range(2**31, 2**31 + 200) if is_prime(p)]
    for find in (find_g_factors, find_k_factors):
        l = next(p for p in big if (find is find_g_factors) == (p % 5 in (2, 3)))
        with pytest.raises(ValueError, match="too large"):
            find(l, [1, 1])


def test_census_checks_the_sweep_bound_before_any_o_l_stage(monkeypatch):
    # 1753413059 is the first prime with 3 l^2 >= 2^63: the census raises
    # before the class number and the Hasse invariant, both O(l) loops
    l = 1753413059
    assert is_prime(l) and 3 * l * l >= 2**63
    for stage in ("h5l", "_squarefree_hasse", "_conic_hits"):
        monkeypatch.setattr(census_mod, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran past the sweep bound"))
    with pytest.raises(ValueError, match=re.escape(f"l={l} is too large for the int64 divisibility sweep of width 2")):
        census(l)


@pytest.mark.heavy
def test_census_matches_h_sweep_oracle_to_1500():
    # the fold replaced Horner sweeps over all of H: 4-wide for the quartics,
    # one 2-wide sweep per golden unit for the quadratics
    for l in primes_in(7, 1500):
        if l % 5:
            assert census(l) == census_by_h_sweep(l), l


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
                with pytest.raises(VerificationError, match=re.escape(f"x^(deg f) f(-1/x) != f(x) at l={l}: f is not invariant under x -> -1/x")):
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


def _check_conic_hits_by_gcd(primes):
    """``verify_fricke``'s linear count against one gcd per conic on the same
    fold P of H.  The verdict reads it off ``census._conic_hits``, the a with
    Q_a | P, and deg R, R = gcd(P, u^2 + 22u - 4).  Here the a counted are
    those with gcd(Q_a, P) != 1: the roots of Q_a are a sigma-orbit, so it
    meets P in both (a hit) or, as P is squarefree, only in a fixed point 2e,
    Q_a = (u - 2e)^2, and 2e is in F_l when (5/l) = 1.  So this checks the
    2-wide sweep of ``_conic_hits`` and the deg R term on one P, not the
    verdict against another route; ``tests/test_fricke.py::
    test_verify_fricke_matches_the_R5_norm_route`` does that.  Q_a is the
    z-fibre z^2 + Y z + 11Y + 4 of ``fricke`` at Y = a."""
    for l in primes:
        p = census_mod._fold(l, build_hasse(l))
        assert verify_fricke(l)["linear_found"] == _conic_count(l, p) + (l % 4 == 3), l


def test_conic_hits_match_gcds_on_the_fold():
    _check_conic_hits_by_gcd(primes_in(7, 200))


@pytest.mark.heavy
def test_conic_hits_match_gcds_on_the_fold_to_400():
    _check_conic_hits_by_gcd(primes_in(201, 400))


def _sigma_roots(l, p):
    """G = gcd(P, (u + 11) u^l + 11u - 4): the roots of P on which Frobenius
    acts as sigma(u) = (4 - 11u)/(u + 11)."""
    up = mp.pow_mod([0, 1], l, p, l)
    return mp.gcd(p, mp.add(mp.mul([11, 1], up, l), [l - 4, 11], l), l)


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
        g = _sigma_roots(l, census_mod._fold(l, build_hasse(l)))
        assert 2 * census(l)["found"] == mp.deg(g), l


def test_census_counts_the_sigma_roots_of_the_fold():
    _check_census_by_sigma_roots(primes_in(7, 400))


@pytest.mark.heavy
def test_census_counts_the_sigma_roots_of_the_fold_to_1500():
    _check_census_by_sigma_roots(primes_in(401, 1500))


def test_fold_divides_the_z_line_supersingular_polynomial():
    """P divides S(z) = ZP_LIN(z)^(deg ss_l) ss_l(-ZP_JNUM(z) / ZP_LIN(z)),
    the numerator of ss_l(j(z)) that ``oracles.zparam_cross_check`` builds.

    Proof.  With z = b - 1/b, C4(b) = b^2 (z^2 + 12z + 16) and
    b^5 (1 - 11b - b^2) = -b^6 (z + 11), so j(b) = C4(b)^3 / (b^5 (1 - 11b -
    b^2)) = -(z^2 + 12z + 16)^3 / (z + 11) = -ZP_JNUM(z) / ZP_LIN(z).  A root
    u0 of P is b0 - 1/b0 for a root b0 of H: take b0 a root of
    x^2 - u0 x - 1, then b0^(-n) H(b0) = P(u0) (times b0 + 1/b0 for odd n)
    = 0.  H(b0) = 0 makes b0 a supersingular parameter, so ss_l(j(b0)) = 0,
    and b0 is not a cusp: H(0) != 0 and H shares no root with x^2 + 11x - 1
    (``_squarefree_hasse`` checks both), so u0 + 11 != 0 and
    S(u0) = (u0 + 11)^(deg ss_l) ss_l(j(b0)) = 0.  P is squarefree because
    H is: (u - u0)^2 | P gives (x^2 - u0 x - 1)^2 | H, whose roots are
    nonzero.  So every root of P is a root of S, each once in P, and P | S.
    """
    for l in primes_in(7, 700):
        p = census_mod._fold(l, census_mod._squarefree_hasse(l))
        s = compose_rational(build_ss(l), mp.from_int_poly([-c for c in ZP_JNUM], l), list(ZP_LIN), l)
        assert mp.deg(p) > 0 and not mp.rem(s, p, l), l


def _check_sigma_roots_against_k5p(primes):
    """deg G = deg K_5p / 2 - 2 [l = 3 mod 4] = a_l h(-5l) / 2 - 2 [l = 3 mod 4],
    G the sigma-roots of P as above.  Observed at every prime 380..900; no
    proof is at hand."""
    for l in primes:
        g = _sigma_roots(l, census_mod._fold(l, census_mod._squarefree_hasse(l)))
        assert mp.deg(g) == a_p(l) * h5l(l) // 2 - 2 * (l % 4 == 3), l


def test_sigma_roots_of_the_fold_count_k5p():
    _check_sigma_roots_against_k5p(primes_in(380, 700))


@pytest.mark.heavy
def test_sigma_roots_of_the_fold_count_k5p_to_900():
    _check_sigma_roots_against_k5p(primes_in(701, 900))


def _check_sigma_roots_against_k5p_of_j(primes):
    """G, the sigma-roots of P, divides the numerator of K_5p(j(u)), with
    j(u) = -(u^2 + 12u + 16)^3 / (u + 11) as in
    ``test_fold_divides_the_z_line_supersingular_polynomial`` and
    K_5p = prod q^m over ``build_k5p(l)``; and deg K_5p = 2 deg G +
    4 [l = 3 mod 4].  So the j-images of the sigma-roots are roots of K_5p,
    which ties the census, the Fricke verdict and K_5p to one P.  Observed
    at every prime 380..1000; no proof is at hand."""
    for l in primes:
        g = _sigma_roots(l, census_mod._conic_hits(l, census_mod._squarefree_hasse(l))[0])
        k5p = [1]
        for q, m in build_k5p(l):
            for _ in range(m):
                k5p = mp.mul(k5p, list(q), l)
        num = compose_rational(k5p, mp.from_int_poly([-c for c in ZP_JNUM], l), list(ZP_LIN), l)
        assert mp.deg(g) > 0 and not mp.rem(num, g, l), l
        assert mp.deg(k5p) == 2 * mp.deg(g) + 4 * (l % 4 == 3), l


def test_sigma_roots_of_the_fold_divide_k5p_of_j():
    _check_sigma_roots_against_k5p_of_j([383, 389, 401, 439, 503, 599, 601])


@pytest.mark.heavy
def test_sigma_roots_of_the_fold_divide_k5p_of_j_to_1000():
    _check_sigma_roots_against_k5p_of_j(primes_in(380, 1000))
