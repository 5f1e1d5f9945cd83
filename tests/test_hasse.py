import re

import pytest

from hasse5 import VerificationError, classno, modpoly as mp
from hasse5.classno import h_minus_p
from hasse5.hasse import build_hasse, build_ss, hasse_params
from hasse5.intfactor import primes_in
from oracles import (
    C65_NEG_FACTOR,
    Q6,
    X2P1,
    build_Jl,
    count_points_fp,
    curve_from_j_fp,
    deuring_L,
    hasse_by_expansion,
    ss_by_expansion,
    supersingular_js_fp,
)


def test_params():
    assert hasse_params(7) == (0, 0, 1)
    assert hasse_params(11) == (0, 1, 1)
    assert hasse_params(13) == (1, 0, 0)


@pytest.mark.parametrize("build", [hasse_params, build_hasse, build_ss])
def test_params_need_a_prime_above_5(build):
    with pytest.raises(ValueError, match=re.escape("need a prime l > 5")):
        build(5)


def test_Jl_small():
    assert build_Jl(7) == [1]
    assert build_Jl(11) == [1]
    assert build_Jl(13) == [8, 1]  # t + 8, root t = 5


def test_j5_supersingular_mod_13_oracle():
    # the root of J_13 is j = 5; a curve with that j-invariant over F_13 has 14 points
    a, b = curve_from_j_fp(5, 13)
    assert count_points_fp(a, b, 13) == 14


def test_hasse_small():
    # l=7: (b^2+1)(b^4+18b^3+74b^2-18b+1) mod 7, degree 6
    got = build_hasse(7)
    expect = mp.mul(X2P1, mp.from_int_poly(Q6, 7), 7)
    assert got == expect
    # l=11: c4-quartic * (b^2+1) * (b^4+...) mod 11, degree 10
    got11 = build_hasse(11)
    expect11 = mp.mul(mp.mul(mp.from_int_poly([1, -12, 14, 12, 1], 11), X2P1, 11), mp.from_int_poly(Q6, 11), 11)
    assert got11 == expect11
    assert mp.deg(build_hasse(13)) == 12


def test_hasse_degree_and_squarefree_sample():
    from hasse5.ffactor import factor_ff

    for l in primes_in(7, 140):
        n_l, r, s = hasse_params(l)
        h = build_hasse(l)
        assert mp.deg(h) == 12 * n_l + 4 * r + 6 * s
        assert all(m == 1 for _, m in factor_ff(h, l).factors)


def test_hasse_matches_expansion_oracle():
    # the Apery recurrence against Deuring's J_l composed with j(b) and j5
    for l in primes_in(7, 1500):
        assert build_hasse(l) == hasse_by_expansion(l), l


@pytest.mark.heavy
def test_hasse_matches_expansion_oracle_to_10000():
    # every 100th prime past the range above, and the last below 10^4: the
    # oracle is O(l^2), 3.3 s at l = 9973
    for l in primes_in(1501, 10**4)[::100] + [9973]:
        assert build_hasse(l) == hasse_by_expansion(l), l


def test_expansion_oracle_checks_its_two_routes(monkeypatch):
    import oracles

    monkeypatch.setattr(oracles, "C65_NEG_FACTOR", [2] + C65_NEG_FACTOR[1:])
    with pytest.raises(VerificationError, match="two Hasse invariant expansions disagree"):
        hasse_by_expansion(7)


def test_hasse_degree_check(monkeypatch):
    from hasse5 import hasse

    monkeypatch.setattr(hasse, "hasse_params", lambda l: (0, 0, 0))
    with pytest.raises(VerificationError, match=re.escape("Hasse invariant has degree 6 != 12n + 4r + 6s at l=7")):
        build_hasse(7)


def test_ss_small():
    assert build_ss(7) == [1, 1]  # X + 1 = X - 1728 mod 7
    assert build_ss(11) == [0, 10, 1]  # X(X - 1)
    assert build_ss(13) == [8, 1]  # X - 5


def test_ss_matches_expansion_oracle():
    # the 2F1 recurrence against Deuring's J_l expanded about t = 1728
    for p in primes_in(7, 2000):
        assert build_ss(p) == ss_by_expansion(p), p


@pytest.mark.heavy
def test_ss_matches_expansion_oracle_to_10000():
    # every 25th prime past the range above: the oracle is O(p^2), 0.2 s near p = 10^4
    for p in primes_in(2001, 10**4)[::25]:
        assert build_ss(p) == ss_by_expansion(p), p


def test_ss_roots_against_point_count_oracle():
    for p in primes_in(7, 50):
        ss = build_ss(p)
        roots = {x for x in range(p) if mp.eval_at(ss, x, p) == 0}
        assert roots == supersingular_js_fp(p)


def test_deuring_examples():
    assert deuring_L(7) == 1
    assert deuring_L(11) == 2
    assert deuring_L(13) == 1
    assert h_minus_p(13) == 2


def test_deuring_rejects_an_odd_class_number(monkeypatch):
    monkeypatch.setattr(classno, "h_minus_p", lambda p: 3)
    with pytest.raises(VerificationError, match="h\\(-p\\) = 3 is odd for p=13 = 1 mod 4"):
        deuring_L(13)


def test_ss_fp_root_count_equals_deuring_sample():
    for p in primes_in(7, 140):
        ss = build_ss(p)
        count = sum(1 for x in range(p) if mp.eval_at(ss, x, p) == 0)
        assert count == deuring_L(p)
