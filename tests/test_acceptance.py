"""Acceptance suite: one test per criterion, exact equality throughout.

Each test finishes by printing a single PASS line (visible with pytest -s or
in the captured-output section); any failure shows up as a normal assertion.
"""

import random
import time

import pytest

from hasse5 import modpoly as mp, refdata
from hasse5.census import census, find_k_factors
from hasse5.fp import golden_units
from hasse5.fricke import verify_fricke
from hasse5.hasse import build_hasse, build_ss, hasse_params
from hasse5.icosa import (
    coset_maps,
    equality_ledger,
    expected_R_TT,
    expected_R_TTA2,
    icosa_resultant,
    orbit_property,
    resolvent_identities,
)
from hasse5.intfactor import primes_in
from hasse5.modeq import (
    build_k5p,
    cofactor_resultant,
    check_discy,
    check_phi5_diagonal,
    diag_derivs,
    h20_root_data,
    hd_poly,
    phi5_resultant_definition_holds,
    qd_disc,
    sporadic_case,
    table1_gcd,
    table5_value,
    verify_class_equation,
)
from hasse5.poly import discriminant
from oracles import companion, deuring_L, supersingular_poly_fp2_oracle, zparam_cross_check


def _report(n, name, t0):
    print(f"ACCEPTANCE {n} [{name}]: PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_census_tables():
    """Tables 6-9: all 50 listed primes reproduce N and h(-5l); budget 2 minutes."""
    t0 = time.time()
    rows = 0
    for table in (6, 7, 8, 9):
        for l, n_expected, h_expected in refdata.CENSUS_TABLES[table]:
            rep = census(l)
            assert rep["found"] == n_expected, (l, rep["found"], n_expected)
            assert rep["h_minus_5l"] == h_expected, (l, rep["h_minus_5l"], h_expected)
            assert rep["match"]
            rows += 1
    assert rows == 50
    assert time.time() - t0 < 120
    _report(1, "census tables, 50 primes", t0)


def test_criterion_2_fricke_table():
    """Table 10: all 22 primes reproduce degree and linear count; budget 30 seconds."""
    t0 = time.time()
    for p, deg_expected, lin_expected in refdata.FRICKE_TABLE:
        rep = verify_fricke(p)
        assert rep["degree_found"] == deg_expected == rep["degree_formula"], (p, rep)
        assert rep["linear_found"] == lin_expected == rep["linear_formula"], (p, rep)
    assert time.time() - t0 < 30
    _report(2, "Fricke table, 22 primes", t0)


def test_criterion_3_class_equation_suite():
    """Structure and degree identity for the 22 exceptional primes and all
    primes in (379, 600]; the 379 run reports the multiplicity-6 anomaly and
    reproduces the printed factorization; budget 10 minutes."""
    t0 = time.time()
    for p in sorted(refdata.S_SET):
        rep = verify_class_equation(p)
        assert rep["structure_ok"] and rep["identity_holds"], (p, rep["mismatches"])
    for p in primes_in(380, 600):
        rep = verify_class_equation(p)
        assert rep["structure_ok"] and rep["identity_holds"], (p, rep["mismatches"])
    rep379 = verify_class_equation(379)
    assert not rep379["structure_ok"] and not rep379["identity_holds"]
    assert any("(51, 114, 1)" in m and "found 6" in m for m in rep379["mismatches"])
    assert dict(build_k5p(379)) == dict(refdata.K379_FACTORS)
    assert time.time() - t0 < 600
    _report(3, "class equation, S + (379, 600] + sharp bound at 379", t0)


def test_criterion_4_exact_identities_fast():
    """The characteristic-zero identity suite (fast half); budget 2 minutes."""
    t0 = time.time()
    assert check_phi5_diagonal()
    assert check_discy() is None
    for t, want in refdata.F2_AT.items():
        F, F1, F2 = diag_derivs(t)
        assert F == 0 and F1 == 0 and F2 == want
    _, A, B, n = h20_root_data()
    assert (A, B, n) == (refdata.H20_A, refdata.H20_B, refdata.H20_A2_5B2)
    for d, want in refdata.TABLE1_GCD.items():
        assert table1_gcd(d) == want
    for d, want in refdata.DISC_HD.items():
        assert discriminant(hd_poly(d)) == want
    for (d, case), want in refdata.SPORADIC_GCD.items():
        got = sporadic_case(d, case)
        if case == 3:
            assert got == want
        else:
            nq, g = got
            assert nq == refdata.SPORADIC_NQ[(d, case)]
            if (d, case) == (96, 2):
                # the printed gcd carries a spurious 71 (the first partial's
                # norm is 11 mod 71); the verified value drops that factor
                assert g == refdata.SPORADIC_GCD_96_2_CORRECTED and want == 71 * g
            else:
                assert g == want
    for d, want in refdata.DISC_QD.items():
        got = qd_disc(d)
        if d == 51:
            # printed table omits 17^4, which its own companion entry
            # (a^2 - 44a - 16 = 2^4 * 17 * (...)^2) forces into the discriminant
            assert got == refdata.DISC_QD_51_CORRECTED and got == want * 17**4
        else:
            assert got == want
    for d in refdata.DISC_QD:
        assert table5_value(d) == refdata.table5_expected(d)
    from hasse5.fricke import section7_identities

    assert section7_identities()
    assert time.time() - t0 < 120
    _report(4, "exact identity suite (fast)", t0)


@pytest.mark.heavy
def test_criterion_5_exact_identities_heavy():
    """Resultant definition of the modular polynomial, the twelve cofactor
    resultants R(d), the two printed cyclotomic resultants, and the equality
    ledger; budget 30 minutes."""
    t0 = time.time()
    assert phi5_resultant_definition_holds()
    for d, want in refdata.RESULTANT_RD.items():
        assert cofactor_resultant(d) == want, d
    maps = coset_maps()
    assert icosa_resultant(maps["T"], maps["T"]) == expected_R_TT()
    assert icosa_resultant(maps["T"], maps["TA2"]) == expected_R_TTA2()
    ledger = equality_ledger()
    assert all(ledger.values()), ledger
    assert time.time() - t0 < 1800
    _report(5, "exact identity suite (heavy)", t0)


@pytest.mark.heavy
def test_criterion_6_property_suites():
    """Invariant sweeps: Hasse degree/squarefreeness to 500, root counts vs the
    prime-field supersingular count to 500, the point-count oracle to 50, the
    z-parametrization to 1000, companion pairing, the exact G60-orbit identity,
    resolvent identities, golden-unit invariants."""
    t0 = time.time()
    for l in primes_in(7, 500):
        h = build_hasse(l)
        n_l, r, s = hasse_params(l)
        assert mp.deg(h) == 12 * n_l + 4 * r + 6 * s
        assert mp.deg(mp.gcd(h, mp.deriv(h, l), l)) == 0
    for p in primes_in(7, 500):
        ss = build_ss(p)
        assert sum(1 for x in range(p) if mp.eval_at(ss, x, p) == 0) == deuring_L(p)
    for p in primes_in(7, 50):
        assert supersingular_poly_fp2_oracle(p) == build_ss(p)
    for p in primes_in(7, 1000):
        assert zparam_cross_check(p)
    for l in (11, 19, 29, 31, 41, 61, 71, 79):
        shapes = find_k_factors(l, build_hasse(l))
        coeffs = {tuple(k) for k in shapes}
        for k in shapes:
            assert tuple(companion(l, k)) in coeffs
    assert orbit_property()
    assert resolvent_identities()
    for l in primes_in(7, 10**4):
        if l % 5 in (1, 4):
            e5, e5bar = golden_units(l)
            assert (e5 + e5bar + 11) % l == 0 and (e5 * e5bar + 1) % l == 0
    _report(6, "property suites", t0)


def test_criterion_7_extended_census():
    """100 seeded random primes in (379, 1500]: the count formula holds for
    every prime, so any mismatch is an implementation bug; budget 20 minutes."""
    t0 = time.time()
    pool = primes_in(380, 1500)
    rng = random.Random(51500)
    chosen = rng.sample(pool, 100)
    for l in sorted(chosen):
        rep = census(l)
        assert rep["match"], (l, rep["found"], rep["predicted"])
    assert time.time() - t0 < 1200
    _report(7, "extended census, 100 primes in (379, 1500]", t0)


def test_criterion_8_split_prime_scan():
    """The Fricke polynomial splits completely over F_p exactly at p in
    {7, 11, 19} for 7 <= p <= 1000."""
    t0 = time.time()
    split = []
    for p in primes_in(7, 1000):
        rep = verify_fricke(p)
        assert rep["match"], p
        if rep["linear_found"] == rep["degree_found"]:
            split.append(p)
    assert tuple(split) == refdata.SPLIT_PRIMES
    _report(8, "split-prime scan to 1000", t0)
