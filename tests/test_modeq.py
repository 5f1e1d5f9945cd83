import re
import sys
from fractions import Fraction
from math import comb

import pytest

from hasse5 import VerificationError, modeq, modpoly as mp, refdata
from hasse5.fp import legendre
from hasse5.intfactor import is_prime, primes_in
from hasse5.modeq import (
    HD,
    NonExactSplit,
    Q5,
    a_p,
    build_k5p,
    cofactor_remainder,
    cofactor_resultant,
    check_discy,
    check_phi5_diagonal,
    diag_derivs,
    epsilon_flags,
    fd_poly,
    fd_split,
    gd_poly,
    h20_root_data,
    hd_poly,
    phi5,
    phi5_diag,
    phi5_xp_x,
    qd_disc,
    qd_poly,
    sporadic_case,
    table1_gcd,
    table5_value,
    verify_class_equation,
)
from hasse5.poly import BiPoly, Poly, discriminant
from oracles import (
    certify_by_gcd,
    eval_rows,
    hasse_nonzero_by_rows,
    k5p_by_census_hits,
    k5p_by_division,
    k5p_multiplicities_by_rows,
    k5p_report_by_factoring,
    pow_mod_by_squaring,
)


def test_q5_constant_term():
    assert Q5.eval(0, 0) == refdata.Q5_CONSTANT


def test_phi5_symmetric():
    ph = phi5()
    g = ph.g
    n = len(g)
    assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
    assert len(ph.g) - 1 == 6 and len(g[0]) == 7  # degree 6 in each variable


def test_phi5_diagonal_identity():
    assert check_phi5_diagonal()
    rhs = -(hd_poly(20) * hd_poly(4) ** 2 * hd_poly(11) ** 2 * hd_poly(16) ** 2 * hd_poly(19) ** 2)
    # specialization spot check
    assert phi5_diag()(3) == rhs(3)


def test_discy_identity():
    assert check_discy() is None


# One coefficient +1: of Phi5 at x^i y^j (x^1 y^6 makes the y-leading
# coefficient 1 + x), or of H_-d at x^i.
DISCY_FAULTS = {"Phi5 x^2 y^3": ("phi5", 2, 3), "Phi5 x^1 y^6": ("phi5", 1, 6), "H_-11 x^0": ("HD", 11, 0), "H_-84 x^3": ("HD", 84, 3)}


@pytest.mark.parametrize("fault", DISCY_FAULTS)
def test_discy_fails_a_wrong_coefficient(monkeypatch, fault):
    # the failure value is a point x0 and the two sides there: the left one
    # is the exact disc_y of the faulty Phi5 (the subresultant PRS over
    # Z[x]) at x0
    where, a, b = DISCY_FAULTS[fault]
    if where == "phi5":
        grid = [row[:] for row in phi5().g]
        grid[a][b] += 1
        monkeypatch.setattr(modeq, "phi5", lambda: BiPoly(grid))
    else:
        monkeypatch.setitem(HD, a, tuple(c + (i == b) for i, c in enumerate(HD[a])))
    got = check_discy()
    assert got is not None
    x0, lhs, rhs = got
    disc = discriminant(Poly([Poly([row[j] for row in modeq.phi5().g]) for j in range(7)]))
    assert lhs == disc(x0) != rhs and 0 <= x0 <= 66


@pytest.mark.parametrize(
    "inject",
    [
        "from hasse5.poly import BiPoly; grid = [row[:] for row in modeq.phi5().g]; grid[2][3] += 1; "
        "modeq.phi5 = lambda: BiPoly(grid)",
        "modeq.HD[11] = (modeq.HD[11][0] + 1, 1)",
    ],
    ids=["Phi5", "H_-11"],
)
def test_optimized_interpreter_keeps_the_discy_check(inject):
    from test_cli import run_subprocess

    run = run_subprocess(f"from hasse5 import modeq; {inject}; print(modeq.check_discy() is not None)", "-O")
    assert run.returncode == 0 and run.stdout == "True\n"


def test_disc_hd_printed():
    for d, want in refdata.DISC_HD.items():
        assert discriminant(hd_poly(d)) == want


def test_h20_selector_requires_h20_to_split():
    # why verify_class_equation does not check that a flagged H_-20 splits:
    # e20 needs (5/p) = 1, and disc H_-20 is 5^3 times a square
    disc = discriminant(hd_poly(20))
    assert disc == 2**18 * 5**3 * 13**2 * 17**2
    for p in primes_in(23, 3000):
        assert not epsilon_flags(p)[20] or legendre(disc, p) == 1, p


def test_h84_h96_alternate_forms():
    # the quartic class polynomials match their difference-of-squares displays
    h84 = hd_poly(84)
    alt = Poly([92704725504000, -1598400473472, 1]) ** 2 - (
        2**18 * 3**9 * 7**3 * 13**2 * 29**2
    ) * Poly([-184896, 3187]) ** 2
    assert h84 == alt
    h96 = hd_poly(96)
    alt96 = Poly([10900447400376000, -11670072148368, 1]) ** 2 - (
        2**9 * 3**13 * 13**2 * 17**2 * 41**2 * 61**2
    ) * Poly([-690264, 739]) ** 2
    assert h96 == alt96


def test_linear_root_derivs():
    for t, want in refdata.F2_AT.items():
        F, F1, F2 = diag_derivs(t)
        assert F == 0 and F1 == 0 and F2 == want


def test_h20_root_values():
    F, A, B, n = h20_root_data()
    assert F == 0
    assert A == refdata.H20_A and B == refdata.H20_B
    assert n == refdata.H20_A2_5B2


def test_table1():
    for d, want in refdata.TABLE1_GCD.items():
        assert table1_gcd(d) == want


def test_sporadic_norms():
    for key in ((84, 1), (84, 2), (96, 1)):
        nq, g = sporadic_case(*key)
        assert nq == refdata.SPORADIC_NQ[key]
        assert g == refdata.SPORADIC_GCD[key]
    nq, g = sporadic_case(96, 2)
    assert nq == refdata.SPORADIC_NQ[(96, 2)]
    # printed gcd carries a spurious 71 (N(Q1) = 11 mod 71); the verified value drops it
    assert g == refdata.SPORADIC_GCD_96_2_CORRECTED
    assert refdata.SPORADIC_GCD[(96, 2)] == 71 * g
    for key in ((84, 3), (96, 3)):
        assert sporadic_case(*key) == refdata.SPORADIC_GCD[key]


def perturb_F_off_the_integers(monkeypatch):
    """Make ``diag_derivs`` return F(t) + 1 at every t outside Z, as at the
    H_-20 root 632000 + 282880 sqrt(5); the integer roots keep their values."""
    real = modeq.diag_derivs

    def faulty(t):
        F, F1, F2 = real(t)
        return (F if isinstance(t, int) else F + 1), F1, F2

    monkeypatch.setattr(modeq, "diag_derivs", faulty)


def move_sporadic_point(monkeypatch, key):
    """Shift u of the printed sporadic point (u, v) of ``key`` by 1, off Q5 = 0."""
    u, v = modeq._SPORADIC_UV[key]
    monkeypatch.setitem(modeq._SPORADIC_UV, key, (u + 1, v))


def test_h20_root_data_rejects_a_point_where_F_is_not_zero(monkeypatch):
    perturb_F_off_the_integers(monkeypatch)
    with pytest.raises(VerificationError, match=r"F\(t\) != 0 at the H_-20 root"):
        h20_root_data()


def test_sporadic_case_3_rejects_a_point_off_the_curve(monkeypatch):
    move_sporadic_point(monkeypatch, (84, 3))
    with pytest.raises(VerificationError, match="nonzero at sporadic d=84 case 3"):
        sporadic_case(84, 3)


def test_epsilon_examples():
    assert epsilon_flags(7)[4] == 1  # 7 = 3 mod 4
    assert epsilon_flags(19)[20] == 1
    # eps_24 = 1 forces (-3/p) = +1
    from hasse5.fp import legendre

    for p in (101, 103, 107, 167, 173, 179, 191, 193, 199, 223):
        flags = epsilon_flags(p)
        if flags[24]:
            assert legendre(-3, p) == 1


def test_a_p():
    assert a_p(13) == 1 and a_p(11) == 2 and a_p(7) == 4


def test_a_p_rejects_a_wrong_legendre_symbol(monkeypatch):
    # (-1/7) = 1 in place of -1 gives a_7 = 1, against 4 for p = 7 mod 8
    monkeypatch.setattr(modeq, "legendre", lambda a, p: 1)
    with pytest.raises(VerificationError, match="a_p = 1 disagrees with p mod 8 at p=7"):
        a_p(7)


def test_build_k5p_101():
    from hasse5.classno import h5l

    k = build_k5p(101)
    assert all(e in (2, 4) for _, e in k)  # 101 is in the exceptional set
    assert sum((len(c) - 1) * e for c, e in k) == a_p(101) * h5l(101)


def test_build_k5p_needs_large_p():
    with pytest.raises(ValueError):
        build_k5p(13)


def test_build_k5p_multiplicity_search_is_bounded(monkeypatch):
    # with every derivative past D_0 zero, no i <= 6 leaves a factor: an error, not a loop
    rows = modeq._hasse_rows
    monkeypatch.setattr(modeq, "_hasse_rows", lambda i: rows(i) if i == 0 else ())
    error = "a factor of gcd(ss_p, Phi5(x^p, x)) divides D_Y^6 Phi5(x^p, x) = 1 at p=383"
    with pytest.raises(VerificationError, match=re.escape(error)):
        build_k5p(383)


def test_verify_101():
    rep = verify_class_equation(101)
    assert rep["structure_ok"] and rep["identity_holds"]
    assert rep["degree"] == rep["a_p"] * rep["h_minus_5p"]


def test_verify_383():
    rep = verify_class_equation(383)
    assert rep["structure_ok"] and rep["identity_holds"]


def test_379_anomaly():
    rep = verify_class_equation(379)
    assert not rep["structure_ok"] and not rep["identity_holds"]
    assert any("(51, 114, 1)" in m and "found 6" in m for m in rep["mismatches"])
    assert dict(build_k5p(379)) == dict(refdata.K379_FACTORS)


def test_top_hasse_derivative_of_phi5_is_one():
    # Phi5 is monic of degree 6 in its second variable, which bounds build_k5p's search
    assert modeq._hasse_rows(6) == ((1,),)
    assert modeq._hasse_rows(7) == ()


@pytest.mark.parametrize("p", [23, 101, 379])
def test_hasse_rows_at_x_p_are_the_derivatives_of_phi5_xp_x(p):
    # Lucas: C(pa + b, i) = C(b, i) mod p for b, i <= 6 < p
    phi = phi5_xp_x(p)
    for i in range(7):
        want = mp.trim([comb(k, i) * c % p for k, c in enumerate(phi)][i:])
        got = [0] * (6 * p + 7)
        for a, row in enumerate(modeq._hasse_rows(i)):
            for b, c in enumerate(row):
                got[p * a + b] = (got[p * a + b] + c) % p
        assert mp.trim(got) == want, (p, i)


def test_fd_printed_f11():
    Q, f = fd_split(11)
    assert Q == Poly([1, -4, 46, 4, 1])
    assert f == Poly([1, -32, 300, -32, -8026, 32, 300, 32, 1])


def test_fd_printed_f20():
    # the two printed factors of F_20
    Q, f = fd_split(20)
    assert Q == Poly([1, -22, -6, 22, 1])
    cofactor = Poly(
        [1, -50, 1150, -14550, 118525, -1746272, 34835400, -376573200, 1950875650,
         -4311023700, 2400976244, 4311023700, 1950875650, 376573200, 34835400,
         1746272, 118525, 14550, 1150, 50, 1]
    )
    assert f == cofactor


def test_fd_printed_f24_pipeline():
    # F_24 = Q_24 f_24 with the printed degree-8 and degree-16 factors, and the
    # printed remainder data A_24, B_24
    Q, f = fd_split(24)
    assert Q == Poly([1, 12, 16, -3156, 16878, 3156, 16, -12, 1])
    assert f[16] == 1 and f[15] == 84 and f[0] == 1 and f[1] == -84
    A, B = cofactor_remainder(24)
    assert A == Poly([0, -86966784, 36376128, -4646880, 280932, -9050, 150, -1])
    assert B == Poly([43877376, -134106624, 178683408, -31830180, 2295377, -83550, 1525, -11])


def test_qd_poly_rejects_a_conjugate_product_that_is_not_integral(monkeypatch):
    # a = 1/2 + 6 sqrt(-3) in place of -6 + 6 sqrt(-3)
    monkeypatch.setitem(modeq.GD_PARAM_QUAD, 24, (-3, Fraction(1, 2), 6))
    with pytest.raises(NonExactSplit, match="the conjugate product of g_24 is not integral"):
        qd_poly(24)


def test_fd_split_rejects_a_q_that_does_not_divide(monkeypatch):
    # a = -6 + 7 sqrt(-3): Q_24 is still integral but no longer divides F_24
    monkeypatch.setitem(modeq.GD_PARAM_QUAD, 24, (-3, -6, 7))
    with pytest.raises(NonExactSplit, match="Q_24 does not divide F_24"):
        fd_split(24)


def test_cofactor_resultants_fast_cases():
    for d in (11, 16, 19, 20, 24):
        assert cofactor_resultant(d) == refdata.RESULTANT_RD[d]


def test_qd_disc_vs_table():
    for d, want in refdata.DISC_QD.items():
        got = qd_disc(d)
        if d == 51:
            assert got == refdata.DISC_QD_51_CORRECTED
            assert got == want * 17**4  # printed value omits exactly 17^4
        else:
            assert got == want


def test_table5():
    for d in refdata.DISC_QD:
        assert table5_value(d) == refdata.table5_expected(d)


def test_nonexact_split_detection():
    # perturbing the quartic parameter must break the exact division
    bad = Poly([1, -5, 57, 5, 1])  # a = 5 is not the d = 11 parameter
    F = fd_poly(11)
    with pytest.raises(ArithmeticError):
        _ = F / bad


def test_phi5_xp_x_shape():
    # the x^6-coefficient of Phi5 (as a polynomial in y) is the constant 1,
    # so Phi5(x^p, x) has degree exactly 6p
    p = 23
    f = phi5_xp_x(p)
    assert mp.deg(f) == 6 * p
    # evaluation consistency: Phi5(x^p, x) at x0 equals the bivariate value mod p
    ph = phi5()
    for x0 in (2, 3, 11):
        assert mp.eval_at(f, x0, p) == ph.eval(pow(x0, p, p), x0) % p


def test_factored_reference_values_reconstruct():
    # spot check that refdata entries factor back as stated: R(24) = -2^47 * (odd)
    r = refdata.RESULTANT_RD[24]
    assert r < 0 and r % 2**47 == 0 and r % 2**48 != 0


def test_sporadic_factors_detected_at_predicted_primes():
    # quadratic factors of H_-84 / H_-96 dividing the class equation only to
    # the second power occur exactly where the norm analysis places them
    expect84 = {389, 397, 401, 409}
    expect96 = {397, 401, 421, 449}
    for p in sorted(expect84 | expect96):
        rep = verify_class_equation(p)
        assert rep["structure_ok"] and rep["identity_holds"]
        notes = " ".join(rep["sporadic_notes"])
        assert ("H_-84" in notes) == (p in expect84), (p, notes)
        assert ("H_-96" in notes) == (p in expect96), (p, notes)


def test_verify_matches_factoring_oracle():
    for p in sorted(refdata.S_SET) + [379] + primes_in(380, 700):
        assert verify_class_equation(p) == k5p_report_by_factoring(p), p


def test_verify_outside_validity_range_matches_factoring_oracle():
    # the mismatch texts may differ here (the one-pass route reports a repeated
    # factor of H_-84 or H_-96 mod p as absent degree); the verdicts may not
    fields = ("structure_ok", "identity_holds", "matched", "leftovers", "sporadic_notes")
    for p in primes_in(23, 378):
        if p not in refdata.S_SET:
            new, old = verify_class_equation(p), k5p_report_by_factoring(p)
            assert [new[f] for f in fields] == [old[f] for f in fields], p


@pytest.mark.heavy
def test_verify_matches_factoring_oracle_to_2000():
    for p in primes_in(701, 2000):
        assert verify_class_equation(p) == k5p_report_by_factoring(p), p


def test_every_mismatch_kind_fires(monkeypatch):
    # outside the validity range, at 43: H_-84 = H_-96 = (x + 2)^2 (x^2 + 19x + 16) mod 43
    assert verify_class_equation(43)["mismatches"][:2] == [
        "H_-84 mod 43 is not a product of two irreducible quadratics",
        "H_-96 mod 43 is not a product of two irreducible quadratics",
    ]
    # at 499, where H_-20, H_-4 and the quadratic H_-24..H_-91 are flagged: drop one factor
    # of H_-20, give one of H_-4 multiplicity 6 and a leftover multiplicity 4,
    # and add a cubic and a quadratic off Q5 = 0
    p = 499
    real = build_k5p(p)
    rep = verify_class_equation(p)
    h20 = next(tuple(c) for c, _, d in rep["matched"] if d == 20)
    h4 = next(tuple(c) for c, _, d in rep["matched"] if d == 4)
    left = (rep["leftovers"][0][1], rep["leftovers"][0][0], 1)
    bent = {c: 6 if c == h4 else 4 if c == left else m for c, m in real if c != h20}
    bent.update({(1, 0, 0, 1): 2, (1, 1, 1): 2})
    monkeypatch.setattr(modeq, "build_k5p", lambda p: sorted(bent.items(), key=lambda t: (len(t[0]), t[0])))
    got = verify_class_equation(p)["mismatches"]
    assert got == [
        f"factor {h4} (d=4): expected multiplicity 4, found 6",
        "leftover (1, 1, 1): Q5(a, b) != 0 mod p",
        f"leftover {left}: multiplicity 4 != 2",
        "leftover factor (1, 0, 0, 1) is not quadratic",
        "predicted factors of H_-20 mod 499 absent: degree 1 of 2 found",
        f"deg K_5p = {rep['degree'] - 2 + 2 + 4 + 6 + 4} != a_p h(-5p) = {rep['degree']}",
    ]


def test_verify_factors_g_only(monkeypatch):
    # no factorization runs (factor_ff raises if called): the split sees the
    # linear factors of g = gcd(ss_p, Phi5(x^p, x)) that _certify returns and
    # its quadratic part Q, and nothing else, no class
    # polynomial is factored, also where H_-20, H_-84 or H_-96 is flagged, and
    # the reports still match the factor-and-match oracle
    from hasse5 import ffactor
    from hasse5.hasse import build_ss

    def no_factoring(*args):
        raise AssertionError("factor_ff called")

    primes = [379, 383, 389, 397, 401, 409, 421, 449]
    assert all(any(epsilon_flags(p)[d] for p in primes) for d in (20, 84, 96))
    want = {p: k5p_report_by_factoring(p) for p in primes}
    pieces = []
    certify, quadratic = modeq._certify, modeq._quadratic_factors

    def certify_and_record(g, p):
        lins, quad = certify(g, p)
        pieces.extend(lins)
        return lins, quad

    monkeypatch.setattr(modeq, "_certify", certify_and_record)
    monkeypatch.setattr(modeq, "_quadratic_factors", lambda f, Xf, p: pieces.append(f) or quadratic(f, Xf, p))
    monkeypatch.setattr(ffactor, "factor_ff", no_factoring)
    assert not hasattr(modeq, "factor_ff")
    for p in primes:
        pieces.clear()
        assert verify_class_equation(p) == want[p], p
        assert _product(pieces, p) == mp.gcd(build_ss(p), phi5_xp_x(p), p), p


def test_build_k5p_runs_one_horner_and_one_table_per_prime(monkeypatch):
    # Phi5(X, x) is reduced mod ss_p by one Horner in X, and every factor's
    # multiplicity is read off one table of D_0, ..., D_6 at the factors'
    # roots; the per-factor evaluations of Phi5's rows are a test oracle only.
    # X = x^p mod ss_p is the one square-and-multiply of a prime, on the same
    # Barrett context for ss_p as the Horner; the certificate runs no power
    # (the quadratic split builds its own context, mod Q), and the one
    # remainder that K_5p's stages take by any modulus but ss_p is X mod Q
    from hasse5.hasse import build_ss

    moduli, tables, contexts, powers, xs, rems = [], [], [], [], [], []
    phi5_mod, table = modeq._phi5_mod, modeq._hasse_nonzero
    mulmod_by, power, rem = mp.mulmod_by, mp._power, mp.rem

    def phi5_mod_and_record(m, p):
        moduli.append(list(m))
        out = phi5_mod(m, p)
        xs.append(out[0])
        return out

    def rem_and_record(a, b, p):
        if sys._getframe(1).f_globals is modeq.__dict__ and list(b) != moduli[-1]:
            rems.append(list(a))
        return rem(a, b, p)

    monkeypatch.setattr(modeq, "_phi5_mod", phi5_mod_and_record)
    monkeypatch.setattr(modeq, "_hasse_nonzero", lambda fs, p: tables.append(sorted(map(tuple, fs))) or table(fs, p))
    monkeypatch.setattr(mp, "mulmod_by", lambda m, p: contexts.append(list(m)) or mulmod_by(m, p))
    monkeypatch.setattr(mp, "_power", lambda mulmod, times_x, x, e: powers.append(e) or power(mulmod, times_x, x, e))
    monkeypatch.setattr(mp, "rem", rem_and_record)
    assert not hasattr(modeq, "_eval_rows")
    for p in (379, 383, 389, 401):
        for calls in (moduli, tables, contexts, powers, xs, rems):
            calls.clear()
        k5p = build_k5p(p)
        assert moduli == [build_ss(p)], p
        assert tables == [sorted(q for q, _ in k5p)], p
        assert contexts.count(build_ss(p)) == 1 and powers == [p], p
        assert rems == xs, p


def _check_k5p_against_row_oracle(primes):
    """build_k5p's multiplicities against one evaluation of Phi5's rows per
    factor and per Hasse derivative, and x^p and Phi5(x^p, x) mod ss_p
    against list square-and-multiply and Horner over Phi5's integer rows on
    lists."""
    from hasse5.hasse import build_ss

    for p in primes:
        k5p = build_k5p(p)
        assert [m for _, m in k5p] == k5p_multiplicities_by_rows([list(q) for q, _ in k5p], p), p
        ss = build_ss(p)
        X = pow_mod_by_squaring([0, 1], p, ss, p)
        assert modeq._phi5_mod(ss, p) == (X, eval_rows(modeq._hasse_rows(0), X, ss, p)), p


def test_build_k5p_matches_row_oracle():
    # S's primes > 20, the anomaly at 379 and every prime of k5p-700's range
    _check_k5p_against_row_oracle(sorted(p for p in refdata.S_SET if p > 20) + [379] + primes_in(380, 700))


@pytest.mark.heavy
def test_build_k5p_matches_row_oracle_to_2000():
    _check_k5p_against_row_oracle(primes_in(701, 2000))


# the primes on either side of mp._np_ok(49, p), past which the table of
# _hasse_nonzero raises rather than leave int64
NP_OK_49_LAST, NP_OK_49_FIRST_NOT = 306783353, 306783397


def test_np_ok_49_boundary_primes():
    from hasse5.intfactor import is_prime

    assert is_prime(NP_OK_49_LAST) and is_prime(NP_OK_49_FIRST_NOT)
    assert not any(map(is_prime, range(NP_OK_49_LAST + 1, NP_OK_49_FIRST_NOT)))
    assert mp._np_ok(49, NP_OK_49_LAST) and not mp._np_ok(49, NP_OK_49_FIRST_NOT)


@pytest.mark.parametrize("p", [7, 1499, NP_OK_49_LAST, NP_OK_49_FIRST_NOT, 2**61 - 1])
def test_hasse_table_and_horner_match_row_oracle_on_both_dtypes(p):
    # on both sides of the int64 bounds (the name dates from a Python-int
    # fallback past them): inside them the table and Horner mod m match the
    # row oracle, past them they raise.  Synthetic factors, as build_k5p needs p > 20 and ss_p
    # of degree about p/12: H_-4, H_-11, H_-16, H_-19, and the H_-d of QUAD_D
    # irreducible mod p, where D_0 = Phi5(beta^p, beta) vanishes, and random
    # linear and irreducible quadratic factors, where it need not
    import random

    rng = random.Random(p)
    cm = [mp.from_int_poly(HD[d], p) for d in (4, 11, 16, 19)]
    cm += [mp.from_int_poly(HD[d], p) for d in modeq.QUAD_D if legendre(discriminant(hd_poly(d)), p) == -1]
    factors = cm + [[rng.randrange(p), 1] for _ in range(4)] + _irreducible_quadratics(p, 4, rng)
    if mp._np_ok(49, p):
        got = modeq._hasse_nonzero(factors, p)
        assert got.tolist() == hasse_nonzero_by_rows(factors, p)
        assert got[0].any() and not got[0].all()
    else:
        with pytest.raises(ValueError, match=re.escape(f"p={p} is too large for int64 sums of 49 products")):
            modeq._hasse_nonzero(factors, p)
    # x^p and Phi5(x^p, x) mod m, also for a modulus of degree below Phi5's 7 rows
    for n in (3, 12):
        m = [rng.randrange(p) for _ in range(n)] + [1]
        if mp._np_ok(n + 1, p):
            X = pow_mod_by_squaring([0, 1], p, m, p)
            assert modeq._phi5_mod(m, p) == (X, eval_rows(modeq._hasse_rows(0), X, m, p)), n
        else:
            with pytest.raises(ValueError, match="too large"):
                modeq._phi5_mod(m, p)


def test_build_k5p_rejects_a_factor_where_phi5_does_not_vanish(monkeypatch):
    # x^2 + x + 1, irreducible mod 383, does not divide Phi5(x^383, x), so it
    # is no factor of g: D_0 = Phi5(beta^p, beta) is nonzero at its root
    p = 383
    assert legendre(-3, p) == -1 and mp.rem(phi5_xp_x(p), [1, 1, 1], p)
    quadratic = modeq._quadratic_factors
    monkeypatch.setattr(modeq, "_quadratic_factors", lambda f, Xf, p: quadratic(f, Xf, p) + [[1, 1, 1]])
    error = "Phi5(x^p, x) does not vanish at a root of a factor of gcd(ss_p, Phi5(x^p, x)) at p=383"
    with pytest.raises(VerificationError, match=re.escape(error)):
        build_k5p(p)


def _product(factors, p: int) -> list[int]:
    out = [1]
    for f in factors:
        out = mp.mul(out, list(f), p)
    return out


def _split(piece: list[int], d: int, X: list[int], p: int) -> list[list[int]]:
    """The factors of degree d of a piece, for X = x^p mod a multiple of it:
    for d = 1 the linear factors that ``_certify`` returns, with no quadratic
    part left."""
    if d == 1:
        lins, quad = modeq._certify(piece, p)
        assert quad == [1], (piece, quad)
        return lins
    return modeq._quadratic_factors(piece, mp.rem(X, piece, p), p)


def _irreducible_quadratics(p: int, n: int, rng) -> list[list[int]]:
    out = set()
    while len(out) < n:
        b, c = rng.randrange(p), rng.randrange(p)
        if legendre(b * b - 4 * c, p) == -1:
            out.add((c, b, 1))
    return [list(q) for q in sorted(out)]


@pytest.mark.parametrize("p", [23, 101, 379, 1999])
def test_split_matches_factor_ff(p):
    # synthetic products of distinct monic linear and irreducible quadratic
    # factors, in pieces of one, four and seven factors and an empty piece
    import random

    from hasse5.ffactor import factor_ff

    rng = random.Random(p)
    lins = [[r, 1] for r in rng.sample(range(p), 12)]
    quads = _irreducible_quadratics(p, 12, rng)
    for d, factors in ((1, lins), (2, quads)):
        pieces = [_product(chunk, p) for chunk in (factors[:1], factors[1:5], factors[5:], [])]
        X = mp.pow_mod([0, 1], p, _product(pieces, p), p)
        got = [_split(piece, d, X, p) for piece in pieces]
        assert got[-1] == []  # the empty piece
        for piece, split in zip(pieces, got):
            want = factor_ff(piece, p).factors
            assert sorted(split) == [list(c) for c, m in want] and all(m == 1 for _, m in want), (p, d, piece)


def _quadratic(c: int, b: int, p: int) -> list[int]:
    """x^2 - c x + b, irreducible over F_p."""
    assert legendre(c * c - 4 * b, p) == -1, (c, b, p)
    return [b, -c % p, 1]


@pytest.mark.parametrize(
    "pairs, sweeps",
    [
        ([(1, 1), (1, 2)], 2),  # one trace: lambda = 0 leaves v_1 = v_2
        ([(1, 2), (4, 2)], 1),  # one norm: lambda = 0 separates the traces
        ([(1, 1), (1, 2), (4, 2), (3, 3)], 3),  # c + b = 6 twice as well: lambda = 2
    ],
    ids=["one-trace", "one-norm", "lambda-2"],
)
def test_split_separates_quadratics_of_one_trace_or_one_norm(monkeypatch, pairs, sweeps):
    # the factors x^2 - c x + b take the values v = c + lambda b; every lambda
    # tried sweeps R_V once, and a lambda with a repeated v is passed over
    p = 101
    quads = [_quadratic(c, b, p) for c, b in pairs]
    piece = _product(quads, p)
    calls = []
    roots = modeq._roots
    monkeypatch.setattr(modeq, "_roots", lambda f, p: calls.append(f) or roots(f, p))
    assert sorted(modeq._quadratic_factors(piece, mp.pow_mod([0, 1], p, piece, p), p)) == sorted(quads)
    assert len(calls) == sweeps


def test_split_runs_no_pow_mod_and_no_gcd(monkeypatch):
    p = 379
    lins = [[1, 1], [2, 1], [3, 1]]
    quads = [_quadratic(c, b, p) for c, b in ((1, 5), (2, 2), (3, 7))]
    X = mp.pow_mod([0, 1], p, _product(lins + quads, p), p)

    def forbidden(*args):
        raise AssertionError("pow_mod or gcd called")

    monkeypatch.setattr(mp, "pow_mod", forbidden)
    monkeypatch.setattr(mp, "gcd", forbidden)
    assert sorted(_split(_product(lins, p), 1, X, p)) == sorted(lins)
    assert sorted(_split(_product(quads, p), 2, X, p)) == sorted(quads)
    # the certificate of a piece with both shapes runs neither either
    got_lins, quad = modeq._certify(_product(lins + quads, p), p)
    assert sorted(got_lins) == sorted(lins) and quad == _product(quads, p)


@pytest.mark.parametrize(
    "factors, d, error",
    [
        ([[2, 0, 0, 0, 1]], 2, "no lambda < 2 separates the quadratic factors of a degree-4 piece at p=101"),
        ([[1, 1], [2, 1], [3, 1], [4, 1]], 2, "quadratic factors found do not multiply to the degree-4 piece at p=101"),
        ([[5, 1]], 2, "quadratic factors found do not multiply to the degree-1 piece at p=101"),
        ([[2, 0, 1], [1, 1]], 2, "quadratic factors found do not multiply to the degree-3 piece at p=101"),
    ],
    ids=["no-separating-lambda", "no-product-match", "odd-degree-1", "odd-degree-3"],
)
def test_split_rejects_a_piece_that_is_not_a_product_of_degree_d_factors(factors, d, error):
    # x^4 + 2, irreducible over F_101, (x + 1)(x + 2)(x + 3)(x + 4), x + 5 and
    # (x^2 + 2)(x + 1), all with d = 2
    p = 101
    piece = _product(factors, p)
    with pytest.raises(VerificationError, match=error):
        _split(piece, d, mp.pow_mod([0, 1], p, piece, p), p)


# A cubic factor of Phi5(x^383, x), irreducible over F_383.
CUBIC_383 = [19, 275, 164, 1]


def test_cubic_383_is_an_irreducible_factor_of_phi5_xp_x():
    assert not mp.rem(phi5_xp_x(383), CUBIC_383, 383)
    assert all(mp.eval_at(CUBIC_383, c, 383) for c in range(383))


@pytest.mark.parametrize(
    "p, extra, error",
    [
        # a linear factor of multiplicity 4 in K_5p
        (383, [6, 1], "repeated factor at p=383"),
        # the quadratic of multiplicity 6
        (379, [51, 114, 1], "no lambda < 79 separates the quadratic factors of a degree-26 piece at p=379"),
        (383, CUBIC_383, "the quadratic factors found do not multiply to the degree-9 piece at p=383"),
    ],
    # each id names the factor planted in ss_p, not the message it raises
    ids=[
        "383-extra0-repeated factor at p=383",
        "379-extra1-repeated factor at p=379",
        "383-extra2-factor of degree > 2 at p=383",
    ],
)
def test_build_k5p_certifies_g(monkeypatch, p, extra, error):
    # ss_p times a factor of Phi5(x^p, x): g takes it too, squared or cubic
    from hasse5.hasse import build_ss

    monkeypatch.setattr(modeq, "build_ss", lambda p: mp.mul(build_ss(p), extra, p))
    with pytest.raises(VerificationError, match=re.escape(error)):
        build_k5p(p)


@pytest.mark.parametrize(
    "p, factors, error, oracle_error",
    [
        # (x + 1)^2 (x + 2)
        (101, [[1, 1], [1, 1], [2, 1]], "repeated factor at p=101", "repeated factor at p=101"),
        # (x + 1)^2 (x^2 + 2)
        (101, [[1, 1], [1, 1], [2, 0, 1]], "repeated factor at p=101", "repeated factor at p=101"),
        # (x^2 + 2)^2 (x + 1)
        (
            101,
            [[2, 0, 1], [2, 0, 1], [1, 1]],
            "no lambda < 2 separates the quadratic factors of a degree-4 piece at p=101",
            "repeated factor at p=101",
        ),
        (
            383,
            [CUBIC_383, [1, 1]],
            "the quadratic factors found do not multiply to the degree-3 piece at p=383",
            "factor of degree > 2 at p=383",
        ),
    ],
    ids=["linear-squared", "linear-squared-with-quadratic", "quadratic-squared", "cubic"],
)
def test_certify_rejects_what_the_gcd_oracle_rejects(p, factors, error, oracle_error):
    # a repeated linear factor leaves a root of g in Q; a repeated quadratic
    # leaves R_V a repeated root at every lambda, and a cubic Q has odd
    # degree; the oracle finds both by Q not dividing x^(p^2) - x
    g = _product(factors, p)
    X = mp.pow_mod([0, 1], p, g, p)
    with pytest.raises(VerificationError, match=re.escape(error)):
        # the certificate as build_k5p runs it
        lins, quad = modeq._certify(g, p)
        modeq._quadratic_factors(quad, mp.rem(X, quad, p), p)
    with pytest.raises(VerificationError, match=re.escape(oracle_error)):
        certify_by_gcd(g, X, p)


def test_quadratic_split_rejects_a_repeated_factor_found(monkeypatch):
    # a sweep that reports the first root of R_V for every root gives the
    # same quadratic m times; g has no root in F_389, so its own sweep is
    # left as it is
    p = 389
    roots = modeq._roots
    monkeypatch.setattr(modeq, "_roots", lambda f, p: (lambda r: r[:1] * len(r))(roots(f, p)))
    error = "the quadratic factors found for the degree-8 piece are not distinct at p=389"
    with pytest.raises(VerificationError, match=re.escape(error)):
        build_k5p(p)


def _check_certify_against_gcd_oracle(monkeypatch, primes):
    """_certify on the g that build_k5p passes it, against the two gcds with
    x^p - x that its root sweep replaced and the power x^(p^2) mod Q that its
    certificate no longer takes, on x^p mod g found here by ``pow_mod``: the
    same linear factors in the same order and the same Q, and the x^p mod Q
    that build_k5p passes to _quadratic_factors."""
    args = []
    certify, quadratic = modeq._certify, modeq._quadratic_factors
    monkeypatch.setattr(modeq, "_certify", lambda g, p: args.append(g) or certify(g, p))
    monkeypatch.setattr(modeq, "_quadratic_factors", lambda f, Xf, p: args.append(Xf) or quadratic(f, Xf, p))
    for p in primes:
        args.clear()
        build_k5p(p)
        g, XQ = args
        X = mp.pow_mod([0, 1], p, g, p)
        lins, quad = certify_by_gcd(g, X, p)
        assert certify(g, p) == (lins, quad), p
        assert XQ == mp.rem(X, quad, p), p


def test_certify_matches_gcd_oracle(monkeypatch):
    # every prime 23..700, so S's primes > 20, the anomaly at 379 and k5p-700's range
    _check_certify_against_gcd_oracle(monkeypatch, primes_in(23, 700))


@pytest.mark.heavy
def test_certify_matches_gcd_oracle_to_2000(monkeypatch):
    _check_certify_against_gcd_oracle(monkeypatch, primes_in(701, 2000))


def test_build_k5p_checks_the_sweep_bound_before_ss_p(monkeypatch):
    # 2147483659 is the first prime with 2 p^2 >= 2^63: build_k5p raises
    # before it builds ss_p and powers x mod ss_p, not at the root sweep
    p = 2147483659
    assert is_prime(p) and 2 * p * p >= 2**63
    for stage in ("build_ss", "_phi5_mod"):
        monkeypatch.setattr(modeq, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran past the sweep bound"))
    with pytest.raises(ValueError, match=re.escape(f"l={p} is too large for the int64 divisibility sweep of width 1")):
        build_k5p(p)


# the primes on either side of mp._np_ok(2 (p // 12) + 2, p), the bound of
# the Newton inverse in _quadratic_factors for a factor of ss_p, of degree
# at most p//12 + 2
K5P_PRODUCTS_LAST, K5P_PRODUCTS_FIRST_NOT = 3024607, 3024617


def test_build_k5p_checks_the_product_bound_before_any_o_p_stage(monkeypatch):
    # inside the sweep bound 2 p^2 < 2^63 but past the product bound, build_k5p
    # raises before ss_p, x^p mod ss_p and the class number; at the last prime
    # inside it, the check passes
    last, p = K5P_PRODUCTS_LAST, K5P_PRODUCTS_FIRST_NOT
    assert is_prime(last) and is_prime(p) and not any(map(is_prime, range(last + 1, p)))
    k = 2 * (p // 12) + 2
    assert mp._np_ok(2 * (last // 12) + 2, last) and not mp._np_ok(k, p) and 2 * p * p < 2**63
    assert modeq.check_bounds(last) is None
    for stage in ("h5l", "build_ss", "_phi5_mod"):
        monkeypatch.setattr(modeq, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran past the product bound"))
    with pytest.raises(ValueError, match=re.escape(f"p={p} is too large for int64 sums of {k} products")):
        build_k5p(p)
    with pytest.raises(ValueError, match="too large"):
        modeq.verify_class_equation(p)


@pytest.mark.parametrize("p", [379, 383, 389, 401])
def test_build_k5p_runs_one_gcd_and_sweeps_g_for_its_roots(monkeypatch, p):
    # g = gcd(ss_p, Phi5(X, x)) is the only Euclid chain of a prime that
    # passes, and its linear factors come from one root sweep of g itself
    gcds, swept = [], []
    gcd, roots = mp.gcd, modeq._roots
    monkeypatch.setattr(mp, "gcd", lambda f, g, p: gcds.append(gcd(f, g, p)) or gcds[-1])
    monkeypatch.setattr(modeq, "_roots", lambda f, p: swept.append(f) or roots(f, p))
    build_k5p(p)
    assert len(gcds) == 1
    assert swept[0] == gcds[0]


def _check_k5p_against_census_hits(primes):
    """prod q^m over build_k5p against the j-images of the census's conic
    hits on the fold, which use no Phi5 and no ss_p: every factor and every
    multiplicity."""
    for p in primes:
        assert _product([q for q, m in build_k5p(p) for _ in range(m)], p) == k5p_by_census_hits(p), p


def test_build_k5p_matches_census_hits_oracle():
    # every prime 23..1000, the anomaly at 379 included
    _check_k5p_against_census_hits(primes_in(23, 1000))


@pytest.mark.heavy
def test_build_k5p_matches_census_hits_oracle_to_2000():
    _check_k5p_against_census_hits(primes_in(1001, 2000))


@pytest.mark.heavy
def test_build_k5p_matches_division_oracle():
    for p in sorted(refdata.S_SET) + [379] + primes_in(380, 700):
        assert build_k5p(p) == k5p_by_division(p), p


@pytest.mark.heavy
def test_build_k5p_matches_division_oracle_to_2000():
    # every 10th prime past the range above, and the last below 2000
    for p in primes_in(701, 2000)[::10] + [1999]:
        assert build_k5p(p) == k5p_by_division(p), p
