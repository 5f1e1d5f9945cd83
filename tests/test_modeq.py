import pytest

from hasse5 import modpoly as mp, refdata
from hasse5.intfactor import factor_integer, primes_in
from hasse5.modeq import (
    HD,
    NonExactSplit,
    Q5,
    StructureMismatch,
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
from hasse5.poly import Poly, discriminant
from oracles import k5p_by_division


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


def test_disc_hd_printed():
    for d, want in refdata.DISC_HD.items():
        assert discriminant(hd_poly(d)) == want


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


def test_build_k5p_101():
    from hasse5.classno import h5l

    k = build_k5p(101)
    assert all(e in (2, 4) for _, e in k)  # 101 is in the exceptional set
    assert sum((len(c) - 1) * e for c, e in k) == a_p(101) * h5l(101)


def test_build_k5p_needs_large_p():
    with pytest.raises(ValueError):
        build_k5p(13)


def test_verify_101():
    rep = verify_class_equation(101)
    assert rep.structure_ok and rep.identity_holds
    assert rep.degree == rep.a_p * rep.h5p


def test_verify_383():
    rep = verify_class_equation(383)
    assert rep.structure_ok and rep.identity_holds


def test_verify_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_class_equation(211)  # prime < 379 not in the exceptional set


def test_379_anomaly():
    rep = verify_class_equation(379, force=True)
    assert not rep.structure_ok and not rep.identity_holds
    assert any("(51, 114, 1)" in m and "found 6" in m for m in rep.mismatches)
    assert dict(build_k5p(379)) == dict(refdata.K379_FACTORS)


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
    # spot check that refdata entries factor back as stated
    f = factor_integer(refdata.RESULTANT_RD[24], trial_bound=10**6)
    assert f.unit == -1 and f.factors[0] == (2, 47)


def test_sporadic_factors_detected_at_predicted_primes():
    # quadratic factors of H_-84 / H_-96 dividing the class equation only to
    # the second power occur exactly where the norm analysis places them
    expect84 = {389, 397, 401, 409}
    expect96 = {397, 401, 421, 449}
    for p in sorted(expect84 | expect96):
        rep = verify_class_equation(p)
        assert rep.structure_ok and rep.identity_holds
        notes = " ".join(rep.sporadic_notes)
        assert ("H_-84" in notes) == (p in expect84), (p, notes)
        assert ("H_-96" in notes) == (p in expect96), (p, notes)


@pytest.mark.heavy
def test_build_k5p_matches_division_oracle():
    for p in sorted(refdata.S_SET) + [379] + primes_in(380, 700):
        assert build_k5p(p) == k5p_by_division(p), p


@pytest.mark.heavy
def test_build_k5p_matches_division_oracle_to_2000():
    # every 10th prime past the range above, and the last below 2000
    for p in primes_in(701, 2000)[::10] + [1999]:
        assert build_k5p(p) == k5p_by_division(p), p
