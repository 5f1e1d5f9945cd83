import re

import pytest

from hasse5 import VerificationError, fricke, modpoly as mp
from hasse5.census import _squarefree_hasse
from hasse5.ffactor import FactorList, roots_in
from hasse5.fp import make_extension
from hasse5.fricke import (
    L5star_formula,
    RootOutsideQuadraticField,
    build_ss5star,
    degree_formula,
    section7_identities,
    section7_identity_disc,
    section7_identity_res_t,
    section7_identity_res_z,
    supersingular_j_fp2,
    verify_fricke,
)
from hasse5.intfactor import is_prime, primes_in
from oracles import fricke_by_R5_norm, fricke_values_from_R5, zparam_cross_check


def test_degree_formula_examples():
    assert degree_formula(7) == 2
    assert degree_formula(13) == 4
    assert degree_formula(17) == 5


def test_L5star_examples():
    assert L5star_formula(7) == 2
    assert L5star_formula(11) == 4
    assert L5star_formula(13) == 2


def test_build_ss5star_small():
    f7 = build_ss5star(7)
    assert mp.deg(f7) == 2
    assert sum(1 for x in range(7) if mp.eval_at(f7, x, 7) == 0) == 2
    f47 = build_ss5star(47)
    assert mp.deg(f47) == 12
    assert sum(1 for x in range(47) if mp.eval_at(f47, x, 47) == 0) == 2


def test_verify_rows():
    for p, deg, lin in ((7, 2, 2), (11, 4, 4), (19, 6, 6), (23, 6, 2), (97, 25, 5)):
        rep = verify_fricke(p)
        assert rep["degree_found"] == deg and rep["linear_found"] == lin
        assert rep["match"]


# 2 is not a cube mod 13, so u^3 - 2 is irreducible over F_13 and its roots
# lie in F_(13^3), not in F_(13^2)
CUBIC_13 = [11, 0, 0, 1]
CUBIC_383 = [3, 1, 0, 1]  # no root in F_383, so irreducible: its roots lie in F_(383^3)


def multiply_the_fold(monkeypatch, factor, at):
    """Make ``verify_fricke`` read the census's fold P times factor at p = at,
    with the conic hits of the true P."""
    conic_hits = fricke._conic_hits

    def faulty(l, f):
        P, hits = conic_hits(l, f)
        return (mp.mul(P, factor, l) if l == at else P), hits

    monkeypatch.setattr(fricke, "_conic_hits", faulty)


def test_root_outside_fp2_is_rejected(monkeypatch):
    # the cubic also makes deg P + deg R odd: the containment check must
    # raise before the parity check does
    multiply_the_fold(monkeypatch, CUBIC_13, 13)
    with pytest.raises(RootOutsideQuadraticField, match=re.escape("p=13: P does not divide u^(p^2) - u")):
        verify_fricke(13)
    assert verify_fricke(11)["match"]


def test_root_outside_fp2_is_rejected_on_float_products(monkeypatch):
    # deg P = 190 at 383, past the float threshold: u^(p^2) mod P runs by
    # shifts and float64 products, and must still reject the cubic's roots
    P = fricke._conic_hits(383, _squarefree_hasse(383))[0]
    assert len(P) >= mp._FLOAT_FROM and len(P) * 382**2 < mp._F64_EXACT
    assert all(mp.eval_at(CUBIC_383, x, 383) for x in range(383))
    multiply_the_fold(monkeypatch, CUBIC_383, 383)
    convolve, dtypes = mp.np.convolve, set()
    monkeypatch.setattr(mp.np, "convolve", lambda a, b: dtypes.add(a.dtype.name) or convolve(a, b))
    with pytest.raises(RootOutsideQuadraticField, match=re.escape("p=383: P does not divide u^(p^2) - u")):
        verify_fricke(383)
    assert "float64" in dtypes


def test_unpaired_root_of_the_fold_is_rejected(monkeypatch):
    # u = 0 is in F_13 and is no fixed point of sigma, so P u passes the
    # containment check, and deg P + deg R turns odd
    multiply_the_fold(monkeypatch, [0, 1], 13)
    with pytest.raises(VerificationError, match=re.escape("p=13: deg P + deg gcd(P, u^2 + 22u - 4) is odd: sigma does not pair the roots of P")):
        verify_fricke(13)


def test_verify_fricke_matches_the_R5_norm_route():
    for p in primes_in(7, 300):
        assert verify_fricke(p) == fricke_by_R5_norm(p), p


@pytest.mark.heavy
def test_verify_fricke_matches_the_R5_norm_route_to_1000():
    for p in primes_in(301, 1000):
        assert verify_fricke(p) == fricke_by_R5_norm(p), p


def test_verify_fricke_checks_the_sweep_bound_before_any_o_p_stage(monkeypatch):
    # 1753413059 is the first prime with 3 p^2 >= 2^63: the verdict raises
    # before the Hasse invariant, an O(p) loop, and before the class numbers
    p = 1753413059
    assert 3 * p * p >= 2**63
    for stage in ("_squarefree_hasse", "_conic_hits", "h5l", "h_minus_p"):
        monkeypatch.setattr(fricke, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran past the sweep bound"))
    with pytest.raises(ValueError, match=re.escape(f"l={p} is too large for the int64 divisibility sweep of width 2")):
        fricke.verify_fricke(p)


# the primes on either side of mp._np_ok((p + 1) // 2, p), the bound of the
# products mod P, which has at most (p + 1)/2 coefficients
FRICKE_PRODUCTS_LAST, FRICKE_PRODUCTS_FIRST_NOT = 2097143, 2097169


def test_verify_fricke_checks_the_product_bound_before_any_o_p_stage(monkeypatch):
    # inside the sweep bound 3 p^2 < 2^63 but past the product bound of
    # u^(p^2) mod P, the verdict raises before the Hasse invariant and the
    # class numbers; at the last prime inside it, the check passes
    last, p = FRICKE_PRODUCTS_LAST, FRICKE_PRODUCTS_FIRST_NOT
    assert is_prime(last) and is_prime(p) and not any(map(is_prime, range(last + 1, p)))
    assert mp._np_ok((last + 1) // 2, last) and not mp._np_ok((p + 1) // 2, p) and 3 * p * p < 2**63
    assert fricke.check_bounds(last) is None
    for stage in ("_squarefree_hasse", "_conic_hits", "h5l", "h_minus_p"):
        monkeypatch.setattr(fricke, stage, lambda *args, stage=stage: pytest.fail(f"{stage} ran past the product bound"))
    with pytest.raises(ValueError, match=re.escape(f"p={p} is too large for int64 sums of {(p + 1) // 2} products")):
        fricke.verify_fricke(p)


def test_verify_fricke_builds_no_fricke_polynomial(monkeypatch):
    expected = fricke_by_R5_norm(383)

    def refuse(p):
        raise AssertionError(f"the verdict at p={p} built a polynomial it does not need")

    monkeypatch.setattr(fricke, "build_ss5star", refuse)
    monkeypatch.setattr(fricke, "build_ss", refuse)
    assert verify_fricke(383) == expected and expected["match"]


@pytest.mark.parametrize(
    "p, patch, value, message",
    [
        (13, "h5l", 6, "4 does not divide (1 + (p/5)) h(-p) + h(-5p) = 6 at p=13"),
        (29, "h_minus_p", 7, "4 does not divide (1 + (p/5)) h(-p) + h(-5p) = 22 at p=29"),
        (11, "h5l", 3, "h(-5p) = 3 is odd at p=11"),
    ],
)
def test_L5star_formula_rejects_an_inexact_division(monkeypatch, p, patch, value, message):
    monkeypatch.setattr(fricke, patch, lambda q: value)
    with pytest.raises(VerificationError, match=re.escape(message)):
        L5star_formula(p)


def test_root_of_R5_outside_fp2_is_rejected(monkeypatch):
    # the one supersingular j at p = 7 is 6; this R5_C makes
    # R5(6, Y) = Y^3 (Y^3 - 2), and 2 is not a cube in F_49
    js = supersingular_j_fp2(7)
    assert [j.coords for j in js] == [(6, 0)]
    c = [g + 6 * b for g, b in zip((-36, 0, 0, -2, 0, 0, 1), fricke.R5_B + (0,))]
    monkeypatch.setattr(fricke, "R5_C", tuple(c))
    with pytest.raises(RootOutsideQuadraticField):
        fricke_values_from_R5(7, js)


def test_build_ss5star_rejects_a_norm_that_is_not_monic(monkeypatch):
    # a leading coefficient of (Y^2 + 216Y + 144)^3 that is 1 mod 7 but
    # 10 mod 13: the resultant is no longer monic at p = 13 only
    monkeypatch.setattr(fricke, "R5_C", fricke.R5_C[:-1] + (1 + 7 * 11 * 17,))
    assert mp.deg(build_ss5star(7)) == 2
    with pytest.raises(VerificationError, match=re.escape("p=13: Res_X(ss_p, R5) is not monic of degree 6 deg ss_p")):
        build_ss5star(13)


# ss_37 = (j + 29)(j^2 + 31j + 31) over F_37: one linear and one quadratic factor
SS_37 = (((29, 1), 1), ((31, 31, 1), 1))


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("factor_ff", lambda f, p: FactorList(p, 1, (((29, 1), 2),) + SS_37[1:]), "supersingular polynomial has a repeated factor at p=37"),
        ("roots_in", lambda f, p: [(r, 2) for r, _ in roots_in(f, p)], "repeated root of supersingular factor (31, 31, 1) at p=37"),
        (
            "factor_ff",
            lambda f, p: FactorList(p, 1, ((tuple(mp.mul([29, 1], [31, 31, 1], p)), 1),)),
            "supersingular factor of degree > 2 at p=37",
        ),
    ],
    ids=["repeated-factor", "repeated-root", "cubic"],
)
def test_supersingular_j_fp2_rejects_a_wrong_factorization(monkeypatch, name, fake, message):
    assert fricke.factor_ff(fricke.build_ss(37), 37).factors == SS_37
    monkeypatch.setattr(fricke, name, fake)
    with pytest.raises(VerificationError, match=re.escape(message)):
        supersingular_j_fp2(37)


def test_supersingular_count():
    from hasse5.hasse import build_ss

    for p in primes_in(7, 60):
        js = supersingular_j_fp2(p)
        assert len(js) == mp.deg(build_ss(p))


def test_zparam_cross_check_sample():
    for p in primes_in(7, 60):
        assert zparam_cross_check(p)


@pytest.mark.parametrize(
    "name, value",
    [("ZP_YNUM", (5, 0, 1)), ("ZP_YNUM", (4, 1, 1)), ("ZP_JNUM", (17,) + fricke.ZP_JNUM[1:])],
)
def test_zparam_cross_check_fails_on_a_perturbed_parametrization(monkeypatch, name, value):
    monkeypatch.setattr(fricke, name, value)
    assert not zparam_cross_check(7)


def test_section7_identities():
    assert section7_identity_disc()
    assert section7_identity_res_t()
    assert section7_identity_res_z()
    assert section7_identities()


def test_report_fields():
    d = verify_fricke(13)
    assert d["degree_found"] == 4 and d["linear_found"] == 2 and d["match"]


def _check_against_fp2_route(p):
    # the j5* values found in F_(p^2) from the supersingular j are deg f
    # distinct roots of the monic f, so they are its roots, each simple; its
    # linear factors are its roots in F_p
    f = build_ss5star(p)
    fld = make_extension(p, 2)
    values = fricke_values_from_R5(p, supersingular_j_fp2(p))
    assert len(values) == mp.deg(f), p
    for v in values:
        acc = fld.zero()
        for c in reversed(f):
            acc = acc * fld.elem(v) + c
        assert acc.is_zero(), (p, v)
    linear = sum(1 for x in range(p) if mp.eval_at(f, x, p) == 0)
    assert verify_fricke(p)["linear_found"] == linear, p


def test_ss5star_matches_fp2_route():
    for p in primes_in(7, 199):
        _check_against_fp2_route(p)


@pytest.mark.heavy
def test_ss5star_matches_fp2_route_to_1000():
    # every 10th prime past the range above, and the last below 1000
    for p in primes_in(200, 1000)[::10] + [997]:
        _check_against_fp2_route(p)
