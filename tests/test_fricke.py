import pytest

from hasse5 import fricke, modpoly as mp
from hasse5.fp import FqElem, make_extension
from hasse5.fricke import (
    FrickeReport,
    L5star_formula,
    RootOutsideQuadraticField,
    _fricke_values_from_R5,
    build_ss5star,
    degree_formula,
    frobenius_stable,
    section7_identities,
    section7_identity_disc,
    section7_identity_res_t,
    section7_identity_res_z,
    supersingular_j_fp2,
    verify_fricke,
    zparam_cross_check,
)
from hasse5.intfactor import primes_in


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
        assert rep.degree_found == deg and rep.linear_found == lin
        assert rep.match


def test_root_outside_fp2_is_rejected(monkeypatch):
    # 2 is not a cube mod 7, so x^3 - 2 is irreducible and its roots lie in
    # F_(7^3), not in F_(7^2)
    monkeypatch.setattr(fricke, "build_ss5star", lambda p: [5, 0, 0, 1])
    with pytest.raises(RootOutsideQuadraticField):
        verify_fricke(7)


def test_root_of_R5_outside_fp2_is_rejected(monkeypatch):
    # the one supersingular j at p = 7 is 6; this R5_C makes
    # R5(6, Y) = Y^3 (Y^3 - 2), and 2 is not a cube in F_49
    js = supersingular_j_fp2(7)
    assert [j.coords for j in js] == [(6, 0)]
    c = [g + 6 * b for g, b in zip((-36, 0, 0, -2, 0, 0, 1), fricke.R5_B + (0,))]
    monkeypatch.setattr(fricke, "R5_C", tuple(c))
    with pytest.raises(RootOutsideQuadraticField):
        _fricke_values_from_R5(7, js)


def test_supersingular_count():
    from hasse5.hasse import build_ss

    for p in primes_in(7, 60):
        js = supersingular_j_fp2(p)
        assert len(js) == mp.deg(build_ss(p))


def test_zparam_cross_check_sample():
    for p in primes_in(7, 60):
        assert zparam_cross_check(p)


def test_frobenius_stability_sample():
    for p in primes_in(7, 60):
        assert frobenius_stable(p)


def test_section7_identities():
    assert section7_identity_disc()
    assert section7_identity_res_t()
    assert section7_identity_res_z()
    assert section7_identities()


def test_report_fields():
    rep = verify_fricke(13)
    assert isinstance(rep, FrickeReport)
    d = rep.to_dict()
    assert d["degree_found"] == 4 and d["linear_found"] == 2 and d["match"]


def _check_against_fp2_route(p):
    # the j5* values found in F_(p^2) from the supersingular j are deg f
    # distinct roots of the monic f, so they are its roots, each simple; its
    # linear factors are its roots in F_p
    f = build_ss5star(p)
    fld = make_extension(p, 2)
    values = _fricke_values_from_R5(p, supersingular_j_fp2(p))
    assert len(values) == mp.deg(f), p
    for v in values:
        acc = fld.zero()
        for c in reversed(f):
            acc = acc * FqElem(fld, v) + c
        assert acc.is_zero(), (p, v)
    linear = sum(1 for x in range(p) if mp.eval_at(f, x, p) == 0)
    assert verify_fricke(p).linear_found == linear, p


def test_ss5star_matches_fp2_route():
    for p in primes_in(7, 199):
        _check_against_fp2_route(p)


@pytest.mark.heavy
def test_ss5star_matches_fp2_route_to_1000():
    # every 10th prime past the range above, and the last below 1000
    for p in primes_in(200, 1000)[::10] + [997]:
        _check_against_fp2_route(p)
