import pytest

from hasse5.icosa import (
    MobiusMap,
    RelationFailure,
    closure,
    coset_maps,
    generators,
    icosa_resultant,
    identity_map,
    norm_to_Q,
    orbit_property,
    p_d,
    q_d,
    resolvent_identities,
    resolvent_theta_identity,
    tau_covariance,
    verify_group_relations,
)
from hasse5.numfield import CycNum


def test_group_relations():
    assert verify_group_relations()


def test_group_orders():
    g = generators()
    assert len(closure([g["S"], g["T"]])) == 60
    assert len(closure([g["S"], g["U"]])) == 10


def test_projective_equality():
    m = MobiusMap(CycNum(2), 0, 0, CycNum(2))
    assert m == identity_map()
    assert hash(m) == hash(identity_map())


def test_singular_rejected():
    with pytest.raises(ValueError):
        MobiusMap(1, 1, 1, 1)


def test_theta_identity():
    assert resolvent_theta_identity()


def test_tau_covariance():
    assert tau_covariance()


def test_resolvent_sampling():
    assert resolvent_identities(11, 20)
    assert resolvent_identities(19, 20)
    assert resolvent_identities(31, 20)


def test_resolvent_rejects_inert():
    with pytest.raises(ValueError):
        resolvent_identities(7, 1)


def test_orbit_property_small():
    assert orbit_property(31, 3)
    assert orbit_property(19, 2)


def test_reduced_representative_denominators():
    # entries/den are integral with no common divisor (norm gcd 1)
    from math import gcd

    for name, m in coset_maps().items():
        quots = [v / m.den for v in (m.a, m.b, m.c, m.d)]
        assert all(all(isinstance(x, int) for x in q.c) for q in quots), name
        g = 0
        for q in quots:
            g = gcd(g, q.norm())
        assert g == 1, name


def test_qd_rational():
    for d in (4, 11, 24):
        q = q_d(d)
        assert q.degree == 4 * p_d(d).degree
        assert all(isinstance(c, int) for c in q.c)


def test_printed_resultant_R_TT():
    from hasse5.icosa import expected_R_TT

    maps = coset_maps()
    assert icosa_resultant(maps["T"], maps["T"]) == expected_R_TT()


def test_norm_of_R_AA():
    from hasse5.icosa import expected_norm_R_AA

    maps = coset_maps()
    n = norm_to_Q(icosa_resultant(maps["A"], maps["A"]))
    assert n == expected_norm_R_AA()
