import pytest

from hasse5.classno import (
    BadDiscriminant,
    class_number_disc,
    h5l,
    h_minus_p,
    reduced_forms,
)
from hasse5.intfactor import primes_in


def test_classical_h1():
    for D in (-3, -4, -7, -8, -11):
        assert class_number_disc(D) == 1


def test_disc_minus_4():
    assert reduced_forms(-4) == [(1, 0, 1)]


def test_disc_minus_20():
    assert sorted(reduced_forms(-20)) == [(1, 0, 5), (2, 2, 3)]
    assert class_number_disc(-20) == 2


def test_disc_minus_7580():
    assert class_number_disc(-7580) == 48


def test_bad_discriminant():
    with pytest.raises(BadDiscriminant):
        class_number_disc(-5)
    with pytest.raises(BadDiscriminant):
        class_number_disc(4)


def test_field_class_number_examples():
    # h(-5l) is taken at the field discriminant: -35 for l = 7, -260 for l = 13
    assert h5l(7) == class_number_disc(-35) == 2
    assert h5l(13) == class_number_disc(-260) == 8
    assert h5l(11) == class_number_disc(-220) == 4


def test_primitivity_matters():
    # -16 has forms (1,0,4) and (2,0,2); only the first is primitive
    assert reduced_forms(-16) == [(1, 0, 4)]


def test_h_minus_p():
    assert h_minus_p(7) == 1
    assert h_minus_p(11) == 1
    assert h_minus_p(13) == 2  # class number of Q(sqrt(-13)), disc -52


def test_order_relation_sample():
    # for l = 3 mod 4 the order class number h(-20l) equals h(-5l) or
    # 3 h(-5l) according as -5l = 1 or 5 mod 8
    for l in primes_in(7, 300):
        if l % 4 == 3:
            factor = 1 if (-5 * l) % 8 == 1 else 3
            assert class_number_disc(-20 * l) == factor * class_number_disc(-5 * l), l


def test_h5l():
    assert h5l(7) == 2 and h5l(11) == 4 and h5l(379) == 48
