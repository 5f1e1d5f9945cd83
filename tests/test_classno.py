import pytest

from hasse5.classno import (
    BadDiscriminant,
    class_number_disc,
    h5l,
    h_minus_p,
    reduced_forms,
)
from hasse5.intfactor import primes_in
from oracles import class_number_dirichlet, kronecker


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


def test_kronecker_symbol():
    # (D/2) by D mod 8, and (-20/33) = (-20/3)(-20/11) = (1/3)(2/11) = -1
    assert [kronecker(D, 2) for D in (-3, -4, -7, -11, -20)] == [-1, 0, 1, -1, 0]
    assert kronecker(-20, 33) == -1 and kronecker(-20, 15) == 0 and kronecker(-7, 1) == 1
    # Euler's criterion at odd primes
    for q in primes_in(3, 60):
        for D in range(-200, 0):
            assert kronecker(D, q) == (pow(D, (q - 1) // 2, q) + 1) % q - 1, (D, q)


def test_h5l_matches_dirichlet_oracle():
    # the field discriminant of Q(sqrt(-5l)) is fundamental, so Dirichlet's
    # formula applies at every prime l > 5
    for l in primes_in(7, 2000):
        D = -5 * l if l % 4 == 3 else -20 * l
        assert h5l(l) == class_number_dirichlet(D), l


def test_h_minus_p_matches_dirichlet_oracle():
    for p in primes_in(7, 1000):
        assert h_minus_p(p) == class_number_dirichlet(-p if p % 4 == 3 else -4 * p), p
