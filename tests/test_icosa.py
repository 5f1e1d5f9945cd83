import random
import re
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np
import pytest

from hasse5 import VerificationError, cycres, icosa
from hasse5.cycres import norm_primes
from hasse5.icosa import (
    P_D,
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
    resultant_divisor,
    surface_pair,
    tau_covariance,
    verify_group_relations,
)
from hasse5.numfield import CycNum
from hasse5.poly import Poly, galois_norm, resultant
from oracles import icosa_resultant_bareiss, resultant_mod_by_kronecker


def test_group_relations():
    assert verify_group_relations()


def test_group_relations_fail_on_a_wrong_S(monkeypatch):
    # S = A has order 3, so the first relation fails, before any closure is taken
    wrong = {**generators(), "S": generators()["A"]}
    monkeypatch.setattr(icosa, "generators", lambda: wrong)
    monkeypatch.setattr(icosa, "closure", lambda gens: pytest.fail("closure taken before S^5 = 1 was checked"))
    with pytest.raises(RelationFailure, match=re.escape("S^5 = 1")) as e:
        verify_group_relations()
    assert str(e.value) == "S^5 = 1"


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


def test_order_rejects_a_map_of_infinite_order():
    with pytest.raises(VerificationError, match="order exceeds 60"):
        icosa._order(MobiusMap(1, 1, 0, 1))  # x -> x + 1


def test_key_rejects_a_map_with_all_entries_zero():
    m = MobiusMap(1, 1, 0, 1)
    m.a = m.b = m.c = m.d = CycNum(0)  # past the constructor's singularity check
    with pytest.raises(VerificationError, match="Moebius map with all entries zero"):
        m.key()


def test_theta_identity():
    assert resolvent_theta_identity()


def test_tau_covariance():
    assert tau_covariance()


def test_resolvent_sampling():
    assert resolvent_identities()


def test_resolvent_identities_fail_for_a_wrong_quartic(monkeypatch):
    # x^2 coefficient 11a + 3 instead of 11a + 2
    monkeypatch.setattr(icosa, "G_A", ((1, 0), (0, -1), (3, 11), (0, 1), (1, 0)))
    assert not icosa._resolvent_cubic_holds()
    assert not icosa._quadratic_pairing_holds()
    assert not resolvent_identities()


def test_resolvent_identities_fail_for_a_wrong_theta1(monkeypatch):
    monkeypatch.setattr(icosa, "THETA1", tuple(-c for c in icosa.THETA1))
    assert not icosa._resolvent_cubic_holds()
    assert not resolvent_identities()


def test_orbit_property_small():
    assert orbit_property()


@pytest.mark.parametrize("name", ["S", "T"])
def test_orbit_property_fails_for_a_map_outside_g60(monkeypatch, name):
    gens = {**generators(), name: MobiusMap(2, 0, 0, 1)}  # x -> 2x
    monkeypatch.setattr(icosa, "generators", lambda: gens)
    assert not orbit_property()


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


# The eleven resultants of equality_ledger: (M1, M2, variant).  The oracle,
# Bareiss elimination of the Sylvester matrix over Z[zeta_5][x], takes
# 1.3-1.7 s a resultant, so the non-heavy run checks R_TT and R_AA and the
# heavy run the other nine.
LEDGER_PAIRS = [
    ("T", "T", "eps"),
    ("T", "TA2", "eps"),
    ("T", "T", "epsbar"),
    ("T", "TA2", "epsbar"),
    ("T", "A", "eps"),
    ("T", "TA", "eps"),
    ("T", "A2", "eps"),
    ("A", "A", "eps"),
    ("A2", "A2", "eps"),
    ("TA", "TA", "eps"),
    ("TA2", "TA2", "eps"),
]
UNMARKED_PAIRS = {("T", "T", "eps"), ("A", "A", "eps")}
LEDGER_PARAMS = [
    pytest.param(*pair, id="-".join(pair), marks=() if pair in UNMARKED_PAIRS else pytest.mark.heavy)
    for pair in LEDGER_PAIRS
]


def _maps(n1: str, n2: str):
    maps = coset_maps()
    return maps[n1], maps[n2]


@lru_cache(maxsize=None)
def _oracle(n1: str, n2: str, variant: str):
    return icosa_resultant_bareiss(*_maps(n1, n2), variant)


def _l1(entries) -> int:
    # the sum of the absolute values of the zeta-coordinates of Polys in x over Z[zeta_5]
    return sum(abs(v) for e in entries for c in e.c for v in icosa._cyc(c).c)


def _bound(n1: str, n2: str, variant: str) -> int:
    # H = S_G^5 (S_A + S_B)^d for P1 = A + B y^5 and G = P2 of degree d in y
    p1, p2 = surface_pair(*_maps(n1, n2), variant)
    return _l1(p2.c) ** 5 * (_l1([p1[0]]) + _l1([p1[5]])) ** p2.degree


@pytest.mark.parametrize("n1,n2,variant", LEDGER_PARAMS)
def test_resultant_matches_bareiss_oracle(n1, n2, variant):
    assert icosa_resultant(*_maps(n1, n2), variant) == _oracle(n1, n2, variant)


@pytest.mark.parametrize("n1,n2,variant", LEDGER_PARAMS)
def test_coordinate_bound_holds(n1, n2, variant):
    # every zeta-coordinate of the exact resultant is at most 8H/5
    divisor = resultant_divisor(*_maps(n1, n2))
    det = _oracle(n1, n2, variant).map(lambda c: c * divisor)
    largest = max(abs(v) for c in det.c for v in c.c)
    assert 5 * largest <= 8 * _bound(n1, n2, variant)


@pytest.mark.parametrize("pair", LEDGER_PAIRS, ids="-".join)
def test_crt_primes_cover_the_bound(monkeypatch, pair):
    # the primes the resultant is lifted from: their product exceeds 16H/5,
    # so they cover every coordinate, and no prime is spare
    used = []
    primes_past = cycres._primes_past
    monkeypatch.setattr(cycres, "_primes_past", lambda bound: used.append(primes_past(bound)) or used[-1])
    icosa_resultant(*_maps(*pair[:2]), pair[2])
    [primes] = used
    h = _bound(*pair)
    assert primes == sorted(set(primes), reverse=True)
    assert all(p % 5 == 1 and p < 2**31 for p in primes)
    assert 5 * prod(primes) > 16 * h
    assert 5 * prod(primes[:-1]) <= 16 * h


def _entry(rng, zero: float = 0.25) -> Poly:
    """A random Poly in x of degree <= 2 over Z[zeta_5], zero with probability
    zero, and each coefficient zero with probability 1/4."""
    if rng.random() < zero:
        return Poly()
    coeffs = [CycNum(*(rng.randint(-3, 3) for _ in range(4))) for _ in range(rng.randint(1, 3))]
    return Poly([CycNum() if rng.random() < 0.25 else c for c in coeffs])


def _random_binomials(count: int):
    """count pairs P1 = A + B y^5 and G of degree 1..5 in y, from _entry,
    with zero coefficients in y and in x, A = 0 among them."""
    rng = random.Random(5)
    for k in range(count):
        b = g = Poly()
        while b.is_zero() or g.is_zero():
            b, g = _entry(rng, 0), _entry(rng, 0)
        p1 = Poly([_entry(rng), Poly(), Poly(), Poly(), Poly(), b])
        yield p1, Poly([_entry(rng) for _ in range(k % 5 + 1)] + [g])


def test_resultant_of_random_binomials_matches_bareiss():
    for k, (p1, p2) in enumerate(_random_binomials(40)):
        assert cycres.resultant(p1, p2) == resultant(p1, p2), k


def _images_and_kronecker(monkeypatch, p1, p2) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each prime of cycres.resultant(p1, p2): the images mod p that the
    values at points gave, and those of the Kronecker oracle."""
    calls, route = [], cycres._resultant_mod
    monkeypatch.setattr(cycres, "_resultant_mod", lambda *args: calls.append((args, route(*args))) or calls[-1][1])
    cycres.resultant(p1, p2)
    return [(image, resultant_mod_by_kronecker(a, b, g, p)) for (a, b, g, primes), images in calls for p, image in zip(primes, images)]


@pytest.mark.parametrize("n1,n2,variant", LEDGER_PARAMS)
def test_resultant_mod_matches_kronecker_oracle(monkeypatch, n1, n2, variant):
    pairs = _images_and_kronecker(monkeypatch, *surface_pair(*_maps(n1, n2), variant))
    assert len(pairs) >= 4
    for got, want in pairs:
        assert got.shape == want.shape == (51, 4) and (got == want).all()


def test_resultant_mod_of_random_binomials_matches_kronecker_oracle(monkeypatch):
    for k, (p1, p2) in enumerate(_random_binomials(60)):
        for got, want in _images_and_kronecker(monkeypatch, p1, p2):
            assert got.shape == want.shape and (got == want).all(), k


@pytest.mark.parametrize("middle", [1, 4])
def test_resultant_rejects_a_p1_that_is_not_a_binomial(middle):
    # A + y^middle + B y^5, and A + B y^middle
    p1, p2 = surface_pair(*_maps("T", "T"))
    plus = Poly([*p1.c[:middle], Poly([1]), *p1.c[middle + 1 :]])
    lower = Poly([*p1.c[:middle], p1[5]])
    for bad in (plus, lower):
        with pytest.raises(VerificationError, match=re.escape("resultant over Z[zeta_5][x]: p1 is not A + B y^5")):
            cycres.resultant(bad, p2)


def test_resultant_rejects_polynomials_too_long_for_int64(monkeypatch):
    # D + 1 = 5 * 13199 + 5 * 5 + 1 = 66021 points, over 2^16; the lengths
    # are checked before any coordinate is read or array built
    p1, _ = surface_pair(*_maps("T", "T"))
    monkeypatch.setattr(cycres, "_int_coords", lambda entry: pytest.fail("coordinates read before the length check"))
    with pytest.raises(VerificationError, match=re.escape("resultant over Z[zeta_5][x]: degrees 5 in y and 13199 in x, too long for int64")):
        cycres.resultant(p1, Poly([Poly([1] * 13200)] * 6))


def test_resultant_rejects_a_y_degree_too_long_for_int64(monkeypatch):
    # d + 1 = 2^16 + 1 y-coefficients of G, with A and B constants: D = 0
    monkeypatch.setattr(cycres, "_int_coords", lambda entry: pytest.fail("coordinates read before the length check"))
    with pytest.raises(VerificationError, match=re.escape("resultant over Z[zeta_5][x]: degrees 65536 in y and 0 in x, too long for int64")):
        cycres.resultant(Poly([1, 0, 0, 0, 0, 1]), Poly([1] * (2**16 + 1)))


def test_resultant_rejects_a_coordinate_that_is_not_an_integer():
    # G = y + zeta/2: the CRT route works over Z[zeta_5] only
    p1, _ = surface_pair(*_maps("T", "T"))
    p2 = Poly([Poly([CycNum(0, Fraction(1, 2))]), Poly([1])])
    with pytest.raises(VerificationError, match=r"resultant coordinate \(0, Fraction\(1, 2\), 0, 0\) is not an integer"):
        cycres.resultant(p1, p2)


def test_fraction_coordinate_is_rejected():
    m = MobiusMap(CycNum(Fraction(1, 3)), 1, 0, 1)
    with pytest.raises(VerificationError):
        icosa_resultant(coset_maps()["T"], m)


# The four resultants whose norms the ledger compares, and polynomials of
# other shapes: Fraction coordinates, zero coefficients, constants, zero.
NORM_PAIRS = ["A", "A2", "TA", "TA2"]
NORM_SHAPES = {
    "fractions": Poly([CycNum(Fraction(1, 3), 2, 0, Fraction(-5, 7)), CycNum(0, Fraction(1, 2)), 3, Fraction(-1, 4)]),
    "zero-coefficients": Poly([0, 0, CycNum(1, 2, 3, 4), 0, 0, CycNum.zeta(3)]),
    "cyclotomic-constant": Poly([CycNum(2, -1, 0, 3)]),
    "integer-constant": Poly([7]),
    "rational-quadratic": Poly([-1, 1, 1]),
    "zero": Poly(),
}


@lru_cache(maxsize=None)
def _norm_input(name: str) -> Poly:
    if name in NORM_SHAPES:
        return NORM_SHAPES[name]
    return icosa_resultant(*_maps(name, name))


@lru_cache(maxsize=None)
def _norm_oracle(name: str) -> Poly:
    return galois_norm(_norm_input(name).map(icosa._cyc))


@pytest.mark.parametrize("name", NORM_PAIRS + list(NORM_SHAPES))
def test_norm_matches_galois_norm(name):
    assert norm_to_Q(_norm_input(name)) == _norm_oracle(name)


@pytest.mark.parametrize("d", sorted(P_D))
def test_q_d_matches_galois_norm(d):
    f = Poly([c * CycNum.zeta() ** k for k, c in enumerate(P_D[d])])
    assert q_d(d) == galois_norm(f)


@pytest.mark.parametrize("name", NORM_PAIRS + ["zero-coefficients", "cyclotomic-constant", "integer-constant"])
def test_norm_primes_cover_the_oracle(name):
    # for integral f the CRT modulus exceeds twice the largest coefficient of N(f)
    coords = [icosa._cyc(c).c for c in _norm_input(name).c]
    primes = norm_primes(coords)
    assert all(p % 5 == 1 and p < 2**31 for p in primes)
    assert prod(primes) > 2 * max(abs(c) for c in _norm_oracle(name).c)


def test_norm_raises_when_its_primes_fall_short(monkeypatch):
    # N(7) = 7^4 = S^4 attains the bound: with one prime fewer no prime is
    # left, and the exact degree check raises
    primes = norm_primes
    monkeypatch.setattr(cycres, "norm_primes", lambda coords: primes(coords)[:-1])
    with pytest.raises(VerificationError, match="degree -1, expected 0"):
        norm_to_Q(Poly([7]))


@pytest.mark.parametrize("mutation", ["one prime fewer", "zeta -> 1"])
def test_norm_mutations_fail_the_oracle(monkeypatch, mutation):
    # both keep the degree, the leading coefficient 5^60 and the constant 0
    # of N(R_AA), so only the comparison with the oracle catches them
    if mutation == "one prime fewer":
        primes = norm_primes
        monkeypatch.setattr(cycres, "norm_primes", lambda coords: primes(coords)[:-1])
    else:
        monkeypatch.setattr(cycres, "_root5", lambda p: 1)
    assert norm_to_Q(_norm_input("A")) != _norm_oracle("A")


@pytest.mark.parametrize("p", [7, 13])
def test_root5_rejects_a_prime_without_5th_roots_of_unity(p):
    with pytest.raises(VerificationError, match=f"no primitive 5th root of unity mod {p}"):
        cycres._root5(p)


def test_norm_rejects_a_polynomial_too_long_for_int64():
    with pytest.raises(VerificationError, match=re.escape("norm over Q(zeta_5): 65536 coefficients, the int64 products allow < 2^16")):
        norm_to_Q(Poly([1] * 2**16))
