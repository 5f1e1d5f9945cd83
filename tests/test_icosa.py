import random
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np
import pytest

from hasse5 import VerificationError, icosa
from hasse5.cycres import crt_primes, det_mod_p, hadamard_bound_sq, sylvester_coords
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
    resultant_divisor,
    surface_pair,
    tau_covariance,
    verify_group_relations,
)
from hasse5.numfield import CycNum
from hasse5.poly import det_bareiss
from oracles import icosa_resultant_bareiss


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


# The eleven resultants of equality_ledger: (M1, M2, variant).  The Bareiss
# oracle takes about 2 s a resultant, so the non-heavy run checks R_TT and
# R_AA and the heavy run the other nine.
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


def _bound_sq(n1: str, n2: str, variant: str) -> int:
    return hadamard_bound_sq(sylvester_coords(*surface_pair(*_maps(n1, n2), variant))[0])


@pytest.mark.parametrize("n1,n2,variant", LEDGER_PARAMS)
def test_resultant_matches_bareiss_oracle(n1, n2, variant):
    assert icosa_resultant(*_maps(n1, n2), variant) == _oracle(n1, n2, variant)


@pytest.mark.parametrize("n1,n2,variant", LEDGER_PARAMS)
def test_coordinate_bound_holds(n1, n2, variant):
    # every zeta-coordinate of the exact Sylvester determinant is at most 8H/5
    divisor = resultant_divisor(*_maps(n1, n2))
    det = _oracle(n1, n2, variant).map(lambda c: c * divisor)
    largest = max(abs(v) for c in det.c for v in c.c)
    assert 25 * largest * largest <= 64 * _bound_sq(n1, n2, variant)


@pytest.mark.parametrize("pair", LEDGER_PAIRS, ids="-".join)
def test_crt_primes_cover_the_bound(pair):
    h2 = _bound_sq(*pair)
    primes = crt_primes(h2)
    assert primes == sorted(set(primes), reverse=True)
    assert all(p % 5 == 1 and p < 2**31 for p in primes)
    # the product exceeds 16H/5, and no prime is spare
    assert 25 * prod(primes) ** 2 > 256 * h2
    assert 25 * prod(primes[:-1]) ** 2 <= 256 * h2


def _random_matrices(rng, p: int, n: int, count: int) -> list[list[list[int]]]:
    """Random matrices mod p: full ones, singular ones (a row a combination of
    two others), and the rows of an upper triangular matrix shuffled, so that
    elimination must swap rows, with a zero on the diagonal in every second one."""
    mats = []
    for k in range(count):
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if k % 4 == 1:
            m[-1] = [(3 * a + b) % p for a, b in zip(m[0], m[-2])] if n > 1 else [0]
        elif k % 4 >= 2:
            m = [[0] * i + row[i:] for i, row in enumerate(m)]
            if k % 4 == 3:
                m[rng.randrange(n)][rng.randrange(n)] = 0
                j = rng.randrange(n)
                m[j][j] = 0
            rng.shuffle(m)
        mats.append(m)
    return mats


@pytest.mark.parametrize("p", [11, 2147483171, 2147482951])
def test_det_mod_p_matches_bareiss(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 6, 10):
        mats = _random_matrices(rng, p, n, 24)
        got = det_mod_p(np.array(mats, dtype=np.int64), p)
        assert [int(d) for d in got] == [det_bareiss(m) % p for m in mats], n


def test_fraction_coordinate_is_rejected():
    m = MobiusMap(CycNum(Fraction(1, 3)), 1, 0, 1)
    with pytest.raises(VerificationError):
        icosa_resultant(coset_maps()["T"], m)
