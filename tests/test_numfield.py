import operator
import random
from fractions import Fraction
from math import prod

import pytest

from hasse5.icosa import P_D, q_d
from hasse5.numfield import BiQuadElem, CycNum, QuadElem
from hasse5.poly import Poly, galois_norm


def test_quad_field_ops():
    a = QuadElem(5, 1, 2)
    b = QuadElem(5, -3, Fraction(1, 2))
    assert a + b == QuadElem(5, -2, Fraction(5, 2))
    assert a * b == QuadElem(5, 1 * -3 + 5 * 2 * Fraction(1, 2), Fraction(1, 2) + -6)
    assert (a / b) * b == a
    assert a**0 == 1 and a**-2 == 1 / (a * a)
    assert a.norm() == 1 - 20


def test_quad_golden_units():
    eps5 = QuadElem(5, Fraction(-11, 2), Fraction(5, 2))
    ebar5 = QuadElem(5, Fraction(-11, 2), Fraction(-5, 2))
    assert eps5 * eps5 + 11 * eps5 - 1 == 0
    assert eps5 + ebar5 == -11 and eps5 * ebar5 == -1
    # ((-1+sqrt5)/2)^5 expands to eps5
    eps = QuadElem(5, Fraction(-1, 2), Fraction(1, 2))
    assert eps**5 == eps5


def test_biquad_ops():
    x = BiQuadElem(-3, -7, 1, 2, 0, 1)
    y = BiQuadElem(-3, -7, 0, 1, 1, 0)
    s = BiQuadElem(-3, -7, 0, 1)  # sqrt(-3)
    t = BiQuadElem(-3, -7, 0, 0, 1)  # sqrt(-7)
    st = BiQuadElem(-3, -7, 0, 0, 0, 1)
    assert s * s == -3 and t * t == -7 and st * st == 21
    assert s * t == st and s * st == -3 * t and t * st == -7 * s
    assert (x / y) * y == x
    both = x.conjugates()[3]  # s -> -s and t -> -t
    assert both == BiQuadElem(-3, -7, 1, -2, 0, 1) and both.conjugates()[3] == x


def test_cyc_relations():
    z = CycNum.zeta()
    assert z**5 == 1
    assert sum((z**k for k in range(5)), CycNum(0)) == 0
    s5 = CycNum.sqrt5()
    assert s5 * s5 == 5
    assert CycNum(1) + 2 * (z + z**4) == s5


def test_cyc_eps_ties_to_golden():
    e5 = CycNum.eps5()
    assert e5 * e5 + 11 * e5 - 1 == 0
    assert e5 + CycNum.eps5bar() == -11
    assert e5 * CycNum.eps5bar() == -1


def test_cyc_galois_and_norm():
    z = CycNum.zeta()
    x = 3 + 2 * z - z**3
    for k in (2, 3, 4):
        g = x.galois(k)
        # applying sigma_k then sigma_(k^-1 mod 5) returns x
        inv = {2: 3, 3: 2, 4: 4}[k]
        assert g.galois(inv) == x
    n = x.norm()
    assert isinstance(n, int)
    assert (x / x) == 1
    assert x * (1 / x) == 1


def test_cyc_division_stays_integral_when_possible():
    z = CycNum.zeta()
    x = (1 + z) * (2 - z**2)
    q = x / (1 + z)
    assert q == 2 - z**2
    assert all(isinstance(c, int) for c in q.c)


# ---------------------------------------------------------------------------
# Properties of the shared arithmetic, on seeded random elements of each field.

FIELDS = {
    "quad5": lambda *c: QuadElem(5, *c[:2]),
    "quad-3": lambda *c: QuadElem(-3, *c[:2]),
    "biquad-3-7": lambda *c: BiQuadElem(-3, -7, *c),
    "biquad-2-3": lambda *c: BiQuadElem(-2, -3, *c),
    "cyc5": lambda *c: CycNum(*c),
}


def _random_elems(make, seed: int, count: int = 12) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = make(*(Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7))) for _ in range(4)))
        if x != 0:
            out.append(x)
    return out


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_inverse_and_quotient(field):
    xs = _random_elems(FIELDS[field], seed=1)
    for x, y in zip(xs, xs[1:]):
        assert x * (1 / x) == 1
        assert (x / y) * y == x
        assert x**-2 * x**2 == 1


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_norm_is_multiplicative_rational_product_of_conjugates(field):
    xs = _random_elems(FIELDS[field], seed=2)
    for x, y in zip(xs, xs[1:]):
        n = x.norm()
        assert isinstance(n, (int, Fraction)) and n != 0
        assert prod(x.conjugates()) == n
        assert (x * y).norm() == n * y.norm()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_conjugates_of_a_conjugate_form_the_same_set(field):
    for x in _random_elems(FIELDS[field], seed=3, count=4):
        conj = x.conjugates()
        assert conj[0] == x and len(set(conj)) == len(conj)
        for y in conj:
            assert set(y.conjugates()) == set(conj)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_galois_norm_is_multiplicative_and_rational(field):
    xs = _random_elems(FIELDS[field], seed=4)
    f = Poly(xs[:3] + [1])
    g = Poly([xs[3], 5, xs[4]])
    nf, ng, nfg = galois_norm(f), galois_norm(g), galois_norm(f * g)
    assert nfg == nf * ng
    assert nfg.degree == len(f.c[0].conjugates()) * (f * g).degree
    assert all(isinstance(c, (int, Fraction)) for p in (nf, ng, nfg) for c in p.c)


def test_galois_norm_of_a_rational_polynomial_is_itself():
    f = Poly([1, Fraction(1, 2), -3])
    assert galois_norm(f) == f


@pytest.mark.parametrize("d", sorted(P_D))
def test_q_d_is_the_product_over_powers_of_zeta(d):
    explicit = prod((Poly([c * CycNum.zeta(i) ** k for k, c in enumerate(P_D[d])]) for i in range(1, 5)), start=Poly([1]))
    assert all(c.is_rational() for c in explicit.c)
    assert q_d(d) == explicit.map(lambda c: c.c[0])


# one element from each field, two of them from different quadratic fields
MIXED = [QuadElem(5, 1, 1), QuadElem(3, 1, 1), BiQuadElem(-3, -7, 1, 1), CycNum(1, 1)]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("i, j", [(i, j) for i in range(len(MIXED)) for j in range(len(MIXED)) if i != j])
def test_mixed_fields_raise_type_error(op, i, j):
    with pytest.raises(TypeError):
        op(MIXED[i], MIXED[j])
