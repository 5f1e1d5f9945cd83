"""Exact number field elements used as polynomial coefficients.

Three number field types, all with rational (Fraction/int) coordinates:

* ``QuadElem``   -- a + b*sqrt(m) in Q(sqrt(m)), m a non-square integer;
* ``BiQuadElem`` -- c0 + c1*s + c2*t + c3*s*t in Q(s, t) with s^2 = m1, t^2 = m2;
* ``CycNum``     -- c0 + c1*z + c2*z^2 + c3*z^3 in Q(z), z a primitive 5th
  root of unity (z^4 = -1 - z - z^2 - z^3), with sqrt(5) = 1 + 2(z + z^4).

Each type supplies only what is particular to its field: the coordinate
layout (the radicands in ``_field`` and the coordinate tuple ``c``), its
own ``__mul__``, and its Galois group ``GALOIS``, a table of coordinate
matrices with the identity first (row i is the image of basis element i).
The shared base ``FieldElem`` derives the rest: the ring operations and
``__pow__``, ``conjugates()``, ``norm()`` (the product of the conjugates,
checked to be rational) and division (multiply by the other conjugates, then
divide by the norm).  Elements of different fields never mix: arithmetic
between them raises ``TypeError``.

A fourth type, ``fp.FqElem`` for F_{l^2}, shares this core.  Two hooks cover
the difference: ``_SCALARS``, the plain numbers that embed in the field (int
and Fraction here, int only in F_{l^2}), and ``_div_scalar``, division by
such a number (exact rational division here, the inverse mod l in F_{l^2}).

Coordinates stay plain ``int`` whenever possible so the hot resultant paths
avoid Fraction overhead; a Fraction coordinate is normalized back to ``int``
when its denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction


def _q(x):
    """Normalize a rational: Fractions with denominator 1 collapse to int."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


def _exact_or_fraction(x, d):
    if isinstance(x, int) and isinstance(d, int):
        q, r = divmod(x, d)
        if r == 0:
            return q
    return _q(Fraction(x) / d)


def _diag(*signs) -> tuple:
    """The coordinate matrix of an automorphism that only flips signs."""
    return tuple(tuple(s if i == j else 0 for j in range(len(signs))) for i, s in enumerate(signs))


class FieldElem:
    """Shared arithmetic of the number field types; see the module docstring."""

    __slots__ = ("c",)
    GALOIS: tuple
    _field: tuple = ()  # the constructor arguments that fix the field (its radicands)
    _SCALARS = (int, Fraction)  # the plain numbers that embed in the field

    def _new(self, coords) -> "FieldElem":
        return type(self)(*self._field, *coords)

    def _lift(self, other):
        """other as an element of this field; NotImplemented for a non-number."""
        if type(other) is type(self) and other._field == self._field:
            return other
        if isinstance(other, self._SCALARS):
            return self._new((other,) + (0,) * (len(self.c) - 1))
        if isinstance(other, FieldElem):
            raise TypeError(f"mixed fields: {self!r} and {other!r}")
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, self._SCALARS):
            return self.c[0] == other and self.is_rational()
        if type(other) is type(self) and other._field == self._field:
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals
        if self.is_rational():
            return hash(self.c[0])
        return hash((self._field, self.c))

    def __neg__(self):
        return self._new([-x for x in self.c])

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self._new([x + y for x, y in zip(self.c, o.c)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self._new([x - y for x, y in zip(self.c, o.c)])

    def __rsub__(self, other):
        return (-self) + other

    def _image(self, rows) -> "FieldElem":
        """Apply the automorphism with coordinate matrix rows."""
        out = [0] * len(self.c)
        for coord, row in zip(self.c, rows):
            if coord == 0:
                continue
            for j, r in enumerate(row):
                if r:
                    out[j] += coord * r
        return self._new(out)

    def conjugates(self) -> list:
        """The images under GALOIS, this element first."""
        return [self] + [self._image(rows) for rows in self.GALOIS[1:]]

    def _cofactor(self):
        """The product of the conjugates other than this element."""
        out, *rest = self.conjugates()[1:]
        for g in rest:
            out = out * g
        return out

    def norm(self):
        return (self * self._cofactor()).rational()

    def _div_scalar(self, d):
        """self / d for a nonzero scalar d: exact rational division of the coordinates."""
        return self._new([_exact_or_fraction(x, d) for x in self.c])

    def __truediv__(self, other):
        if isinstance(other, self._SCALARS):
            return self._div_scalar(other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        cof = o._cofactor()
        n = (o * cof).rational()
        if n == 0:
            raise ZeroDivisionError(f"division by zero in {type(self).__name__}")
        return (self * cof) / n

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return (1 / self) ** (-e)
        out = self._lift(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def rational(self):
        if not self.is_rational():
            raise ArithmeticError(f"{self!r} is not rational")
        return self.c[0]


class QuadElem(FieldElem):
    """a + b*sqrt(m) with exact rational a, b."""

    __slots__ = ("m",)
    GALOIS = (_diag(1, 1), _diag(1, -1))

    def __init__(self, m: int, a=0, b=0):
        self.m = m
        self.c = (_q(a), _q(b))

    @property
    def _field(self) -> tuple:
        return (self.m,)

    @property
    def a(self):
        return self.c[0]

    @property
    def b(self):
        return self.c[1]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.m, self.a * other, self.b * other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.m, self.a * o.a + self.m * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt({self.m}))"


class BiQuadElem(FieldElem):
    """c0 + c1*s + c2*t + c3*s*t over Q, with s^2 = m1, t^2 = m2.

    The product of the two radicals is represented by the basis element s*t,
    whose square is m1*m2; callers pick which square root of m1*m2 the symbol
    in a printed constant denotes via the sign of the c3 coordinate.
    """

    __slots__ = ("m1", "m2")
    # s -> +-s and t -> +-t independently
    GALOIS = tuple(_diag(1, s, t, s * t) for s in (1, -1) for t in (1, -1))

    def __init__(self, m1: int, m2: int, c0=0, c1=0, c2=0, c3=0):
        self.m1 = m1
        self.m2 = m2
        self.c = (_q(c0), _q(c1), _q(c2), _q(c3))

    @property
    def _field(self) -> tuple:
        return (self.m1, self.m2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiQuadElem(self.m1, self.m2, *(x * other for x in self.c))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = o.c
        m1, m2, m12 = self.m1, self.m2, self.m1 * self.m2
        c0 = a0 * b0 + m1 * a1 * b1 + m2 * a2 * b2 + m12 * a3 * b3
        c1 = a0 * b1 + a1 * b0 + m2 * (a2 * b3 + a3 * b2)
        c2 = a0 * b2 + a2 * b0 + m1 * (a1 * b3 + a3 * b1)
        c3 = a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
        return BiQuadElem(self.m1, self.m2, c0, c1, c2, c3)

    __rmul__ = __mul__

    def __repr__(self):
        return f"BiQuad[{self.m1},{self.m2}]{self.c}"


class CycNum(FieldElem):
    """Element of Q(z), z a fixed primitive 5th root of unity."""

    __slots__ = ()
    # sigma_k: z -> z^k for k = 1..4, on the basis (1, z, z^2, z^3); z^4 = -1-z-z^2-z^3
    GALOIS = (
        _diag(1, 1, 1, 1),
        ((1, 0, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -1), (0, 1, 0, 0)),
        ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (-1, -1, -1, -1)),
        ((1, 0, 0, 0), (-1, -1, -1, -1), (0, 0, 0, 1), (0, 0, 1, 0)),
    )

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (_q(c0), _q(c1), _q(c2), _q(c3))

    @classmethod
    def zeta(cls, k: int = 1) -> "CycNum":
        k %= 5
        if k == 4:
            return cls(-1, -1, -1, -1)
        coords = [0, 0, 0, 0]
        coords[k] = 1
        return cls(*coords)

    @classmethod
    def sqrt5(cls) -> "CycNum":
        # 1 + 2(z + z^4) = -1 - 2 z^2 - 2 z^3
        return cls(-1, 0, -2, -2)

    @classmethod
    def eps5(cls) -> "CycNum":
        """(( -1+sqrt5)/2)^5 = (-11 + 5 sqrt5)/2, a root of x^2 + 11x - 1."""
        return (cls(-11) + 5 * cls.sqrt5()) / 2

    @classmethod
    def eps5bar(cls) -> "CycNum":
        return (cls(-11) - 5 * cls.sqrt5()) / 2

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(*(x * other for x in self.c))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a = self.c
        b = o.c
        # convolution to degree 6, then fold z^5 = 1 and z^4 = -1-z-z^2-z^3
        w = [0] * 7
        for i in range(4):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(4):
                if b[j] != 0:
                    w[i + j] += ai * b[j]
        c0, c1, c2, c3, c4, c5, c6 = w
        c0 += c5
        c1 += c6
        return CycNum(c0 - c4, c1 - c4, c2 - c4, c3 - c4)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycNum":
        """Apply z -> z^k (k in 1..4)."""
        return self._image(self.GALOIS[k - 1])

    def __repr__(self):
        return f"Cyc{self.c}"
