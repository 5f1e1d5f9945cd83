"""Dense univariate (and minimal bivariate) polynomials over exact coefficient rings.

Coefficients may be Python ints, ``fractions.Fraction``, the quadratic /
biquadratic / cyclotomic field elements from :mod:`hasse5.numfield`, finite
field elements, or nested :class:`Poly` instances.  The only requirements on a
coefficient type are the arithmetic operators (mixing with plain ``int`` for 0
and 1) and equality against ``0``.

Coefficient lists are ascending: ``Poly([c0, c1, c2])`` is c0 + c1*x + c2*x^2.
The zero polynomial has an empty coefficient list.

Resultants use the Sylvester determinant with the rows of the *first* argument
on top, evaluated by fraction-free (Bareiss) elimination, so every printed
signed reference value is comparable without a convention fudge.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .numfield import FieldElem


class ZeroInput(ZeroDivisionError):
    """Resultant of a zero polynomial."""


class DivisionByZeroPoly(ZeroDivisionError):
    pass


class NotSkewPalindromic(ValueError):
    """Input to detilde does not satisfy x^n f(-1/x) = f(x)."""


def exact_div(a, b):
    """a / b when the division is exact in the coefficient ring.

    Integers are special-cased because ``int.__truediv__`` would produce a
    float; every other coefficient type divides exactly through its own
    ``__truediv__``.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"inexact integer division {a} / {b}")
        return q
    return a / b


class Poly:
    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def lc(self):
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __getitem__(self, k: int):
        return self.c[k] if 0 <= k < len(self.c) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if len(self.c) != len(other.c):
                return False
            return all(a == b for a, b in zip(self.c, other.c))
        if other == 0:
            return not self.c
        return len(self.c) == 1 and self.c[0] == other

    def __hash__(self):
        return hash(tuple(self.c))

    def __neg__(self) -> "Poly":
        return Poly([-a for a in self.c])

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.c), len(other.c))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.c), len(other.c))
        return Poly([self[k] - other[k] for k in range(n)])

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly([a * other for a in self.c])
        if not self.c or not other.c:
            return Poly()
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return Poly([other * a for a in self.c])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; the divisor's leading coefficient must be invertible
        (or divide every step exactly, as with a monic divisor over a ring)."""
        if not isinstance(other, Poly):
            other = _as_poly(other)
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        r = list(self.c)
        d = other.degree
        lead = other.lc()
        if len(r) - 1 < d:
            return Poly(), Poly(r)
        q = [0] * (len(r) - d)
        for k in range(len(r) - 1, d - 1, -1):
            if r[k] == 0:
                continue
            t = exact_div(r[k], lead)
            q[k - d] = t
            for j in range(d + 1):
                r[k - d + j] = r[k - d + j] - t * other.c[j]
        return Poly(q), Poly(r)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __truediv__(self, other) -> "Poly":
        """Exact division (scalar or polynomial); raises if the remainder is nonzero."""
        if isinstance(other, Poly):
            q, r = divmod(self, other)
            if not r.is_zero():
                raise ArithmeticError("inexact polynomial division")
            return q
        return Poly([exact_div(a, other) for a in self.c])

    def __call__(self, x):
        if not self.c:
            return 0 * x if not isinstance(x, int) else 0
        acc = self.c[-1]
        for a in reversed(self.c[:-1]):
            acc = acc * x + a
        return acc

    def map(self, f) -> "Poly":
        return Poly([f(a) for a in self.c])

    def derivative(self) -> "Poly":
        return Poly([k * a for k, a in enumerate(self.c)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lc()
        return Poly([a / lead for a in self.c])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly([0] * k + self.c)

    def __repr__(self) -> str:
        return f"Poly({self.c!r})"


def _as_poly(v) -> Poly:
    return v if isinstance(v, Poly) else Poly([v])


def galois_norm(f: Poly) -> Poly:
    """The product of the Galois conjugates of f, returned over Q.

    The coefficients of f are rationals and elements of one number field;
    a polynomial with rational coefficients is its own norm.
    """
    conj = [c.conjugates() if isinstance(c, FieldElem) else None for c in f.c]
    n = max((len(cs) for cs in conj if cs), default=1)
    out = f
    for i in range(1, n):
        out = out * Poly([c if cs is None else cs[i] for c, cs in zip(f.c, conj)])
    return out.map(lambda c: c.rational() if isinstance(c, FieldElem) else c)


def sylvester(f: Poly, g: Poly) -> list[list]:
    if f.is_zero() or g.is_zero():
        raise ZeroInput("resultant of zero polynomial")
    n, m = f.degree, g.degree
    size = n + m
    fd = list(reversed(f.c))
    gd = list(reversed(g.c))
    rows = []
    for i in range(m):
        rows.append([0] * i + fd + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gd + [0] * (size - m - 1 - i))
    return rows


def det_bareiss(mat: list[list]):
    """Fraction-free determinant; entries in any integral domain with exact division."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0 * m[0][0] if not isinstance(m[0][0], int) else 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[i][j] * pivot - mik * m[k][j], prev)
            m[i][k] = 0
        prev = pivot
    out = m[n - 1][n - 1]
    return out if sign == 1 else -out


def resultant(f: Poly, g: Poly):
    """Res(f, g) by the Sylvester determinant, f-rows first."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("resultant of zero polynomial")
    if f.degree == 0:
        return f.c[0] ** g.degree if g.degree > 0 else 1
    if g.degree == 0:
        return g.c[0] ** f.degree
    return det_bareiss(sylvester(f, g))


def discriminant(f: Poly):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, f.derivative())
    if (n * (n - 1) // 2) % 2:
        r = -r
    return exact_div(r, f.lc())


def compose_rational(F: Poly, num: Poly, den: Poly) -> Poly:
    """den^deg(F) * F(num/den), expanded as a polynomial (Horner with denominator powers).

    F's coefficients are ring elements (possibly nested Poly), so they scale
    den^k coefficientwise rather than convolving with it.
    """
    if den.is_zero():
        raise DivisionByZeroPoly("zero denominator")
    n = F.degree
    if n < 0:
        return Poly()
    acc = Poly([F.c[n]])
    dpow = Poly([1])
    for k in range(n - 1, -1, -1):
        dpow = dpow * den
        acc = acc * num + Poly([F.c[k] * c for c in dpow.c])
    return acc


def detilde(f: Poly) -> Poly:
    """Inverse of the palindromic substitution: find g with f(x) = x^(n/2) g(x - 1/x).

    Exists exactly when x^n f(-1/x) = f(x) with n = deg f even; otherwise
    raises NotSkewPalindromic.
    """
    n = f.degree
    if n < 0 or n % 2:
        raise NotSkewPalindromic(f"degree {n} is not even")
    m = n // 2
    rem = f
    out = [0] * (m + 1)
    basis = Poly([-1, 0, 1])  # x^2 - 1, since x^(m-k) (x^2-1)^k = x^m (x-1/x)^k
    for k in range(m, -1, -1):
        ck = rem[m + k]
        out[k] = ck
        if ck != 0:
            term = (basis**k).shift(m - k)
            rem = rem - Poly([c * ck for c in term.c])
    if not rem.is_zero():
        raise NotSkewPalindromic("no expansion in x^(m-k) (x^2-1)^k exists")
    return Poly(out)


class BiPoly:
    """Dense bivariate polynomial over the integers: grid[i][j] = coeff of u^i v^j."""

    __slots__ = ("g",)

    def __init__(self, grid: Sequence[Sequence[int]]):
        self.g = [list(row) for row in grid]
        self._trim()

    def _trim(self) -> None:
        while self.g and all(c == 0 for c in self.g[-1]):
            self.g.pop()
        width = 0
        for row in self.g:
            k = len(row)
            while k and row[k - 1] == 0:
                k -= 1
            width = max(width, k)
        self.g = [row[:width] + [0] * (width - len(row[:width])) for row in self.g]

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.g == other.g

    def eval(self, u, v):
        """Evaluate at ring elements (ints, field elements, Poly, ...)."""
        total = 0
        for i, row in enumerate(self.g):
            upow = u**i if i else 1
            for j, c in enumerate(row):
                if c == 0:
                    continue
                term = c * upow
                if j:
                    term = term * v**j
                total = term + total
        return total

    def d_du(self) -> "BiPoly":
        return BiPoly([[i * c for c in row] for i, row in enumerate(self.g)][1:])

    def d_dv(self) -> "BiPoly":
        return BiPoly([[j * c for j, c in enumerate(row)][1:] for row in self.g])

    def terms(self):
        for i, row in enumerate(self.g):
            for j, c in enumerate(row):
                if c:
                    yield i, j, c
