"""Complete factorization over F_l and F_{l^k}: squarefree / distinct-degree /
equal-degree splitting, plus root listing in a chosen extension.

Equal-degree splitting is randomized (Cantor-Zassenhaus) but seeded from the
modulus and a CRC of the input coefficients, so factorizations are
reproducible run to run.  Factor lists are sorted by (degree, coefficient
tuple) which fixes the report format.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from . import modpoly as mp
from .fp import ExtField, FqElem, make_extension


class _PrimeOps:
    """Polynomial ops over F_p with int coefficients (fast kernels)."""

    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.q = p
        self.char = p

    def lift(self, f):
        return mp.trim([c % self.p for c in f])

    def one(self):
        return 1

    def key(self, c):
        return c

    def is_one(self, f):
        return f == [1]

    def mul(self, f, g):
        return mp.mul(f, g, self.p)

    def rem(self, f, g):
        return mp.rem(f, g, self.p)

    def quo(self, f, g):
        return mp.quo(f, g, self.p)

    def gcd(self, f, g):
        return mp.gcd(f, g, self.p)

    def monic(self, f):
        return mp.monic(f, self.p)

    def sub(self, f, g):
        return mp.sub(f, g, self.p)

    def deriv(self, f):
        return mp.deriv(f, self.p)

    def pow_mod(self, f, e, m):
        return mp.pow_mod(f, e, m, self.p)

    def rand_nonconst(self, rng, n):
        f = [rng.randrange(self.p) for _ in range(n)] + [1]
        return mp.trim(f)

    def pth_root_coeff(self, c):
        return c  # c^p = c in F_p

    def coeff_tuple(self, f):
        return tuple(f)


class _ExtOps:
    """Polynomial ops over F_{l^k} with FqElem coefficients (generic kernels)."""

    kind = "ext"

    def __init__(self, field: ExtField):
        self.field = field
        self.q = field.q
        self.char = field.l

    def lift(self, f):
        out = []
        for c in f:
            if isinstance(c, FqElem):
                out.append(c)
            else:
                out.append(self.field.embed(c))
        return _trim(out)

    def one(self):
        return self.field.one()

    def key(self, c: FqElem):
        return c.coords

    def is_one(self, f):
        return len(f) == 1 and f[0] == self.field.one()

    def mul(self, f, g):
        if not f or not g:
            return []
        out = [self.field.zero()] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a.is_zero():
                continue
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return _trim(out)

    def divmod(self, f, g):
        if not g:
            raise ZeroDivisionError
        dg = len(g) - 1
        r = list(f)
        if len(r) - 1 < dg:
            return [], _trim(r)
        inv = g[-1].inv()
        q = [self.field.zero()] * (len(r) - dg)
        for k in range(len(r) - 1, dg - 1, -1):
            if r[k].is_zero():
                continue
            t = r[k] * inv
            q[k - dg] = t
            for j in range(dg + 1):
                r[k - dg + j] = r[k - dg + j] - t * g[j]
        return _trim(q), _trim(r[:dg])

    def rem(self, f, g):
        return self.divmod(f, g)[1]

    def quo(self, f, g):
        return self.divmod(f, g)[0]

    def gcd(self, f, g):
        a, b = _trim(list(f)), _trim(list(g))
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def monic(self, f):
        if not f:
            return []
        inv = f[-1].inv()
        return [c * inv for c in f]

    def sub(self, f, g):
        n = max(len(f), len(g))
        z = self.field.zero()
        out = [(f[i] if i < len(f) else z) - (g[i] if i < len(g) else z) for i in range(n)]
        return _trim(out)

    def deriv(self, f):
        return _trim([k * c for k, c in enumerate(f)][1:])

    def pow_mod(self, f, e, m):
        out = [self.field.one()]
        base = self.rem(f, m)
        while e:
            if e & 1:
                out = self.rem(self.mul(out, base), m)
            e >>= 1
            if e:
                base = self.rem(self.mul(base, base), m)
        return out

    def rand_nonconst(self, rng, n):
        f = [self.field.rand(rng) for _ in range(n)] + [self.field.one()]
        return _trim(f)

    def pth_root_coeff(self, c: FqElem):
        k = self.field.k
        return c ** (self.field.l ** (k - 1))

    def coeff_tuple(self, f):
        return tuple(c.coords for c in f)


def _trim(f):
    while f and (f[-1].is_zero() if isinstance(f[-1], FqElem) else f[-1] == 0):
        f.pop()
    return f


@dataclass(frozen=True)
class FactorList:
    """unit * prod(factor^mult) reconstructs the input; factors monic irreducible,
    sorted by (degree, coefficient tuple)."""

    modulus: int
    ext_degree: int
    unit: object
    factors: tuple[tuple[tuple, int], ...]

    def __str__(self) -> str:
        parts = []
        for f, m in self.factors:
            s = _poly_str(f)
            parts.append(f"({s})^{m}" if m > 1 else f"({s})")
        u = "" if self.unit == 1 else f"{self.unit} * "
        return u + " ".join(parts) if parts else str(self.unit)


def _poly_str(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(f"{c}")
        elif k == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{k}" if c == 1 else f"{c}x^{k}")
    return " + ".join(terms) if terms else "0"


def _ops_for(p: int, k: int = 1):
    if k == 1:
        return _PrimeOps(p)
    return _ExtOps(make_extension(p, k))


def _seed_for(p: int, k: int, f) -> int:
    blob = repr((p, k, f)).encode()
    return zlib.crc32(blob)


def squarefree_decompose(f, ops) -> list[tuple[list, int]]:
    """Monic f -> [(g, m)] with f = prod g^m, g pairwise coprime squarefree."""
    p = ops.char
    out = []
    fprime = ops.deriv(f)
    if not fprime:
        # f = h(x^p) with Frobenius-adjusted coefficients
        h = _pth_root_poly(f, ops)
        for g, m in squarefree_decompose(h, ops):
            out.append((g, m * p))
        return out
    g = ops.gcd(f, fprime)
    w = ops.quo(f, g)
    i = 1
    while not ops.is_one(w):
        y = ops.gcd(w, g)
        z = ops.quo(w, y)
        if not ops.is_one(z):
            out.append((z, i))
        i += 1
        w = y
        g = ops.quo(g, y)
    if not ops.is_one(g):
        h = _pth_root_poly(g, ops)
        for gg, m in squarefree_decompose(h, ops):
            out.append((gg, m * p))
    return out


def _pth_root_poly(f, ops):
    p = ops.char
    return _trim([ops.pth_root_coeff(c) for c in f[::p]])


def distinct_degree(f, ops) -> list[tuple[list, int]]:
    """Monic squarefree f -> [(product of irreducible factors of degree d, d)].

    Stops as soon as the remaining cofactor must be irreducible, so the cost is
    governed by the largest factor degree, not by deg f.
    """
    out = []
    xpoly = [0, 1] if ops.kind == "prime" else ops.lift([0, 1])
    h = xpoly
    d = 0
    while f and len(f) - 1 > 0:
        d += 1
        if len(f) - 1 < 2 * d:
            out.append((f, len(f) - 1))
            break
        h = ops.pow_mod(h, ops.q, f)
        g = ops.gcd(f, ops.sub(h, xpoly))
        if g and len(g) - 1 > 0:
            out.append((g, d))
            f = ops.quo(f, g)
            h = ops.rem(h, f)
    return out


def equal_degree(f, d: int, ops, rng) -> list[list]:
    """Cantor-Zassenhaus splitting of a monic squarefree product of degree-d
    irreducibles (odd q)."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (ops.q**d - 1) // 2
    while True:
        a = ops.rand_nonconst(rng, rng.randrange(1, n))
        if len(a) - 1 < 1:
            continue
        b = ops.pow_mod(a, e, f)
        g = ops.gcd(f, ops.sub(b, [ops.one()]))
        if g and 0 < len(g) - 1 < n:
            return equal_degree(g, d, ops, rng) + equal_degree(ops.quo(f, g), d, ops, rng)


def factor_ff(f, p: int, k: int = 1) -> FactorList:
    """Full factorization of a nonzero polynomial over F_{p^k}."""
    ops = _ops_for(p, k)
    f = ops.lift(list(f))
    if not f:
        raise ZeroDivisionError("factor of zero polynomial")
    unit = f[-1]
    fm = ops.monic(f)
    rng = random.Random(_seed_for(p, k, ops.coeff_tuple(f)))
    found: list[tuple[tuple, int]] = []
    for sq, m in squarefree_decompose(fm, ops):
        for prod, d in distinct_degree(sq, ops):
            for irr in equal_degree(prod, d, ops, rng):
                found.append((ops.coeff_tuple(irr), m))
    found.sort(key=lambda t: (len(t[0]) - 1, t[0]))
    return FactorList(p, k, unit, tuple(found))


def reconstruct(fl: FactorList):
    """Multiply a FactorList back out (test helper for the reconstruction invariant)."""
    ops = _ops_for(fl.modulus, fl.ext_degree)
    out = [ops.one()]
    for coeffs, m in fl.factors:
        fac = ops.lift(list(coeffs)) if fl.ext_degree == 1 else [FqElem(ops.field, c) for c in coeffs]
        for _ in range(m):
            out = ops.mul(out, fac)
    if fl.ext_degree == 1:
        return mp.scale(out, fl.unit, fl.modulus)
    return [c * fl.unit for c in out]


def roots_in(f, p: int, k: int) -> list[tuple[object, int]]:
    """All roots of f in F_{p^k} with multiplicities.

    f may have int coefficients (read mod p) or FqElem coefficients in a field
    that embeds in F_{p^k}.  Roots are ints when k == 1, FqElem otherwise,
    sorted by coordinate for determinism.
    """
    ops = _ops_for(p, k)
    g = _embed_poly(f, p, k, ops)
    if not g:
        raise ZeroDivisionError("roots of zero polynomial")
    gm = ops.monic(g)
    xpoly = ops.lift([0, 1])
    xq = ops.pow_mod(xpoly, ops.q, gm)
    lin = ops.gcd(gm, ops.sub(xq, xpoly))
    if not lin or len(lin) - 1 == 0:
        return []
    rng = random.Random(_seed_for(p, k, ops.coeff_tuple(gm)))
    roots = []
    for fac in equal_degree(lin, 1, ops, rng):
        r = _neg_const(fac, ops)
        m = 0
        cur = gm
        while True:
            q, _ = _divmod_by_linear(cur, r, ops)
            if q is None:
                break
            cur = q
            m += 1
        roots.append((r, m))
    roots.sort(key=lambda t: ops.key(t[0]) if ops.kind == "ext" else t[0])
    if ops.kind == "prime":
        return roots
    return roots


def _embed_poly(f, p, k, ops):
    out = []
    for c in f:
        if isinstance(c, FqElem):
            if c.field.k == k and c.field.l == p:
                out.append(c)
            elif k % c.field.k == 0 and c.in_prime_field():
                out.append(ops.field.embed(c.coords[0]) if k > 1 else c.coords[0])
            else:
                raise ValueError("cannot embed coefficient field into target field")
        else:
            out.append(ops.field.embed(c) if k > 1 else c % p)
    return _trim(out)


def _neg_const(linear, ops):
    """Root of a monic linear polynomial."""
    c = linear[0]
    return (-c) % ops.p if ops.kind == "prime" else -c


def _divmod_by_linear(f, r, ops):
    """(f / (x - r), None) if r is a root else (None, remainder)."""
    if ops.kind == "prime":
        p = ops.p
        out = [0] * (len(f) - 1)
        acc = 0
        for k in range(len(f) - 1, -1, -1):
            acc = (acc * r + f[k]) % p
            if k:
                out[k - 1] = acc
        return (mp.trim(out), None) if acc == 0 else (None, acc)
    out = [ops.field.zero()] * (len(f) - 1)
    acc = ops.field.zero()
    for k in range(len(f) - 1, -1, -1):
        acc = acc * r + f[k]
        if k:
            out[k - 1] = acc
    return (_trim(out), None) if acc.is_zero() else (None, acc)
