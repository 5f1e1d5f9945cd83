"""Complete factorization over F_l: squarefree / distinct-degree /
equal-degree splitting, plus root listing in F_{l^2}.

Equal-degree splitting is Cantor-Zassenhaus with deterministic splitting
elements, the polynomials whose base-p digits are p + 1, p + 2, ...: one
factorization draws x + 1, ..., x + p - 1, the other linear polynomials, then
every polynomial of degree 2, 3, ..., each at most once.  So the work, like
the result, depends on the input alone.  Factor lists are sorted by (degree,
coefficient tuple) which fixes the report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import modpoly as mp
from .fp import FqElem, make_extension


@dataclass(frozen=True)
class FactorList:
    """unit * prod(factor^mult) reconstructs the input; factors monic irreducible,
    sorted by (degree, coefficient tuple)."""

    modulus: int
    unit: int
    factors: tuple[tuple[tuple, int], ...]


def squarefree_decompose(f, p: int) -> list[tuple[list, int]]:
    """Monic f -> [(g, m)] with f = prod g^m, g pairwise coprime squarefree;
    [] for a constant."""
    if mp.deg(f) < 1:
        return []
    out = []
    fprime = mp.deriv(f, p)
    if not fprime:
        # f = h(x^p), and c^(1/p) = c in F_p
        for g, m in squarefree_decompose(f[::p], p):
            out.append((g, m * p))
        return out
    g = mp.gcd(f, fprime, p)
    w = mp.quo(f, g, p)
    i = 1
    while w != [1]:
        y = mp.gcd(w, g, p)
        z = mp.quo(w, y, p)
        if z != [1]:
            out.append((z, i))
        i += 1
        w = y
        g = mp.quo(g, y, p)
    if g != [1]:
        for gg, m in squarefree_decompose(g[::p], p):
            out.append((gg, m * p))
    return out


def distinct_degree(f, p: int) -> list[tuple[list, int]]:
    """Monic squarefree f -> [(product of irreducible factors of degree d, d)].

    Stops as soon as the remaining cofactor must be irreducible, so the cost is
    governed by the largest factor degree, not by deg f.
    """
    out = []
    h = [0, 1]
    d = 0
    while mp.deg(f) > 0:
        d += 1
        if mp.deg(f) < 2 * d:
            out.append((f, mp.deg(f)))
            break
        h = mp.pow_mod(h, p, f, p)
        g = mp.gcd(f, mp.sub(h, [0, 1], p), p)
        if mp.deg(g) > 0:
            out.append((g, d))
            f = mp.quo(f, g, p)
            h = mp.rem(h, f, p)
    return out


def equal_degree(f, d: int, p: int, draws) -> list[list]:
    """Cantor-Zassenhaus splitting of a monic squarefree product of degree-d
    irreducibles (odd p).  Each integer t from the iterator ``draws`` is a
    splitting element a, the polynomial whose coefficients are the base-p
    digits of t; a splits f when gcd(f, a^((p^d - 1)/2) - 1) is proper.

    With draws = count(p + 1), as ``factor_ff`` passes it, this terminates.
    A piece h still to split has degree n >= 2, and every residue class mod h
    holds polynomials of each degree m >= n (r + c x^(m-n) h, c != 0).  From
    wherever they stand, the draws run through every polynomial of each
    degree still to come, so they reach every residue mod h.  By the CRT some
    residue is a nonzero square mod one irreducible factor of h and a
    non-square mod another; its power is 1 mod the first and -1 mod the
    second, so it splits h.  The pieces share the iterator, so no element is
    drawn twice, not even one that already failed on an earlier piece.

    The same argument bounds the draws.  Let m >= n be the first degree
    whose polynomials, every t in [p^m, p^(m+1)), a piece's consecutive
    draws cover whole.  A piece still unsplit after them can only mean a
    wrong ``pow_mod`` or ``gcd``, and it raises ValueError rather than
    drawing forever.
    """
    n = mp.deg(f)
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    last = None
    for t in draws:
        if last is None:
            m = n
            while p**m < t:
                m += 1
            last = p ** (m + 1) - 1
        a = []
        s = t
        while s:
            s, c = divmod(s, p)
            a.append(c)
        g = mp.gcd(f, mp.sub(mp.pow_mod(a, e, f, p), [1], p), p)
        if 0 < mp.deg(g) < n:
            return equal_degree(g, d, p, draws) + equal_degree(mp.quo(f, g, p), d, p, draws)
        if t >= last:
            raise ValueError(f"every polynomial of degree {m} failed to split a degree-{n} product of degree-{d} factors")
    raise ValueError(f"the draws ran out before splitting a degree-{n} product of degree-{d} factors")


def factor_ff(f, p: int) -> FactorList:
    """Full factorization of a nonzero polynomial over F_p."""
    f = mp.from_int_poly(f, p)
    if not f:
        raise ZeroDivisionError("factor of zero polynomial")
    draws = count(p + 1)  # x + 1, x + 2, ..., shared by every split below
    found: list[tuple[tuple, int]] = []
    for sq, m in squarefree_decompose(mp.monic(f, p), p):
        for prod, d in distinct_degree(sq, p):
            for irr in equal_degree(prod, d, p, draws):
                found.append((tuple(irr), m))
    found.sort(key=lambda t: (len(t[0]) - 1, t[0]))
    return FactorList(p, f[-1], tuple(found))


def roots_in(f, p: int) -> list[tuple[FqElem, int]]:
    """All roots of f in F_{p^2} = make_extension(p, 2), with multiplicities.

    The coefficients of f are ints (read mod p) or FqElem of that field; the
    roots are FqElem, sorted by coordinates.

    Every root in F_{p^2} is a root of a linear or quadratic factor over F_p
    of f * f^sigma, where f^sigma raises each coefficient to the p-th power:
    with F_{p^2} = F_p(w), w^2 = u, and f = U + w W (U, W over F_p), that norm
    is U^2 - u W^2.  When W = 0 it is f^2, and f itself is factored instead.
    """
    fld = make_extension(p, 2)
    coords = []
    for c in f:
        if isinstance(c, FqElem) and c.field != fld:
            raise ValueError("coefficient outside F_(p^2)")
        coords.append(c.coords if isinstance(c, FqElem) else (c % p, 0))
    u = mp.trim([a for a, _ in coords])
    w = mp.trim([b for _, b in coords])
    norm = u
    if w:
        norm = mp.sub(mp.mul(u, u, p), mp.scale(mp.mul(w, w, p), fld.u, p), p)
    if not norm:
        raise ZeroDivisionError("roots of zero polynomial")
    fq = [fld.elem(c) for c in coords]
    inv2 = (p + 1) // 2  # 1/2 mod p
    roots = []
    for c, _ in factor_ff(norm, p).factors:
        if len(c) == 2:
            candidates = [fld.embed(-c[0])]
        elif len(c) == 3:
            s = fld.embed(c[1] * c[1] - 4 * c[0]).sqrt()
            candidates = [(s - c[1]) * inv2, (-s - c[1]) * inv2]
        else:
            continue
        for r in candidates:
            m = _multiplicity(fq, r)
            if m:
                roots.append((r, m))
    roots.sort(key=lambda t: t[0].coords)
    return roots


def _multiplicity(f: list[FqElem], r: FqElem) -> int:
    """The largest m with (x - r)^m | f, by repeated synthetic division."""
    m = 0
    while True:
        acc, partial = r.field.zero(), []
        for c in reversed(f):
            acc = acc * r + c
            partial.append(acc)
        if not acc.is_zero():
            return m
        f = partial[-2::-1]
        m += 1
