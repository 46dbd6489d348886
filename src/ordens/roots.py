"""Roots of unity, exact l-th roots, and the power-times-unit normal form.

The l-th root solver works through a norm/trace resolvent over Z.  A root b
of x**l = c = (u + w*sqrt(d)) / den gives B = S*b, an algebraic integer with
B**l = C = (S**l / den) * (u + w*sqrt(d)).  The scale S is the least integer
with den | S**l: a prime q prime to 2d is unramified and Z[sqrt d] is maximal
at q, so v_q(den) = l*v_q(den(b)), and a den whose part prime to 2d is not an
l-th power rules out every root.  Its norm eta is an integer with
eta**l = norm(C), and its trace tau is an integer root of
s_l(tau) = trace(C), where s_0 = 2, s_1 = tau, s_k = tau*s_{k-1} - eta*s_{k-2},
found by Hensel lifting (ratroots).
Then B = (tau + v*sqrt(d)) / 2 with v**2 = (tau**2 - 4*eta) / d, and every
candidate B/S is verified by exact exponentiation before being returned.
A rational c skips the resolvent: its roots are rational or rational multiples
of sqrt(d) at l = 2, and its rational l-th root times mu_l(K) at odd l.
Norm tests (the eta loop, decompose's depth-0 return, the halving-flag pretest
in cyclo) go through norm_roots, which reads N(c) from the ints (u, w, den).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt, lcm

from .field import (DomainError, Element, FieldSpec, InvariantError, _int_nth_root, _make, _new,
                    _nth_roots, valuation)
from .ratroots import rational_roots_monic

_MAX_DEPTH = 64

# Largest l for which lth_roots works over a quadratic field.  The resolvent
# has degree l, and ratroots lifts its integer roots from a small prime, so the
# cost grows with l and with the roots' bit length, not with the range they
# lie in.  At l = 61, a c with 3,500-bit coordinates whose norm is a 61st
# power and that has no root takes about 1 ms; b**l with 4096 // l - 8 bit
# coordinates over a 7-power den takes 'ordens density' about 2 ms at l = 7
# or 11, with S the l-th root of den(c).
MAX_RESOLVENT_DEGREE = 61


@lru_cache(maxsize=256)
def unit_orders(field: FieldSpec) -> dict[Element, int]:
    """All roots of unity of the field, mapped to their multiplicative orders.

    Keys come in canonical order, which fixes decompose's tie-break.
    """
    one = Element(field, 1)
    if field.d == -1:
        i = Element(field, 0, 1)
        return {one: 1, -one: 2, i: 4, -i: 4}
    if field.d == -3:
        z = _new(field, -1, 1, 2)
        return {one: 1, z: 3, z * z: 3, -one: 2, -z: 6, -(z * z): 6}
    return {one: 1, -one: 2}


def is_root_of_unity(e: Element) -> bool:
    return e in unit_orders(e.field)


def unit_order(e: Element) -> int:
    try:
        return unit_orders(e.field)[e]
    except KeyError:
        raise DomainError(f"{e} is not a root of unity") from None


def roots_of_unity(field: FieldSpec, ell: int) -> list[Element]:
    """The l-power-order roots of unity of the field, in canonical order."""
    return [u for u, o in unit_orders(field).items() if o == ell ** valuation(o, ell)]


def _power_sum_poly(ell: int, eta: int) -> list[int]:
    s0, s1 = [2], [0, 1]
    for _ in range(ell - 1):
        nxt = [0] + s1
        for i, c in enumerate(s0):
            nxt[i] -= eta * c
        s0, s1 = s1, nxt
    return s1


def norm_roots(c: Element, ell: int) -> tuple[tuple[int, int], ...]:
    """The rational l-th roots of N(c) = (u**2 - d*w**2) / den**2, as (num, den) pairs."""
    return _nth_roots(c.u * c.u - (c.field.d or 0) * c.w * c.w, c.den * c.den, ell)


def lth_roots(c: Element, ell: int) -> set[Element]:
    """All b in the field with b**ell == c (ell prime), found exactly."""
    if c.is_zero:
        raise DomainError("zero has no multiplicative structure here")
    field = c.field
    if field.is_rational:
        return {_new(field, n, 0, m) for n, m in _nth_roots(c.u, c.den, ell)}
    if ell > MAX_RESOLVENT_DEGREE:
        raise DomainError(f"l-th roots over {field} need l <= {MAX_RESOLVENT_DEGREE}, "
                          f"got {ell}")
    d, den = field.d, c.den
    if not c.w:  # (x + y*sqrt(d))**2 is rational only when x*y = 0
        if ell == 2:
            return ({_new(field, n, 0, m) for n, m in _nth_roots(c.u, den, 2)}
                    | {_new(field, 0, n, m) for n, m in _nth_roots(c.u * d, den * d * d, 2)})
        # x**l - c is irreducible over Q unless c = r**l (Capelli): then the roots are r*mu_l(K)
        return {_new(field, n, 0, m) * z for n, m in _nth_roots(c.u, den, ell)
                for z in roots_of_unity(field, ell)}
    roots: set[Element] = set()
    # B = scale*b is integral for the least scale with den | scale**l: the l-th root of
    # den when that is an integer, else q**ceil(v_q(den)/l) at the primes q of 2d (their
    # product is lcm(2, d), d squarefree) times the l-th root of the rest of den.  Blocks
    # g**(k*l) come off whole with k doubling, so v_q takes O(log(v_q)**2) steps.
    scale = _int_nth_root(den, ell)
    if scale ** ell != den:
        scale, rest, primes = 1, den, lcm(2, d)
        while (g := gcd(rest, primes)) > 1:
            k = 1
            while rest % g ** (2 * k * ell) == 0:
                k *= 2
            scale *= g ** k
            rest //= gcd(rest, g ** (k * ell))
        root = _int_nth_root(rest, ell)
        if root ** ell != rest:
            return roots
        scale *= root
    for r, rd in norm_roots(c, ell):  # norm(c) = (r/rd)**ell, r/rd = norm(b)
        # norm(B), exact: rd**ell divides den**2, which divides scale**(2*ell)
        eta = r * scale * scale // rd
        poly = _power_sum_poly(ell, eta)
        poly[0] -= 2 * (scale ** ell // den) * c.u  # trace(B**ell)
        for tau in rational_roots_monic(poly):
            vv, rem = divmod(tau * tau - 4 * eta, d)
            s = isqrt(max(vv, 0))
            if rem or s * s != vv:
                continue
            for v in (s, -s) if s else (0,):
                cand = _make(field, tau, v, 2 * scale)
                if cand ** ell == c:
                    roots.add(cand)
    return roots


class Case(str, Enum):
    POWER = "power"
    POWER_TIMES_UNIT = "power_times_unit"
    ROOT_OF_UNITY = "root_of_unity"


class Decomposition(namedtuple("Decomposition", "ell case depth base unit unit_level")):
    """Normal form element == base ** (ell ** depth) * unit.

    base is strongly indivisible, unit is a root of unity of order
    ell ** unit_level, and depth is maximal over all unit choices.  For a
    root-of-unity input base is None and unit is the input itself.  The
    element is not stored: raised(k) derives the normal form of its
    ell**k-th power from these fields alone.
    """

    __slots__ = ()

    def raised(self, k: int) -> Decomposition:
        """Normal form of element ** (ell ** k), without building that power.

        The base (and so the halving flag) is unchanged; the depth grows by
        k, and the unit becomes unit ** (ell ** k), of level
        max(0, unit_level - k).
        """
        if k < 0:
            raise DomainError(f"raised needs k >= 0, got {k}")
        if self.case is Case.ROOT_OF_UNITY:
            return self._replace(unit=self.unit ** pow(self.ell, k, unit_order(self.unit)))
        return self.shape(k)._replace(
            base=self.base, unit=self.unit ** pow(self.ell, k, self.ell ** self.unit_level))

    def shape(self, k: int = 0) -> Decomposition:
        """raised(k) less base and unit, non-torsion: all the closed forms and series read."""
        level = max(0, self.unit_level - k)
        return Decomposition(self.ell, Case.POWER if level == 0 else self.case, self.depth + k,
                             None, None, level)

    def recompose(self) -> Element:
        if self.case is Case.ROOT_OF_UNITY:
            return self.unit
        return self.base ** (self.ell ** self.depth) * self.unit


def _round_trip(dec: Decomposition, a: Element) -> Decomposition:
    if dec.recompose() != a:
        raise InvariantError(f"decomposition round-trip failed for {a}")
    return dec


def decompose(a: Element, ell: int) -> Decomposition:
    """Maximal-depth power-times-unit normal form of a.

    Every unit xi has norm 1, so each a/xi has norm N(a), and none has an
    l-th root unless N(a) is an l-th power in Q (norm_roots).  When it is
    not, the depth is 0, the unit 1 wins by order and a is its only
    candidate, so decompose returns a = a**1 * 1 at once.  Otherwise it
    searches depth upward, carrying for each unit xi the full set of
    ell**depth-th roots of a/xi (breadth-first over lth_roots); every root of
    unity of Q or of a quadratic field has xi * conjugate(xi) = 1, so a/xi is
    a * conjugate(xi).  Feasibility is downward closed, so the first empty
    level is conclusive.  Over Q the norm test cuts no deeper search:
    N(a) = a**2 is a square, and at odd l (where mu_l(Q) = {1}) an l-th power
    only when a is.  Among units reaching the maximal depth the one of
    minimal multiplicative order wins (canonical order breaks ties), which
    absorbs absorbable units into the base; the base itself is the largest
    root by (x, y), compared as integers over one denominator, so output is
    deterministic.  Either way the normal form is checked to recompose to a.
    """
    if a.is_zero:
        raise DomainError("cannot decompose zero")
    if not norm_roots(a, ell):  # so a is no root of unity either: those have norm 1
        return _round_trip(Decomposition(ell, Case.POWER, 0, a, _new(a.field, 1, 0, 1), 0), a)
    if is_root_of_unity(a):
        return Decomposition(ell, Case.ROOT_OF_UNITY, 0, None, a, 0)
    mu = roots_of_unity(a.field, ell)
    orders = unit_orders(a.field)
    # mu[0] is the unit 1 (roots_of_unity lists it first), whose twist is a itself
    level: dict[Element, set[Element]] = {xi: {a * xi.conjugate() if k else a}
                                          for k, xi in enumerate(mu)}
    winners = level
    depth = 0
    while True:
        nxt: dict[Element, set[Element]] = {}
        for xi, elems in level.items():
            grown: set[Element] = set()
            for z in elems:
                grown |= lth_roots(z, ell)
            if grown:
                nxt[xi] = grown
        if not nxt:
            break
        depth += 1
        if depth > _MAX_DEPTH:
            raise InvariantError(f"power depth exceeded {_MAX_DEPTH}; input {a}")
        level = winners = nxt
    xi = min(winners, key=lambda u: (orders[u], mu.index(u)))
    cands = winners[xi]
    if len(cands) == 1:
        (base,) = cands
    else:  # (x, y) over the common denominator m
        m = lcm(*(e.den for e in cands))
        base = max(cands, key=lambda e: (e.u * (m // e.den), e.w * (m // e.den)))
    case = Case.POWER if orders[xi] == 1 else Case.POWER_TIMES_UNIT
    return _round_trip(Decomposition(ell, case, depth, base, xi, valuation(orders[xi], ell)), a)
