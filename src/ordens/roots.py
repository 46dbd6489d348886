"""Roots of unity, exact l-th roots, and the power-times-unit normal form.

A root b of x**l = c = (u + w*sqrt(d)) / den gives B = S*b, an algebraic
integer with B**l = C = (S**l / den) * (u + w*sqrt(d)).  The scale S is the
least integer with den | S**l: a prime q prime to 2d is unramified and
Z[sqrt d] is maximal at q, so v_q(den) = l*v_q(den(b)), and a den whose part
prime to 2d is not an l-th power rules out every root.  B = (tau + v*sqrt(d))/2
with integers tau, v, and N(B) = eta is an l-th root of N(C) (norm_roots), so
a c whose norm is no l-th power has no root.

At l = 2, B**2 = C reads tau**2 = 2*(U + eta) and v = 2*W/tau in closed form,
where C = U + W*sqrt(d) and W != 0.  At odd l, X = 2B = tau + v*sqrt(d) is
lifted at one odd prime q (Hensel; Cohen, A Course in Computational Algebraic
Number Theory, 1993).  q is prime to l*d*N(C), and x -> x**l is a bijection
of (O_K/q)^*: l does not divide q**2 - 1, or q splits and l does not divide
q - 1.  With D = 2**l * C and e the inverse of l modulo that group order,
y = D**(-e) mod q is then the only y with y**l * D = 1 mod q, Newton's step
y += y * (1 - D*y**l) / l in (Z/q**k)[sqrt d] lifts it with no inverse but
1/l, and X = D * y**(l-1).  Over Q(sqrt -3) at l = 3 every such group holds
the cube roots of unity, so q is inert with q = 2 or 5 (mod 9): 3 divides
q**2 - 1 once, e inverts 3 modulo (q**2 - 1) / 3, y exists mod q only when
D is a cube there, and the roots are the one lifted times mu_3(K).  q is the
first such prime of a fixed list of the odd primes below 1024, or past it,
of the odd numbers that trial division shows prime.  Each conjugate of X is
|conjugate of D|**(1/l), which bit lengths bound, so tau and v are the
symmetric residues of X once q**k passes twice that bound.  The candidate
must then pass X**l == D mod 2**61 - 1, a pre-filter that keeps a wrong one
from building an exact power of about l times its size, and every returned
root is verified by exact exponentiation.
A rational c needs no lift: its roots are rational or rational multiples of
sqrt(d) at l = 2, and its rational l-th root times mu_l(K) at odd l.
Norm tests (lth_roots, decompose's depth-0 return) go through norm_roots, which
reads N(c) from the ints (u, w, den), as the halving-flag pretest in cyclo does.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import chain, count
from math import gcd, isqrt, lcm

from .field import (DomainError, Element, FieldSpec, InvariantError, _int_nth_root, _make, _mul,
                    _new, _nth_roots, _pow, valuation)

_MAX_DEPTH = 64

# The odd primes below 1024, where lth_roots looks for its prime q first
_ODD_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013, 1019, 1021)
_FILTER_PRIME = 2 ** 61 - 1  # the modulus of lth_roots' pre-filter


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
    # every root of unity has den <= 2 and |u| <= 1, so the lookup is skipped for the rest
    return e.den <= 2 and -1 <= e.u <= 1 and e in unit_orders(e.field)


def unit_order(e: Element) -> int:
    try:
        return unit_orders(e.field)[e]
    except KeyError:
        raise DomainError(f"{e} is not a root of unity") from None


def roots_of_unity(field: FieldSpec, ell: int) -> list[Element]:
    """The l-power-order roots of unity of the field, in canonical order."""
    return [u for u, o in unit_orders(field).items() if o == ell ** valuation(o, ell)]


def norm_roots(c: Element, ell: int) -> tuple[tuple[int, int], ...]:
    """The rational l-th roots of N(c) = (u**2 - d*w**2) / den**2, as (num, den) pairs."""
    return _nth_roots(c.u * c.u - (c.field.d or 0) * c.w * c.w, c.den * c.den, ell)


def _lift(c: Element, ell: int, scale: int) -> tuple[int, int] | None:
    """(tau, v) with X = tau + v*sqrt(d) the only candidate for 2*scale*b, b**ell == c
    (up to mu_3 over Q(sqrt -3) at l = 3), or None when the lift rules out a root."""
    d, den = c.field.d, c.den

    def target(m: int) -> tuple[int, int]:  # D = 2**l * C mod m, without building it
        t = pow(2 * scale, ell, m * den) // den  # den | scale**l
        return t * c.u % m, t * c.w % m

    # q must not divide l*d*N(D), N(D) = t**2 * (u**2 - d*w**2); a q prime to scale is prime to t
    bad = ell * d * scale * (c.u * c.u - d * c.w * c.w)
    later = (q for q in count(_ODD_PRIMES[-1] + 2, 2)
             if all(q % p for p in range(3, isqrt(q) + 1, 2)))
    for q in chain(_ODD_PRIMES, later):
        if d == -3 and ell == 3:  # inert, and 3 divides q**2 - 1 once
            if q % 9 not in (2, 5):
                continue
            order = (q * q - 1) // 3
        elif (q * q - 1) % ell:  # a bijection whether q splits or not
            order = q * q - 1
        elif (q - 1) % ell and pow(d, (q - 1) // 2, q) == 1:  # q splits
            order = q - 1
        else:
            continue
        if bad % q:
            break
    goal = target(q)  # D mod q; the lift finds y = 1/X, since y**l * D = 1 needs no inverse
    y = _pow(goal, order - pow(ell, -1, order), d, q)
    if d == -3 and ell == 3 and _mul(_pow(y, 3, d, q), goal, d, q) != (1, 0):  # no cube mod q
        return None
    # each conjugate of X is below 2**ceil(bits / l), and so are |tau| and |v|
    bits = (ell * (2 * scale).bit_length() - den.bit_length() + 2
            + max(abs(c.u).bit_length(), abs(c.w).bit_length() + (abs(d).bit_length() + 1) // 2))
    m = q
    while m.bit_length() <= -(-bits // ell) + 1:  # Newton's step, mod m to mod m**2
        m *= m
        goal, k = target(m), pow(ell, -1, m)
        e = _mul(goal, _pow(y, ell, d, m), d, m)
        step = _mul(y, ((1 - e[0]) * k, -e[1] * k), d, m)
        y = ((y[0] + step[0]) % m, (y[1] + step[1]) % m)
    x = _mul(goal, _pow(y, ell - 1, d, m), d, m)
    tau, v = (z - m if 2 * z > m else z for z in x)
    p = _FILTER_PRIME
    if _pow((tau % p, v % p), ell, d, p) != target(p):
        return None
    return tau, v


def lth_roots(c: Element, ell: int) -> set[Element]:
    """All b in the field with b**ell == c (ell prime), found exactly."""
    if c.is_zero:
        raise DomainError("zero has no multiplicative structure here")
    field = c.field
    if field.is_rational:
        return {_new(field, n, 0, m) for n, m in _nth_roots(c.u, c.den, ell)}
    d, den = field.d, c.den
    if not c.w:  # (x + y*sqrt(d))**2 is rational only when x*y = 0
        if ell == 2:
            return ({_new(field, n, 0, m) for n, m in _nth_roots(c.u, den, 2)}
                    | {_new(field, 0, n, m) for n, m in _nth_roots(c.u * d, den * d * d, 2)})
        # x**l - c is irreducible over Q unless c = r**l (Capelli): then the roots are r*mu_l(K)
        return {_new(field, n, 0, m) * z for n, m in _nth_roots(c.u, den, ell)
                for z in roots_of_unity(field, ell)}
    norms = norm_roots(c, ell)  # norm(c) = (r/rd)**ell, r/rd = norm(b)
    if not norms:
        return set()
    # B = scale*b is integral for the least scale with den | scale**l: the l-th root of
    # den when that is an integer, else q**ceil(v_q(den)/l) at the primes q of 2d (their
    # product is lcm(2, d), d squarefree) times the l-th root of the rest of den.  Blocks
    # g**(k*l) come off whole with k doubling, so v_q takes O(log(v_q)**2) steps.
    scale = _int_nth_root(den, ell)
    if scale ** ell != den:
        scale, rest, primes = 1, den, lcm(2, d)
        while (g := gcd(rest, primes)) > 1:
            k = 1
            while 2 * k * ell < rest.bit_length() and rest % g ** (2 * k * ell) == 0:
                k *= 2
            scale *= g ** k
            rest //= gcd(rest, g ** min(k * ell, rest.bit_length()))  # v_g(rest) < its bits
        root = _int_nth_root(rest, ell)
        if root ** ell != rest:
            return set()
        scale *= root
    if ell == 2:
        roots: set[Element] = set()
        t = scale * scale // den
        for r, rd in norms:
            eta = r * scale * scale // rd  # norm(B), exact: rd**2 divides den**2 | scale**4
            tau2 = 2 * (t * c.u + eta)
            tau = isqrt(max(tau2, 0))
            if tau and tau * tau == tau2 and (2 * t * c.w) % tau == 0:
                b = _make(field, tau, 2 * t * c.w // tau, 2 * scale)
                if b * b == c:
                    roots |= {b, -b}
        return roots
    found = _lift(c, ell, scale)
    if not found or (b := _make(field, *found, 2 * scale)) ** ell != c:
        return set()
    return {b * z for z in roots_of_unity(field, ell)} if d == -3 and ell == 3 else {b}


class Case(str, Enum):
    POWER = "power"
    POWER_TIMES_UNIT = "power_times_unit"
    ROOT_OF_UNITY = "root_of_unity"


class Decomposition(namedtuple("Decomposition", "ell case depth base unit unit_level")):
    """Normal form element == base ** (ell ** depth) * unit.

    base is strongly indivisible, unit is a root of unity of order
    ell ** unit_level, and depth is maximal over all unit choices.  For a
    root-of-unity input base is None and unit is the input itself.  The
    element is not stored: shape(k) derives what the densities read of its
    ell**k-th power from these fields alone.
    """

    __slots__ = ()

    def shape(self, k: int = 0) -> Decomposition:
        """The normal form of element ** (ell ** k) less base and unit, non-torsion: all the
        closed forms and series read.  The base (so the halving flag) is unchanged, the
        depth grows by k and the unit level falls to max(0, unit_level - k).  Equal shapes
        are one object (_shapes), whichever input or per-shape cache holds them."""
        level = max(0, self.unit_level - k)
        return _shapes(self.ell, Case.POWER if level == 0 else self.case, self.depth + k, level)

    def recompose(self) -> Element:
        if self.case is Case.ROOT_OF_UNITY:
            return self.unit
        return self.base ** (self.ell ** self.depth) * self.unit


_shapes = lru_cache(4096)(lambda ell, case, d, r: Decomposition(ell, case, d, None, None, r))


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
