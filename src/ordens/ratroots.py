"""Exact rational roots of monic integer polynomials.

Every rational root of a monic integer g is an integer below Fujiwara's bound
2 * max_k |g[n-k]|**(1/k), read from bit lengths.  Degree two is solved by
the quadratic formula, other degrees by Hensel lifting (Cohen, A Course in
Computational Algebraic Number Theory, 1993): at a small prime q where every
root of g mod q is simple, each integer root is the lift of exactly one of
them, by Newton's steps past twice the bound, at which g is exactly zero.
If no small q qualifies (a repeated root, or a squared factor with roots mod
every q), g / gcd(g, g') has the same roots, all simple, so only the primes
of its nonzero discriminant are bad for it.
"""

from __future__ import annotations

from itertools import chain, count
from math import gcd, isqrt

# g is reduced to its squarefree part if none of these primes qualifies
_FIRST_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def poly_eval(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """quo, rem over Z: b[-1]**(len(a) - len(b) + 1) * a == quo * b + rem, rem shorter than b."""
    quo, rem = [], list(a)
    while len(rem) >= len(b):
        top, shift = rem.pop(), len(rem) - len(b) + 1
        quo, rem = [c * b[-1] for c in quo] + [top], [c * b[-1] for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= top * c
    while rem and not rem[-1]:
        rem.pop()
    return quo[::-1], rem


def _squarefree(g: list[int]) -> list[int]:
    """g / gcd(g, g') for a monic g: the same roots, each once."""
    a, b = g, [k * c for k, c in enumerate(g)][1:]
    while len(b) > 1:  # Euclid over Z, each pseudo-remainder made primitive
        a, b = b, _pseudo_divide(a, b)[1]
        content = gcd(*b)
        b = [c // content for c in b]
    # b == [] leaves a[-1] times the (monic, integral) gcd in a; else the gcd is 1
    return g if b else _pseudo_divide(g, [c // a[-1] for c in a])[0]


def rational_roots_monic(g: list[int]) -> list[int]:
    """All rational roots of a monic integer polynomial: integers, ascending."""
    if g[-1] != 1:
        raise ValueError("polynomial must be monic")
    if len(g) == 3:  # the quadratic formula
        disc = g[1] * g[1] - 4 * g[0]
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return []
        return sorted(u for u in {(-g[1] + s) // 2, (-g[1] - s) // 2} if poly_eval(g, u) == 0)
    # every root is below 2**bits / 2 in size: |g[n-k]|**(1/k) < 2**ceil(bit length / k)
    bits = 2 + max((-(-abs(g[-1 - k]).bit_length() // k) for k in range(1, len(g))), default=0)
    later = (q for q in count(29, 2) if all(q % p for p in range(3, isqrt(q) + 1, 2)))
    for q in chain(_FIRST_PRIMES, later):
        if q == 29:  # no prime of _FIRST_PRIMES qualified
            g = _squarefree(g)
        gq = [c % q for c in g]
        roots = [r for r in range(q) if poly_eval(gq, r) % q == 0]
        dq = [k * c for k, c in enumerate(gq)][1:]
        if all(poly_eval(dq, r) % q for r in roots):
            break
    m = q
    while m.bit_length() <= bits:
        m *= m
    dg, out = [k * c for k, c in enumerate(g)][1:], []
    for r in roots:
        step = q
        while step < m:  # Newton's step: a simple root mod step lifts to one mod step**2
            step *= step
            r = (r - poly_eval(g, r) * pow(poly_eval(dg, r), -1, step)) % step
        if poly_eval(g, u := r - m if 2 * r > m else r) == 0:
            out.append(u)
    return sorted(out)
