"""Cyclotomic tower parameters of Q and quadratic fields at a prime l.

Everything here rests on the finite classification of quadratic subfields
of the 2-power cyclotomic tower: Q(i), Q(sqrt 2) and Q(sqrt -2) are the
only ones, entering at level 8 for the latter two.  For odd l a quadratic
field can meet the l-tower only in Q(zeta_3) = Q(sqrt -3) or in the
quadratic subfield Q(sqrt(l*)) of Q(zeta_l), where l* = l for l = 1 mod 4
and -l otherwise.  That makes every profile a short case table rather
than a Galois computation.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import isqrt

from .field import DomainError, Element, FieldSpec, _check_ell, _new
from .roots import lth_roots


class Tower(str, Enum):
    """How the field meets the 2-power cyclotomic tower."""

    TRIVIAL = "trivial"
    PLUS = "plus"          # Q(sqrt 2), the real subfield of Q(zeta_8)
    MINUS = "minus"        # Q(sqrt -2)
    I_ADJOINED = "i_adjoined"  # Q(i)


class CycloProfile(namedtuple("CycloProfile",
                              "ell has_zeta_ell has_zeta4 degree stall zeta4_stall tower")):
    """Degrees and stall levels of K(zeta_{l^m}) over K.

    degree is [K(zeta_l) : K].  stall is the greatest t with
    K(zeta_l) = K(zeta_{l^t}) (for l = 2 with i in K: the greatest t with
    K = K(zeta_{2^t})).  zeta4_stall, only for l = 2 without i, is the
    greatest s with K(i) = K(zeta_{2^s}); it is 3 exactly when sqrt(2) or
    sqrt(-2) lies in K, else 2.  has_zeta4, zeta4_stall and tower are None
    for odd l.
    """

    __slots__ = ()


@lru_cache(maxsize=256)
def cyclo_profile(field: FieldSpec, ell: int) -> CycloProfile:
    _check_ell(ell)  # once per cache entry; analyze calls this before decompose
    d = field.d
    if ell != 2:
        has_zeta = ell == 3 and d == -3
        if has_zeta:
            degree = 1
        else:
            ell_star = ell if ell % 4 == 1 else -ell
            degree = (ell - 1) // 2 if d == ell_star else ell - 1
        return CycloProfile(ell, has_zeta, None, degree, 1, None, None)
    if d == -1:
        return CycloProfile(2, True, True, 1, 2, None, Tower.I_ADJOINED)
    tower = Tower.PLUS if d == 2 else Tower.MINUS if d == -2 else Tower.TRIVIAL
    s = 3 if d in (2, -2) else 2
    return CycloProfile(2, True, False, 1, 1, s, tower)


def cyclotomic_degree(profile: CycloProfile, m: int) -> int:
    """[K(zeta_{l^m}) : K] for m >= 1."""
    if m < 1:
        raise DomainError("cyclotomic level must be >= 1")
    ell = profile.ell
    if ell != 2:
        return profile.degree * ell ** max(0, m - profile.stall)
    if m == 1:
        return 1
    if profile.has_zeta4:
        return 2 ** max(0, m - profile.stall)
    return 2 * 2 ** max(0, m - profile.zeta4_stall)


def special_case_flag(field: FieldSpec, profile: CycloProfile, b: Element) -> bool:
    """Whether K(sqrt b) sits inside the 2-power cyclotomic tower.

    Requires l = 2, i not in K and b strongly indivisible.  True exactly
    when the tower intersection has the real-subfield shape and +/-b is
    g times a square in K, where g = 2 (s = 2) or g = 2 + sqrt(2) (s = 3).
    True halves the asymptotic Kummer degrees (the eps = 1/2 cases).
    """
    if profile.ell != 2 or profile.has_zeta4:
        raise DomainError("special case is defined only for l = 2 with i not in K")
    if b.field != field:
        raise DomainError("element does not belong to the given field")
    if profile.tower in (Tower.MINUS, Tower.I_ADJOINED):
        return False
    plus = profile.tower is Tower.PLUS  # g = 2 + sqrt(2) with N(g) = 2, else g = 2 with N(g) = 4
    # N(+/-b/g) = n / (den * N(g))**2 is a rational square if +/-b is g times a square
    n = (b.u * b.u - (field.d or 0) * b.w * b.w) * (2 if plus else 4)
    if n < 0 or isqrt(n) ** 2 != n:
        return False
    quot = b / _new(field, 2, int(plus), 1)
    return bool(lth_roots(quot, 2)) or bool(lth_roots(-quot, 2))
