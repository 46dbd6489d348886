"""Degrees of Kummer layers over cyclotomic levels.

kummer_degree computes [K(zeta_{l^m}, a**(1/l**n)) : K], the cyclotomic
degree times the Kummer step over K(zeta_{l^m}), from scalars only and
unchecked, for density_series; KummerQuery and total_degree are its checked
form, from which the kummer command also prints the step.  The step depends
on the prime l, levels m >= n, the power-times-unit normal form (depth d,
unit level r), the tower profile (stall t, zeta4_stall s) and the halving
flag.  When the tower over K is cyclic (l odd, or i in K) it is
l**max(0, n-d, n+r-m), after lifting m to t (the fields coincide below the
stall); plain powers have r = 0.  For l = 2 without i the plain-power step is
2**max(0, n-d), dropping to 2**max(0, n-d-1) once m passes the halving
threshold s+1; the negated-power case equals the step for -a except at three
boundary layers handled explicitly below.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import CycloProfile, cyclotomic_degree
from .field import DomainError
from .roots import _POWER, _ROOT_OF_UNITY, Decomposition

# D(a, n) has a denominator of about n*log2(l) bits, and Python refuses to
# print an int of more than 4,300 digits (about 14,000 bits).  Capping
# n * l.bit_length() at 10,000 keeps every accepted value printable, with
# room for the depth and the small factors the closed forms add.  A Kummer
# query is held to (m + n) * l.bit_length() <= 10,000, since its total
# degree is below l**m * l**n.
MAX_VALUATION_BITS = 10_000


class KummerQuery(namedtuple("KummerQuery", "ell m n decomp profile special")):
    __slots__ = ()

    def __new__(cls, ell: int, m: int, n: int, decomp: Decomposition,
                profile: CycloProfile, special: bool) -> KummerQuery:
        if decomp.ell != ell or profile.ell != ell:
            raise DomainError(f"normal form (l = {decomp.ell}) and profile "
                              f"(l = {profile.ell}) must be for l = {ell}")
        if m < 1:
            raise DomainError("cyclotomic level m must be >= 1")
        if not 0 <= n <= m:
            raise DomainError(f"need 0 <= n <= m, got n={n}, m={m}")
        if (m + n) * ell.bit_length() > MAX_VALUATION_BITS:
            raise DomainError(f"levels m={m}, n={n} too large for l = {ell}: "
                              f"need (m + n) * {ell.bit_length()} <= {MAX_VALUATION_BITS}")
        return super().__new__(cls, ell, m, n, decomp, profile, special)


def kummer_degree(ell: int, m: int, n: int, dec: Decomposition, prof: CycloProfile,
                  special: bool) -> int:
    """[K(zeta_{l^m}, a**(1/l**n)) : K] for a non-torsion normal form, 0 <= n <= m."""
    cyc = cyclotomic_degree(prof, m)
    if n == 0:
        return cyc
    d, r = dec.depth, dec.unit_level

    if ell != 2 or prof.has_zeta4:
        # levels below the stall coincide; r = 0 for plain powers
        return cyc * ell ** max(0, n - d, n + r - max(m, prof.stall))

    s = prof.zeta4_stall
    minus = 2 ** max(0, n - d - (special and m > s))  # the plain-power degree
    if dec.case is _POWER:
        return cyc * minus
    # a = -b**(2**d) with d > 0: compare with the degree for -a
    if m == n == 1:
        return cyc * 2  # sqrt(-a) is rational here, sqrt(a) is not
    if m == n >= s and minus == 1:
        return cyc * 2  # the layer only just acquired a primitive 2^n-th root of -1
    if special and m == n == s == d + 1 and minus == 2:
        return cyc  # sqrt(b) and zeta_{2^{s+1}} generate the same quadratic step
    return cyc * minus


def total_degree(q: KummerQuery) -> int:
    """[K(zeta_{l^m}, a**(1/l**n)) : K]."""
    if q.decomp.case is _ROOT_OF_UNITY:
        raise DomainError("root-of-unity inputs have no Kummer normal form")
    return kummer_degree(*q)
