"""Exact densities of primes by the l-adic valuation of an element's order.

Every density here is a function of the normal form a = b**(l**d) * xi
(depth d, unit level r, halving flag of b) and the tower profile alone.
density_closed evaluates the closed forms on that data.  They read a only
through its shape (normal form less base and unit, profile, halving flag),
and _analysis caches the shape once per input, next to the normal form.  Each
form is computed once per shape per process and is exact for every a of that
shape, as are the series value (per shape and n) and the shape_check verdict;
error texts are worded per call and name the input.  density reduces a
prescribed valuation n >= 1 to two closed evaluations via
D(a, n) = D(a**(l**n), 0) - D(a**(l**(n-1)), 0), where the normal form of
a**(l**k) is a's own shifted by k (Decomposition.shape, or for a root of
unity xi the order of xi**(l**k)), so no power of a is built.
density_series re-derives D(a, n) independently from the paper's joint law
for (v, k), v = v_l(Np - 1) and k the l-valuation of the order of a mod p:
with T(m, j) = [K(zeta_{l^m}, a**(1/l**j)) : K] from kummer.kummer_degree,
T(0, 0) = 1 and j = m - n,

    P(m, 0) = 1/T(m, m) - 1/T(m+1, m)
    P(m, n) = 1/T(m, j) - 1/T(m+1, j) - 1/T(m, j+1) + 1/T(m+1, j+1)   (n >= 1)

and D(a, n) = sum_{m>=n} P(m, n).  series_cells gives the cells as integers
over the lcm of the degrees and, once consecutive cells lock onto the 1/l**2
decay, their sum with the geometric tail closed exactly.  The two paths share
no formula code, which makes their agreement a meaningful cross-check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import sub

from .cyclo import CycloProfile, cyclo_profile, special_case_flag
from .field import DomainError, Element, InvariantError, valuation
from .kummer import MAX_VALUATION_BITS, kummer_degree
from .roots import (_POWER, _POWER_TIMES_UNIT, _ROOT_OF_UNITY, Decomposition, decompose,
                    is_root_of_unity, unit_order)


class ShapeViolation(InvariantError):
    """A computed density does not have its mandated shape."""


class DensityValue(namedtuple("DensityValue", "value method branch params")):
    """An exact density in [0, 1] plus a note of how it was derived.

    method is "closed_form" or "series"; params is a tuple of (name, value)
    pairs.
    """

    __slots__ = ()

    def __new__(cls, value: Fraction, method: str, branch: str,
                params: tuple = ()) -> DensityValue:
        if not 0 <= value.numerator <= value.denominator:
            raise InvariantError(f"density {value} outside [0, 1]")
        return super().__new__(cls, value, method, branch, params)


@lru_cache(maxsize=4096)
def _analysis(a: Element, ell: int) -> tuple[Decomposition, CycloProfile, bool,
                                              Decomposition | None]:
    """analyze's triple and a's shape (None for a root of unity), cached per (a, l): the
    D(a, n) of every n share one halving-flag search, and the three n = 0 answers one shape."""
    prof = cyclo_profile(a.field, ell)
    dec = decompose(a, ell)
    special = False
    if ell == 2 and not prof.has_zeta4 and dec.case is not _ROOT_OF_UNITY:
        special = special_case_flag(a.field, prof, dec.base)
    shape = None if dec.case is _ROOT_OF_UNITY else dec.shape()
    return dec, prof, special, shape


def analyze(a: Element, ell: int) -> tuple[Decomposition, CycloProfile, bool]:
    """Normal form, tower profile and halving flag of one input, cached per (a, l), immutable."""
    return _analysis(a, ell)[:3]


def _zeta4_free_power(d: int, s: int, h: int) -> tuple[int, int]:
    """D(b**(2**d)) for l = 2 without i and eps = 2**-h, as (numerator, denominator)."""
    if d == 0:
        return (3 << (s + h)) + 4, 12 << (s + h)  # 1/4 + eps/3 * 2**-s
    if d < s:
        return (3 << (s - d + h)) + 2, 6 << (s - d + h)  # 1/2 + eps/3 * 2**(d-s)
    return (6 << (d - s + h)) - 1, 6 << (d - s + h)  # 1 - eps/6 * 2**(s-d)


def density_closed(a: Element, ell: int) -> DensityValue:
    """D(a) = density of primes where the order of a is coprime to l."""
    if a.is_zero:
        raise DomainError("density of zero is undefined")
    dec, prof, special, shape = _analysis(a, ell)
    return _closed(dec, prof, special, 0, shape)


def _closed(dec: Decomposition, prof: CycloProfile, special: bool, k: int = 0,
            shape: Decomposition | None = None) -> DensityValue:
    """The closed form of D(a**(l**k)) from a's normal form, profile and halving flag;
    shape is dec.shape(k) when the caller holds it."""
    if dec.case is _ROOT_OF_UNITY:
        order = unit_order(dec.unit)
        order //= dec.ell ** min(k, valuation(order, dec.ell))  # the order of unit**(l**k)
        value = Fraction(1) if order % dec.ell else Fraction(0)
        return DensityValue(value, "closed_form", "torsion", (("order", order),))
    shape = shape or dec.shape(k)  # a Decomposition is a nonempty tuple
    try:
        return _shape_closed(shape, prof, special)
    except InvariantError as e:
        if len(e.args) != 2:  # DensityValue's range check
            raise
        # the negated-power check failed; the shape holds no base, so the text is worded here
        raise InvariantError(f"negated-power forms disagree for -b**(2**{shape.depth}) with "
                             f"b = {dec.base}: {e.args[0]} vs {e.args[1]}") from None


@lru_cache(maxsize=4096)
def _shape_closed(shape: Decomposition, prof: CycloProfile, special: bool) -> DensityValue:
    """The closed form of D(a) for a non-torsion shape, keyed as series_cells is.

    The branches read only its depth, unit level and case, the profile and the
    halving flag.  If the two negated-power forms disagree it raises
    InvariantError(value, check), for _closed to word with the base.
    """
    ell = shape.ell
    d, r, t = shape.depth, shape.unit_level, prof.stall

    if ell != 2 or prof.has_zeta4:
        if shape.case is _POWER_TIMES_UNIT:
            e = t - d - 2 * r + 1  # l/(l+1) * l**(t-d-2r)
            value = Fraction(ell ** max(e, 0), (ell + 1) * ell ** max(-e, 0))
            return DensityValue(value, "closed_form", "zeta-present/power-unit",
                                (("d", d), ("r", r), ("t", t)))
        # P(d, t): D(a) for a plain power when the l-th roots of unity lie in K,
        # l/(l+1) * l**(d-t) up to d = t and 1 - l**(t-d)/(l+1) past it
        den = (ell + 1) * ell ** abs(t - d)
        num = ell if d <= t else den - 1
        if prof.has_zeta_ell or prof.has_zeta4:
            return DensityValue(Fraction(num, den), "closed_form", "zeta-present/power",
                                (("d", d), ("t", t)))
        # the l-th roots of unity live strictly above K, so a is a plain power:
        # 1 - (1 - P(d, t)) / degree
        value = Fraction(den * (prof.degree - 1) + num, den * prof.degree)
        return DensityValue(value, "closed_form", "zeta-absent",
                            (("d", d), ("t", t), ("degree", prof.degree)))

    # l = 2 and i not in K
    s, h = prof.zeta4_stall, int(special)  # eps = 2**-h
    params = (("d", d), ("s", s), ("eps", Fraction(1, 2 ** h)))
    num, den = _zeta4_free_power(d, s, h)
    if shape.case is _POWER:
        return DensityValue(Fraction(num, den), "closed_form", "zeta4-absent/power", params)
    # a = -b**(2**d), d > 0: derive from minus = num/den, the density of -a, and
    # check the equivalent closed form, so both printed shapes guard each other.
    if d < s - 1:
        value = 2 * num - den, 2 * den  # minus - 1/2
        check = 1, 3 << (s - d + h)  # eps/3 * 2**(d-s)
    elif d == s - 1:
        value = (num << (1 + h)) - den, den << (1 + h)  # minus - eps/2
        check = 1 << h, 6  # 1/(6*eps)
    else:
        q = 4 << (d - s + h)
        value = (num - den) * q + den, den * q  # minus - 1 + eps/4 * 2**(s-d)
        check = 1, 12 << (d - s + h)  # eps/12 * 2**(s-d)
    if value[0] * check[1] != check[0] * value[1]:
        raise InvariantError(Fraction(*value), Fraction(*check))
    return DensityValue(Fraction(*value), "closed_form", "zeta4-absent/negative", params)


def density(a: Element, ell: int, n: int = 0) -> DensityValue:
    """D(a, n) = density of primes where the order of a has l-valuation n.

    n * ell.bit_length() may not exceed MAX_VALUATION_BITS.
    """
    if n < 0:
        raise DomainError("valuation must be nonnegative")
    if n * ell.bit_length() > MAX_VALUATION_BITS:
        raise DomainError(f"valuation {n} too large for l = {ell}: need "
                          f"n * {ell.bit_length()} <= {MAX_VALUATION_BITS}")
    if n == 0:
        return density_closed(a, ell)
    dec, prof, special, _ = _analysis(a, ell)
    hi = _closed(dec, prof, special, n)
    lo = _closed(dec, prof, special, n - 1)
    return DensityValue(hi.value - lo.value, "closed_form", "valuation-difference",
                        (("n", n), ("plus", hi.branch), ("minus", lo.branch)))


@lru_cache(maxsize=4096)
def series_cells(shape: Decomposition, prof: CycloProfile, special: bool,
                 n: int) -> tuple[tuple[int, ...], int, DensityValue | None]:
    """Numerators of the cells P(m, n), m = n..M, their common denominator and D(a, n).

    shape is a non-torsion normal form with base and unit cleared
    (Decomposition.shape): kummer_degree reads only its depth, unit level and
    case, so one cache entry serves every element of that shape.  Cell m is
    P(m, n) = f(m, m - n) - f(m, m - n + 1) (the second term only for n >= 1),
    where f(m, j) = 1/T(m, j) - 1/T(m + 1, j) and T(0, 0) = 1.
    M = n + d + r + t + s + 4 lies past every breakpoint of the degree
    formulas.  The top degree T(M + 1, M - n + 1) is held to the KummerQuery
    bit budget, so an n past the series' reach raises a DomainError that
    names n.  D(a, n) is None unless the last three cells decay by exactly
    1/l**2 per step; it adds cell_M / (l**2 - 1) for the tail.
    """
    ell = shape.ell
    top = n + shape.depth + shape.unit_level + prof.stall + (prof.zeta4_stall or 0) + 4
    j = top - n + (n > 0)  # the top degree is T(top + 1, j)
    if (top + 1 + j) * ell.bit_length() > MAX_VALUATION_BITS:
        raise DomainError(f"valuation {n} too large for the series at l = {ell}: its top degree "
                          f"T(m={top + 1}, j={j}) needs (m + j) * {ell.bit_length()} "
                          f"<= {MAX_VALUATION_BITS}")
    # per cell: T(m, j), T(m + 1, j) for j = m - n, then for j = m - n + 1 when n >= 1
    shifts = (0, 1) if n else (0,)
    degrees = [kummer_degree(ell, lev, m - n + i, shape, prof, special) if lev else 1
               for m in range(n, top + 1) for i in shifts for lev in (m, m + 1)]
    den = lcm(*degrees)
    nums = [den // t for t in degrees]
    cells = list(map(sub, nums[::2], nums[1::2]))  # f(m, j) numerators
    if n:
        cells = list(map(sub, cells[::2], cells[1::2]))
    ell2 = ell * ell
    if cells[-2] != cells[-1] * ell2 or cells[-3] != cells[-2] * ell2:
        return tuple(cells), den, None  # density_series raises, naming its a
    value = Fraction(sum(cells) * (ell2 - 1) + cells[-1], den * (ell2 - 1))
    return tuple(cells), den, DensityValue(value, "series", "layer-sum", (("layers", len(cells)),))


def density_series(a: Element, ell: int, n: int = 0) -> DensityValue:
    """D(a, n) summed over v = v_l(Np - 1) from Kummer degrees, with an exact tail.

    The cells and their sum come from series_cells, computed once per shape
    of a and n (see there) per process; that is exact because the series
    reads a only through its shape.  The last three cells must decay by
    exactly 1/l**2 per step (anything else is a formula bug and raises an
    error naming a), and the tail past the top cell is cell_M / (l**2 - 1).
    """
    if a.is_zero:
        raise DomainError("density of zero is undefined")
    if is_root_of_unity(a):
        raise DomainError("series evaluation expects a non-torsion element")
    if n < 0:
        raise DomainError("valuation must be nonnegative")
    _, prof, special, shape = _analysis(a, ell)
    cells, den, value = series_cells(shape, prof, special, n)
    if value is None:
        raise InvariantError(
            f"series for n = {n} did not stabilize by layer {n + len(cells) - 1} for {a}: tail "
            f"{', '.join(str(Fraction(c, den)) for c in cells[-3:])}")
    return value


# kind: which structural form applied, None when neither
ShapeReport = namedtuple("ShapeReport", "kind value detail")


def shape_check(a: Element, ell: int) -> ShapeReport:
    """Assert the structural form the density must take for this field.

    Without l-th roots of unity in K the density must equal
    1 - (1/[K(zeta_l):K]) * l**(1-d) / (l+1); with them (or with i in K
    for l = 2) it must be 1/(l**n (l+1)) or its complement for some n >= 0.
    Violations raise ShapeViolation naming a; the verdict itself is computed
    once per shape per process, by _shape_report.
    """
    if a.is_zero or is_root_of_unity(a):
        raise DomainError("shape checks expect a non-torsion element")
    dec, prof, special, shape = _analysis(a, ell)
    try:
        report = _shape_report(shape, prof, special)
    except InvariantError:
        _closed(dec, prof, special)  # words a negated-power disagreement with a's base
        raise
    if isinstance(report, str):
        raise ShapeViolation(f"{a}: {report}")
    return report


@lru_cache(maxsize=4096)
def _shape_report(shape: Decomposition, prof: CycloProfile, special: bool) -> ShapeReport | str:
    """shape_check's ShapeReport for a non-torsion shape, or why it is violated, keyed as
    _shape_closed is.  It checks _closed, so it is cached apart from _shape_closed."""
    ell = shape.ell
    got = _closed(shape, prof, special, 0, shape).value
    p, q = got.numerator, got.denominator
    if ell != 2 and not prof.has_zeta_ell and prof.stall == 1:
        # got == 1 - num/den, cross-multiplied
        num = ell ** max(1 - shape.depth, 0)
        den = prof.degree * (ell + 1) * ell ** max(shape.depth - 1, 0)
        if p * den != (den - num) * q:
            return f"expected {Fraction(den - num, den)}, computed {got}"
        return ShapeReport("cyclotomic-scaled", got, f"d={shape.depth}")
    if (ell != 2 and prof.has_zeta_ell) or (ell == 2 and prof.has_zeta4):
        # got and 1 - got = (q - p)/q share the lowest-terms denominator q
        k = q // (ell + 1)
        if q % (ell + 1) == 0 and k == ell ** valuation(k, ell) and 1 in (p, q - p):
            return ShapeReport("pure", got, f"1/(l^n(l+1)) side={'direct' if p == 1 else 'complement'}")
        return f"{got} is not 1/(l^n(l+1)) or its complement"
    return ShapeReport(None, got, "no mandated shape for this field")
