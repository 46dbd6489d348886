"""The valuation ladder: a's normal form shifted by k against a**(l**k) rebuilt.

Decomposition.raised(k) must describe a**(l**k) exactly as decompose does
when handed the power itself, and density(a, l, n) must equal the difference
of the closed forms at a**(l**n) and a**(l**(n-1)), the two-power reference
computation.  Bases are not compared: they may differ by a sign (for a = -3
over Q with l = 2, raised(1) keeps -3 while decompose(9) picks 3), and the
halving flag, which is compared, does not see that sign.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordens import (
    QQ,
    Element,
    FieldSpec,
    cyclo_profile,
    decompose,
    density,
    density_closed,
    roots_of_unity,
    special_case_flag,
    unit_order,
)
from ordens.roots import unit_orders

FIELDS = [QQ] + [FieldSpec(d) for d in (-3, -2, -1, 2, 3, 5)]
LADDER = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _coordinate(draw) -> Fraction:
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))


@st.composite
def ladders(draw, first_k: int) -> tuple[Element, int, int]:
    """(a, l, k) with a = b**(l**j) * xi for small b, j <= 1 and a root of unity xi."""
    field = draw(st.sampled_from(FIELDS))
    ell = draw(st.sampled_from([2, 3, 5]))
    y = Fraction(0) if field.is_rational else _coordinate(draw)
    b = Element(field, _coordinate(draw), y)
    if b.is_zero:
        b = Element(field, draw(st.sampled_from([2, -3, 6])))
    k = draw(st.integers(first_k, 3))
    j = draw(st.integers(0, 1 if ell ** (k + 1) <= 125 else 0))  # keeps a**(l**k) small
    # l-power roots of unity twice as likely: they are the units that can survive
    xi = draw(st.sampled_from(roots_of_unity(field, ell) + list(unit_orders(field))))
    return b ** ell ** j * xi, ell, k


def _flag(a: Element, ell: int, base: Element | None) -> bool | None:
    prof = cyclo_profile(a.field, ell)
    if ell != 2 or prof.has_zeta4 or base is None:
        return None
    return special_case_flag(a.field, prof, base)


@LADDER
@given(ladders(first_k=0))
def test_raised_matches_the_decomposed_power(case):
    a, ell, k = case
    shifted = decompose(a, ell).raised(k)
    direct = decompose(a ** ell ** k, ell)
    assert (shifted.case, shifted.depth, shifted.unit_level) == \
        (direct.case, direct.depth, direct.unit_level)
    assert unit_order(shifted.unit) == unit_order(direct.unit)
    assert _flag(a, ell, shifted.base) == _flag(a, ell, direct.base)
    assert shifted.recompose() == a ** ell ** k


@LADDER
@given(ladders(first_k=1))
def test_density_is_the_two_power_difference(case):
    a, ell, n = case
    reference = (density_closed(a ** ell ** n, ell).value
                 - density_closed(a ** ell ** (n - 1), ell).value)
    assert density(a, ell, n).value == reference
