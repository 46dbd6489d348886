"""The valuation ladder: a's normal form shifted by k against a**(l**k) rebuilt.

Decomposition.shape(k) must describe a**(l**k) exactly as decompose does when
handed the power itself, and for a root of unity the order the closed form
reads must be that of a**(l**k).  density(a, l, n) must equal the difference
of the closed forms at a**(l**n) and a**(l**(n-1)), the two-power reference
computation.  Bases are not compared: they may differ by a sign (for a = -3
over Q with l = 2, a's base is -3 while decompose(9) picks 3), and the
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
    analyze,
    cyclo_profile,
    decompose,
    density,
    density_closed,
    is_root_of_unity,
    roots_of_unity,
    special_case_flag,
    unit_order,
)
from ordens.density import _closed
from ordens.field import valuation
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
    dec = decompose(a, ell)
    direct = decompose(a ** ell ** k, ell)
    if is_root_of_unity(a):
        assert dict(_closed(*analyze(a, ell), k).params)["order"] == unit_order(a ** ell ** k)
    else:
        assert dec.shape(k) == direct.shape()
    assert _flag(a, ell, dec.base) == _flag(a, ell, direct.base)


@LADDER
@given(ladders(first_k=1))
def test_density_is_the_two_power_difference(case):
    a, ell, n = case
    reference = (density_closed(a ** ell ** n, ell).value
                 - density_closed(a ** ell ** (n - 1), ell).value)
    assert density(a, ell, n).value == reference


def test_torsion_at_every_n():
    """A root of unity xi has order valuation v_l(order of xi) at every prime, so
    D(xi, n) is 1 at that n and 0 at every other."""
    for field in (QQ, FieldSpec(-1), FieldSpec(-3)):
        for xi, order in unit_orders(field).items():
            for ell in (2, 3, 5):
                v = valuation(order, ell)
                assert [density(xi, ell, n).value for n in range(5)] == \
                    [int(n == v) for n in range(5)], (xi, ell)
