"""l-th roots over quadratic fields against exhaustive searches: lth_roots over
every small integral c and over rational l-th powers."""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

import pytest

from ordens import Element, FieldSpec, lth_roots
from ordens.roots import unit_orders

_FIELDS = [FieldSpec(-1), FieldSpec(-3), FieldSpec(2), FieldSpec(5), FieldSpec(-7)]
_REACH = 20  # c = u + w*sqrt(d) with |u|, |w| <= _REACH


def _brute_force_powers(field, ell, reach):
    """{c: its roots} over every b = (tau + v*sqrt(d)) / 2 that can be a root of a c in the box.

    Each conjugate of c is at most reach * (1 + sqrt|d|), so each conjugate of a root b is
    at most m = that**(1/l), and |tau|, |v|*sqrt|d| are at most 2*m.
    """
    m = (reach * (1 + sqrt(abs(field.d)))) ** (1 / ell)
    t_max, v_max = int(2 * m) + 1, int(2 * m / sqrt(abs(field.d))) + 1
    powers: dict[Element, set[Element]] = {}
    for tau in range(-t_max, t_max + 1):
        for v in range(-v_max, v_max + 1):
            b = Element(field, Fraction(tau, 2), Fraction(v, 2))
            if not b.is_zero:
                powers.setdefault(b ** ell, set()).add(b)
    return powers


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_every_small_integral_c(ell):
    """Every non-rational integral c = u + w*sqrt(d) with |u|, |w| <= _REACH."""
    found = 0
    for field in _FIELDS:
        powers = _brute_force_powers(field, ell, _REACH)
        for u in range(-_REACH, _REACH + 1):
            for w in range(-_REACH, _REACH + 1):
                if w:
                    c = Element(field, u, w)
                    got = lth_roots(c, ell)
                    assert got == powers.get(c, set()), (field, c)
                    found += bool(got)
    assert found


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_roots_of_a_rational_c(ell):
    # c = s**l: the roots are s times the l-th roots of unity of the field
    for field in _FIELDS:
        mu = [z for z in unit_orders(field) if z ** ell == Element(field, 1)]
        powers = _brute_force_powers(field, ell, 6 ** ell)
        for s in [Fraction(n) for n in range(-6, 7) if n] + [Fraction(-5, 3), Fraction(1, 2)]:
            c = Element(field, s ** ell)
            got = lth_roots(c, ell)
            assert got == {Element(field, s) * z for z in mu}, (field, s)
            if s.denominator == 1:
                assert got == powers[c], (field, s)
    # over Q(sqrt -3), c = 8 has the cube roots 2, 2*zeta3, 2*zeta3**2, of traces 4, -2, -2
    eisen = FieldSpec(-3)
    got = lth_roots(Element(eisen, 8), 3)
    assert got == {Element(eisen, 2), Element(eisen, -1, 1), Element(eisen, -1, -1)}
    assert sorted(2 * b.x for b in got) == [-2, -2, 4]
