"""Rational root extraction, including repeated roots and huge coefficients."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordens.ratroots import poly_eval, rational_roots_monic
from ordens.roots import _power_sum_poly


def roots(poly):
    return sorted(rational_roots_monic(poly))


def test_linear():
    assert roots([3, 1]) == [-3]
    assert roots([-1, 1]) == [1]  # x - 1/2 with u = 2x
    assert roots([1]) == []  # the constant 1


def test_quadratic():
    assert roots([-16, 0, 1]) == [-4, 4]
    assert roots([2, 0, 1]) == []
    assert roots([0, 0, 1]) == [0]  # double root at zero


def test_double_root_not_missed():
    # (x - 2)**2 * (x + 3) = x**3 - x**2 - 8x + 12
    assert roots([12, -8, -1, 1]) == [-3, 2]


def test_cubic_with_repeated_factor():
    # (x + 2)**2 * (x - 4) = x**3 - 12x - 16
    assert roots([-16, -12, 0, 1]) == [-2, 4]


def test_cubic_no_rational_roots():
    assert roots([8, -12, 0, 1]) == []  # x**3 - 12x + 8


def test_rational_coefficients():
    # (x - 1/2)(x - 3)(x + 5/2) with u = 2x: (u - 1)(u - 6)(u + 5) = u**3 - 2u**2 - 29u + 30
    assert roots([30, -29, -2, 1]) == [-5, 1, 6]


def test_quintic_mixed():
    # x(x - 1)(x + 1)(x**2 + 1)
    assert roots([0, -1, 0, 0, 0, 1]) == [-1, 0, 1]


def test_huge_coefficients():
    r = 2 ** 300
    assert roots([-r * r, 0, 1]) == [-r, r]
    # degree 3 with a large exact root
    big = 5 ** 80
    # (x - big)(x**2 + x + 1)
    poly = [-big, 1 - big, 1 - big, 1]
    assert roots(poly) == [big]


def test_requires_monic():
    with pytest.raises(ValueError):
        rational_roots_monic([1, 2])


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _brute_force_roots(g):
    reach = 1 + max(abs(c) for c in g)  # Cauchy's bound for a monic g
    return {u for u in range(-reach, reach + 1) if poly_eval(g, u) == 0}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-60, 60), st.integers(-2 ** 200, 2 ** 200)), max_size=6),
       st.integers(0, 2),
       st.lists(st.integers(-12, 12), max_size=3))
def test_product_roots_found_exactly(picked, repeats, tail):
    """prod (x - r_i), some r_i repeated, times a small monic factor."""
    rs = picked + picked[:repeats]
    factor = tail + [1]
    g = factor
    for r in rs:
        g = _times(g, [-r, 1])
    got = rational_roots_monic(g)
    assert got == sorted(set(rs) | _brute_force_roots(factor))
    assert all(type(u) is int for u in got)


def _divisor_roots(g):
    """Integer roots by the rational root theorem: 0, or a divisor of the lowest nonzero term."""
    low = next(c for c in g if c)
    cands = {0} | {s * e for e in range(1, abs(low) + 1) if low % e == 0 for s in (1, -1)}
    return sorted(u for u in cands if poly_eval(g, u) == 0)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_resolvent_family_exhaustive(ell):
    """D_l(tau, eta) - t, the resolvent lth_roots solves, over all small eta and t."""
    for eta in range(-12, 13):
        power_sum = _power_sum_poly(ell, eta)
        for t in range(-60, 61):
            g = [power_sum[0] - t] + power_sum[1:]
            assert rational_roots_monic(g) == _divisor_roots(g), (eta, t)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_resolvent_of_a_rational_c(ell):
    # c = s**l: eta = s**2, t = 2*s**l, and the resolvent is (tau - 2s) * h(tau)**2
    for s in range(-6, 7):
        power_sum = _power_sum_poly(ell, s * s)
        g = [power_sum[0] - 2 * s ** ell] + power_sum[1:]
        got = rational_roots_monic(g)
        assert got == _divisor_roots(g) and 2 * s in got
    # over Q(sqrt -3), c = 8 has the cube roots 2, 2*zeta3, 2*zeta3**2, of traces 4, -2, -2
    assert [-16] + _power_sum_poly(3, 4)[1:] == [-16, -12, 0, 1]
    assert rational_roots_monic([-16, -12, 0, 1]) == [-2, 4]
