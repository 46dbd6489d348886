"""Roots of unity, l-th roots, strong indivisibility, and the normal form."""

from __future__ import annotations

import time
from fractions import Fraction
from math import isqrt

import pytest
from conftest import FIELDS
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordens import (
    QQ,
    Case,
    Decomposition,
    DomainError,
    Element,
    FieldSpec,
    InvariantError,
    analyze,
    decompose,
    density,
    is_root_of_unity,
    lth_roots,
    parse_element,
    roots,
    roots_of_unity,
    unit_order,
)
from ordens.density import _closed
from ordens.field import valuation
from ordens.roots import norm_roots, unit_orders

GAUSS = FieldSpec(-1)
EISEN = FieldSpec(-3)
RT2 = FieldSpec(2)
RT3 = FieldSpec(3)


def is_strongly_indivisible(a, ell):
    """True when a*xi has no l-th root for every l-power root of unity xi.

    The reference for decompose's base; roots of unity never qualify.
    """
    if is_root_of_unity(a):
        return False
    return all(not lth_roots(a * xi, ell) for xi in roots_of_unity(a.field, ell))


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


class TestRootsOfUnity:
    def test_gaussian_two_torsion(self):
        got = roots_of_unity(GAUSS, 2)
        assert got == [elem(GAUSS, 1), elem(GAUSS, -1), elem(GAUSS, 0, 1), elem(GAUSS, 0, -1)]
        assert len(roots_of_unity(GAUSS, 2)) == 2 ** 2

    def test_eisenstein_three_torsion(self):
        z = elem(EISEN, Fraction(-1, 2), Fraction(1, 2))
        assert roots_of_unity(EISEN, 3) == [elem(EISEN, 1), z, z * z]
        assert len(roots_of_unity(EISEN, 3)) == 3 ** 1

    def test_real_field_has_no_cube_roots(self):
        assert roots_of_unity(RT3, 3) == [elem(RT3, 1)]
        assert len(roots_of_unity(RT3, 3)) == 3 ** 0

    def test_plain_two_torsion(self):
        assert roots_of_unity(QQ, 2) == [elem(QQ, 1), elem(QQ, -1)]
        assert len(roots_of_unity(QQ, 2)) == 2 ** 1

    def test_unit_orders(self):
        assert unit_order(elem(GAUSS, 0, -1)) == 4
        assert unit_order(elem(EISEN, Fraction(1, 2), Fraction(1, 2))) == 6
        with pytest.raises(DomainError):
            unit_order(elem(QQ, 2))


@pytest.mark.parametrize("field", [QQ, GAUSS, EISEN], ids=str)
def test_every_root_of_unity_passes_the_size_pretest(field):
    # is_root_of_unity rejects den > 2 and |u| > 1 before the table lookup
    for xi in unit_orders(field):
        assert xi.den <= 2 and -1 <= xi.u <= 1 and is_root_of_unity(xi)
        assert not any(is_root_of_unity(xi * elem(field, q)) for q in (2, Fraction(1, 3), -3))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, GAUSS, EISEN, FieldSpec(2), FieldSpec(-7)]),
       st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4))
def test_is_root_of_unity_agrees_with_the_unit_table(field, x, y):
    e = elem(field, x, 0 if field.is_rational else y)
    assert is_root_of_unity(e) == (e in unit_orders(field))


class TestLthRoots:
    def test_square_roots_of_minus_nine_gaussian(self):
        got = lth_roots(elem(GAUSS, -9), 2)
        assert got == {elem(GAUSS, 0, 3), elem(GAUSS, 0, -3)}
        for b in got:
            assert b ** 2 == elem(GAUSS, -9)

    def test_eight_is_not_a_rational_square(self):
        assert lth_roots(elem(QQ, 8), 2) == set()

    def test_sqrt2_roots(self):
        assert lth_roots(elem(RT2, 2), 2) == {elem(RT2, 0, 1), elem(RT2, 0, -1)}

    def test_twelve_over_sqrt3(self):
        assert lth_roots(elem(RT3, 12), 2) == {elem(RT3, 0, 2), elem(RT3, 0, -2)}

    def test_trace_zero_square_roots_regression(self):
        # square roots of -4 in Q(i): a rational c whose roots have trace 0
        assert lth_roots(elem(GAUSS, -4), 2) == {elem(GAUSS, 0, 2), elem(GAUSS, 0, -2)}

    def test_cube_roots_with_unit_twists(self):
        got = lth_roots(elem(EISEN, 8), 3)
        z = elem(EISEN, Fraction(-1, 2), Fraction(1, 2))
        assert got == {elem(EISEN, 2), elem(EISEN, 2) * z, elem(EISEN, 2) * z * z}

    def test_rational_cube_root(self):
        assert lth_roots(elem(QQ, -27), 3) == {elem(QQ, -3)}

    def test_soundness_everything_returned_is_a_root(self):
        for field, x, y, ell in [(GAUSS, 16, 0, 2), (EISEN, -4, 4, 3), (RT2, 9, 0, 2)]:
            c = elem(field, x, y)
            for b in lth_roots(c, ell):
                assert b ** ell == c

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            lth_roots(elem(QQ, 0), 2)

    def test_every_odd_ell_lifts_without_a_cap(self):
        # no cap on l: the root is lifted at one prime for every odd l
        unit = elem(RT2, 1, 1)  # norm -1, so every odd l passes the norm test
        for ell in (61, 67, 211):
            assert lth_roots(unit ** ell, ell) == {unit}
            assert lth_roots(unit, ell) == set()
        assert lth_roots(elem(QQ, 3) ** 67, 67) == {elem(QQ, 3)}
        assert lth_roots(elem(RT2, 3) ** 67, 67) == {elem(RT2, 3)}

    def test_large_denominator_power_is_fast(self):
        # b**7 with 500-bit coordinates over 7**178: den(c) = den(b)**7 is a 7th power,
        # so the lift is scaled by den(b), not by den(c)
        bits = 4096 // 7 - 8
        den = 7 ** (bits * 100 // 281)
        b = Element(GAUSS, Fraction(3 ** (bits * 100 // 159) + 1, den),
                    Fraction(2 ** bits - 1, den))
        start = time.perf_counter()
        assert density(b ** 7, 7).value == Fraction(47, 48)
        assert time.perf_counter() - start < 2.0

    def test_large_denominator_not_an_lth_power_is_fast(self):
        # 1+i divides b's numerator, so den(b**7) = 2**(7*C - 3) is no 7th power; the
        # lift is scaled by 2**ceil(v_2/7), not by den(c)
        bits = 4096 // 7 - 8
        b = Element(GAUSS, Fraction(3 ** (bits * 100 // 159), 2 ** (bits * 100 // 160)),
                    Fraction(2 ** bits - 1, 2 ** (bits * 100 // 160)))
        c = b ** 7
        assert c.den & (c.den - 1) == 0 and (c.den.bit_length() - 1) % 7  # 2**v, 7 does not divide v
        start = time.perf_counter()
        assert lth_roots(c, 7) == {b}
        assert time.perf_counter() - start < 2.0

    def test_deep_lift_with_no_root_is_fast(self, monkeypatch):
        # c = b**61 * g/conj(g) has a norm that is a 61st power and 3,400-bit coordinates, so
        # it passes the norm test, and one lift shows that it has no root
        field = FieldSpec(-7)
        g = Element(field, 1, 1)
        c = Element(field, 3 ** 35, 2 * 5 ** 24) ** 61 * g / g.conjugate()
        assert c.u.bit_length() > 3400 and norm_roots(c, 61)
        lifted = []

        def lift(*args):
            lifted.append(args[1])
            return lift_root(*args)

        lift_root = roots._lift
        monkeypatch.setattr(roots, "_lift", lift)
        start = time.perf_counter()
        assert lth_roots(c, 61) == set()
        assert time.perf_counter() - start < 0.5
        assert lifted == [61]

    def test_prime_choice_past_every_usable_prime_below_1000(self):
        # at l = 3 over Q(i) the lift needs a split q (q = 1 mod 4) with 3 not dividing q - 1;
        # b is one Gaussian prime above each p = 1 mod 4 below 1000 times every p = 3 mod 4
        # below 1000, so N(b**3) has every such q below 1000, and the search runs on to 1013
        b = Element(GAUSS, 1)
        for p in range(3, 1000, 2):
            if any(p % f == 0 for f in range(3, p, 2)):
                continue
            if p % 4 == 3:
                b *= Element(GAUSS, p)
            else:  # x + y*i with x**2 + y**2 = p
                x = next(x for x in range(p) if isqrt(p - x * x) ** 2 == p - x * x)
                b *= Element(GAUSS, x, isqrt(p - x * x))
        c = b ** 3
        norm = c.u * c.u + c.w * c.w
        assert c.u.bit_length() == 3140
        assert all(norm % q == 0 for q in range(5, 1000, 12) if all(q % f for f in range(3, q, 2)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert lth_roots(c, 3) == {b}
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05

    @pytest.mark.parametrize("v,ell,roots", [(4094, 2, 2), (4095, 2, 0), (4092, 3, 1), (4093, 3, 0)])
    def test_large_power_of_two_denominator(self, v, ell, roots):
        # 2 ramifies in Q(i): v_2(den(c)) need not be a multiple of l, and the scale
        # takes 2**ceil(v/l) in log(v)-many blocks
        c = elem(GAUSS, Fraction(1, 2 ** v))
        got = lth_roots(c, ell)
        assert len(got) == roots and all(b ** ell == c for b in got)

    def test_denominator_prime_to_2d_not_an_lth_power(self):
        # (2+i)/(2-i) = (3+4i)/5 has norm 1, but v_5(den) = 1 is no multiple of 3
        c = elem(GAUSS, Fraction(3, 5), Fraction(4, 5))
        assert lth_roots(c, 3) == set()
        assert lth_roots(c ** 3, 3) == {c}


# Every root of a rational c over Q(sqrt d) is b*zeta or b*zeta*sqrt(d) for a rational b
# (x**l - c is irreducible over Q unless c = b**l), so for the inputs below, all built
# from the rationals of _RATIONAL_BASES, every root lies in this box.  A root b of
# c = e**l * xi, for e in the box and xi a root of unity, has (b/e)**(l * order(xi)) = 1,
# so b lies in the box times the roots of unity.
_RATIONAL_BASES = [Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-4, 3)]
_BOX_COORDINATES = sorted({Fraction(s * n, m) for s in (1, -1) for n in range(5) for m in range(1, 5)})


@pytest.mark.parametrize("field", [GAUSS, EISEN, RT3, FieldSpec(-2)], ids=str)
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_lth_roots_of_a_rational_match_a_brute_force_search(field, ell, monkeypatch):
    units = list(unit_orders(field))
    sqrt_d = Element(field, 0, 1)
    cs = {(Element(field, b) * z * s) ** ell for b in _RATIONAL_BASES for z in units
          for s in (Element(field, 1), sqrt_d)}
    cs = {c for c in cs if c.w == 0} | {Element(field, 2)}  # 2 has no root in any of them
    box = [Element(field, x, y) for x in _BOX_COORDINATES for y in _BOX_COORDINATES]

    def no_lift(*args):
        raise AssertionError("a rational c needs no lift")

    with monkeypatch.context() as patch:
        patch.setattr(roots, "_lift", no_lift)
        found = 0
        for c in cs:
            got = lth_roots(c, ell)
            assert got == {e for e in box if e ** ell == c}, c
            found += bool(got)
        assert found and found < len(cs)
        if field == RT3 and ell == 2:  # 12/3 is a square: the roots are +-2*sqrt(3)
            assert Element(field, 12) in cs
            assert lth_roots(Element(field, 12), 2) == {elem(RT3, 0, 2), elem(RT3, 0, -2)}
    # non-rational c: powers of box elements times roots of unity, and the box itself
    # (a root of a box element outside the wider box would fail here, never pass)
    powers: dict[Element, set[Element]] = {}
    for e in {e * z for e in box for z in units}:
        powers.setdefault(e ** ell, set()).add(e)
    cs = {e ** ell * z for e in box[::3] for z in units if not e.is_zero} | set(box)
    cs = [c for c in cs if c.w]
    found = 0
    for c in cs:
        got = lth_roots(c, ell)
        assert got == powers.get(c, set()), c
        found += bool(got)
    assert 0 < found < len(cs)


def _is_rational_power(q, ell):
    """Whether the small rational q is an l-th power, by rounding float roots."""
    num, den = abs(q.numerator), q.denominator
    return ((q >= 0 or ell % 2 == 1) and round(num ** (1 / ell)) ** ell == num
            and round(den ** (1 / ell)) ** ell == den)


@pytest.mark.parametrize("field", [GAUSS, EISEN, RT2, RT3, FieldSpec(-7), FieldSpec(17)], ids=str)
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_depth_zero_returns_at_the_norm_test(field, ell, monkeypatch):
    """When N(a) is not an l-th power in Q, decompose returns a = a**1 * 1 without
    taking a root or listing a unit, and still checks the round trip."""
    def boom(*args):
        raise AssertionError("the depth-0 return searches nothing")

    monkeypatch.setattr(roots, "lth_roots", boom)
    monkeypatch.setattr(roots, "roots_of_unity", boom)
    grid = [Fraction(n, m) for n in range(-6, 7) for m in (1, 2, 5)]
    inputs = [elem(field, x, y) for x in grid[::3] for y in grid[1::4] if x or y]
    inputs = [a for a in inputs if not _is_rational_power(a.x ** 2 - field.d * a.y ** 2, ell)]
    assert len(inputs) > 50
    for a in inputs:
        assert decompose(a, ell) == Decomposition(ell, Case.POWER, 0, a, Element(field, 1), 0)
    monkeypatch.setattr(Decomposition, "recompose", lambda dec: Element(field, 1))
    with pytest.raises(InvariantError):
        decompose(inputs[0], ell)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 13]), st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.fractions(-40, 40, max_denominator=6), st.fractions(-40, 40, max_denominator=6))
def test_lth_roots_of_a_power_are_its_unit_twists(d, ell, x, y):
    """Over Q(sqrt d): the l-th roots of b**l are exactly b times the l-th roots of 1."""
    field = FieldSpec(d)
    b = Element(field, x, y) if x or y else Element(field, 2)
    one = Element(field, 1)
    assert lth_roots(b ** ell, ell) == {b * z for z in roots_of_unity(field, ell) if z ** ell == one}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, GAUSS, EISEN, FieldSpec(5)]),
       st.fractions(-50, 50, max_denominator=30), st.fractions(-50, 50, max_denominator=30))
def test_dividing_by_a_root_of_unity_multiplies_by_its_conjugate(field, x, y):
    """decompose builds a/xi as a * conjugate(xi), since xi * conjugate(xi) = 1."""
    a = Element(field, x, 0 if field.is_rational else y)
    for xi in unit_orders(field):
        assert xi * xi.conjugate() == Element(field, 1)
        assert a * xi.conjugate() == a / xi


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([f for f in FIELDS if not f.is_rational]), st.sampled_from([2, 3, 5, 7]),
       st.integers(0, 1), st.booleans(), st.data())
def test_depth_zero_exactly_when_no_unit_twist_has_a_root(field, ell, k, twist, data):
    """decompose's norm pretest agrees with the full search over every l-power unit.

    Inputs are b**(l**k) * xi, times c/conjugate(c) (norm 1, rarely an l-th power)
    when twist is set, so the pretest passes on inputs of depth 0 as well.
    """
    def draw_element():
        return Element(field, data.draw(st.fractions(-30, 30, max_denominator=9)),
                       data.draw(st.fractions(-30, 30, max_denominator=9)))

    a = draw_element() ** (ell ** k) * data.draw(st.sampled_from(list(unit_orders(field))))
    if twist:
        c = draw_element()
        assume(not c.is_zero)
        a = a * c / c.conjugate()
    assume(not a.is_zero and not is_root_of_unity(a))
    no_root = not any(lth_roots(a * xi.conjugate(), ell) for xi in roots_of_unity(field, ell))
    assert (decompose(a, ell).depth == 0) == no_root


def full_search(a, ell):
    """decompose's normal form by the breadth-first search over every l-power unit,
    with no norm pretest: the reference for its depth-0 path."""
    mu = roots_of_unity(a.field, ell)
    orders = unit_orders(a.field)
    level = winners = {xi: {a * xi.conjugate()} for xi in mu}
    depth = 0
    while True:
        nxt = {xi: set().union(*(lth_roots(z, ell) for z in elems)) for xi, elems in level.items()}
        nxt = {xi: roots for xi, roots in nxt.items() if roots}
        if not nxt:
            break
        level = winners = nxt
        depth += 1
    xi = min(winners, key=lambda u: (orders[u], mu.index(u)))
    case = Case.POWER if orders[xi] == 1 else Case.POWER_TIMES_UNIT
    return Decomposition(ell, case, depth, max(winners[xi], key=lambda e: (e.x, e.y)), xi,
                         valuation(orders[xi], ell))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([f for f in FIELDS if not f.is_rational]), st.sampled_from([2, 3, 5, 7]),
       st.sampled_from(["random", "twist", "power"]), st.data())
def test_depth_zero_path_returns_the_full_search_normal_form(field, ell, kind, data):
    """decompose equals the reference search on random elements (the norm pretest fails
    for almost all, so only xi = 1 is searched), on b**l * c/conjugate(c) (norm N(b)**l,
    so the pretest passes, and the depth is almost always 0), and on b**l * xi (depth >= 1)."""
    def draw_element():
        return Element(field, data.draw(st.fractions(-30, 30, max_denominator=9)),
                       data.draw(st.fractions(-30, 30, max_denominator=9)))

    a = draw_element()
    if kind == "twist":
        c = draw_element()
        assume(not c.is_zero)
        a = a ** ell * c / c.conjugate()
    elif kind == "power":
        a = a ** ell * data.draw(st.sampled_from(list(unit_orders(field))))
    assume(not a.is_zero and not is_root_of_unity(a))
    assert decompose(a, ell) == full_search(a, ell)


class TestStrongIndivisibility:
    def test_three_i_is_strongly_indivisible(self):
        assert is_strongly_indivisible(elem(GAUSS, 0, 3), 2)

    def test_two_is_divisible_through_i(self):
        # 2*i = (1+i)**2, so 2 is not strongly indivisible in Q(i)
        assert not is_strongly_indivisible(elem(GAUSS, 2), 2)

    def test_sqrt2_strongly_indivisible(self):
        assert is_strongly_indivisible(elem(RT2, 0, 1), 2)

    def test_roots_of_unity_never_qualify(self):
        assert not is_strongly_indivisible(elem(GAUSS, 0, 1), 2)
        assert is_root_of_unity(elem(GAUSS, 0, 1))


class TestDecompose:
    def test_four_in_gaussian(self):
        dec = decompose(elem(GAUSS, 4), 2)
        assert (dec.case, dec.depth, dec.unit_level) == (Case.POWER_TIMES_UNIT, 2, 1)
        assert dec.base == elem(GAUSS, 1, 1)
        assert dec.unit == elem(GAUSS, -1)

    def test_sixteen_in_sqrt2(self):
        dec = decompose(elem(RT2, 16), 2)
        assert (dec.case, dec.depth) == (Case.POWER, 3)
        assert dec.base == elem(RT2, 0, 1)
        assert dec.unit == elem(RT2, 1)

    def test_eight_zeta3(self):
        z = elem(EISEN, Fraction(-1, 2), Fraction(1, 2))
        dec = decompose(elem(EISEN, 8) * z, 3)
        assert (dec.case, dec.depth, dec.unit_level) == (Case.POWER_TIMES_UNIT, 1, 1)
        assert dec.base == elem(EISEN, 2)
        assert dec.unit == z

    def test_minus_nine_absorbs_sign(self):
        dec = decompose(elem(GAUSS, -9), 2)
        assert (dec.case, dec.depth, dec.unit_level) == (Case.POWER, 1, 0)
        assert dec.base == elem(GAUSS, 0, 3)

    # Units of one order tie only over Q(i) at l = 2 (a/i and a/-i differ by the
    # square -1): canonical order picks i.  Over Q(sqrt -3) at l = 3 one unit
    # reaches depth 1, and the base is the largest of the three cube roots.
    @pytest.mark.parametrize("field,text,ell,base,unit", [
        (GAUSS, "9*i", 2, "3", "i"),
        (GAUSS, "-9*i", 2, "3*i", "i"),
        (EISEN, "8*zeta3", 3, "2", "zeta3"),
        (EISEN, "8*zeta3^2", 3, "2", "zeta3^2"),
    ])
    def test_tie_cases_are_canonical(self, field, text, ell, base, unit):
        dec = decompose(parse_element(text, field), ell)
        assert (dec.case, dec.depth) == (Case.POWER_TIMES_UNIT, 1)
        assert dec.base == parse_element(base, field)
        assert dec.unit == parse_element(unit, field)

    def test_root_of_unity_short_circuits(self):
        dec = decompose(elem(GAUSS, 0, -1), 2)
        assert dec.case is Case.ROOT_OF_UNITY

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            decompose(elem(QQ, 0), 2)

    def test_raised_absorbs_the_unit(self):
        # 4 = (1+i)**4 * (-1) in Q(i); 16 = (1+i)**8 is a plain power
        dec = decompose(elem(GAUSS, 4), 2)
        up = dec.shape(1)
        assert (up.case, up.depth, up.unit_level) == (Case.POWER, 3, 0)
        assert up == decompose(elem(GAUSS, 16), 2).shape()
        assert dec.shape(0) == dec._replace(base=None, unit=None)

    def test_raised_keeps_a_unit_of_higher_level(self):
        # 4i = (1+i)**4 * (-i) in Q(i): the unit of order 4 survives one step
        up = decompose(elem(GAUSS, 0, 4), 2).shape(1)
        assert (up.case, up.depth, up.unit_level) == (Case.POWER_TIMES_UNIT, 3, 1)
        assert up == decompose(elem(GAUSS, -16), 2).shape()

    def test_raised_root_of_unity(self):
        # the closed form reads the order of xi**(2**k), k = 0, 1, 2
        z = elem(EISEN, Fraction(-1, 2), Fraction(1, 2))
        dec = decompose(z, 2)
        assert dec.unit == z and dec.recompose() == z

        def orders(xi):
            return [dict(_closed(*analyze(xi, 2), k).params)["order"] for k in range(3)]

        assert orders(z) == [3, 3, 3] and orders(-z) == [6, 3, 3]
        assert orders(elem(GAUSS, 0, 1)) == [4, 2, 1]

    def test_round_trip_and_base_strongly_indivisible(self, corpus):
        for a, ell in corpus[::7]:
            dec = decompose(a, ell)
            if dec.case is Case.ROOT_OF_UNITY:
                continue
            assert dec.recompose() == a
            assert is_strongly_indivisible(dec.base, ell)

    def test_unit_level_exceeds_absorbable_range(self, corpus):
        # whenever a unit is kept, its order valuation must beat t - d
        for a, ell in corpus[::5]:
            dec = decompose(a, ell)
            if dec.case is Case.POWER_TIMES_UNIT:
                # the l-power roots of unity number l**t
                count = len(roots_of_unity(a.field, ell))
                t = next(t for t in range(count) if ell ** t == count)
                assert dec.unit_level > max(0, t - dec.depth)
