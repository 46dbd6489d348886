"""Kummer layer degrees: formulas, boundary layers, monotonicity."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import FIELDS
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordens import (
    QQ,
    DomainError,
    Element,
    FieldSpec,
    KummerQuery,
    analyze,
    cyclotomic_degree,
    is_root_of_unity,
    total_degree,
)
from ordens.kummer import MAX_VALUATION_BITS, kummer_degree
from ordens.roots import unit_orders

GAUSS = FieldSpec(-1)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


def query(a, ell, m, n):
    dec, prof, special = analyze(a, ell)
    return KummerQuery(ell, m, n, dec, prof, special)


def relative_degree(q):
    return total_degree(q) // cyclotomic_degree(q.profile, q.m)


class TestRelativeDegree:
    def test_cubic_layers_over_sqrt3(self):
        assert relative_degree(query(elem(RT3, 2), 3, 2, 2)) == 9

    def test_sqrt2_joins_the_tower_at_level_eight(self):
        q = query(elem(QQ, 2), 2, 3, 1)
        assert q.special
        assert relative_degree(q) == 1
        assert relative_degree(query(elem(QQ, 2), 2, 2, 1)) == 2

    def test_power_times_unit_over_gaussian(self):
        a = elem(GAUSS, 0, 4)  # 4i: depth 2, unit of order 4
        assert relative_degree(query(a, 2, 4, 3)) == 2

    def test_low_level_lifts_to_the_stall(self):
        # 2 = (1-i)**2 * i in Q(i); at m = n = 1 the level-2 field equals
        # the level-4 field, so the unit contributes fully
        assert relative_degree(query(elem(GAUSS, 2), 2, 1, 1)) == 2

    def test_negated_power_boundary_layers(self):
        # -a is a square at every layer but sqrt(a) needs +/-1 switched
        assert relative_degree(query(elem(QQ, -9), 2, 1, 1)) == 2
        # m = n >= s with trivial -a degree picks up the fresh root of -1
        assert relative_degree(query(elem(QQ, -16), 2, 2, 2)) == 2
        # halving case: 4th root of -4 is 1+i, already in Q(zeta_4)
        q = query(elem(QQ, -4), 2, 2, 2)
        assert q.special
        assert relative_degree(q) == 1

    def test_degree_divides_ell_power(self):
        for a, ell in [(elem(QQ, 12), 2), (elem(RT3, 2), 3), (elem(GAUSS, 2), 2)]:
            for m in range(1, 7):
                for n in range(m + 1):
                    deg = relative_degree(query(a, ell, m, n))
                    assert ell ** n % deg == 0

    def test_monotone_in_n(self):
        for a, ell in [(elem(QQ, 2), 2), (elem(QQ, -4), 2), (elem(RT3, 2), 3),
                       (elem(GAUSS, 0, 4), 2)]:
            for m in range(1, 8):
                degs = [relative_degree(query(a, ell, m, n)) for n in range(m + 1)]
                for lo, hi in zip(degs, degs[1:]):
                    assert hi % lo == 0 and hi // lo in (1, ell)

    def test_antitone_in_m_stabilizes(self):
        for a, ell in [(elem(GAUSS, 0, 4), 2), (elem(GAUSS, 2), 2), (elem(QQ, 2), 2)]:
            dec, prof, _ = analyze(a, ell)
            # past the unit's reach and past any halving layer, m stops mattering
            floor = (prof.zeta4_stall or 0) + 1
            for n in range(1, 4):
                degs = [relative_degree(query(a, ell, m, n)) for m in range(n, n + 6)]
                for lo, hi in zip(degs, degs[1:]):
                    assert lo % hi == 0 and lo // hi in (1, ell)
                stable = [d for m, d in zip(range(n, n + 6), degs)
                          if m >= max(n + dec.unit_level, floor)]
                assert len(set(stable)) <= 1

    def test_trivial_layer(self):
        assert relative_degree(query(elem(QQ, 2), 2, 5, 0)) == 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            query(elem(QQ, 2), 2, 1, 2)  # n > m
        with pytest.raises(DomainError):
            relative_degree(query(elem(GAUSS, 0, 1), 2, 1, 1))  # torsion

    def test_halving_flag_has_no_default(self):
        # over Q the flag of 2 is set: a default of False would give 8, not 4
        dec, prof, special = analyze(elem(QQ, 2), 2)
        assert special and total_degree(KummerQuery(2, 3, 1, dec, prof, special)) == 4
        with pytest.raises(TypeError):
            KummerQuery(2, 3, 1, dec, prof)

    def test_rejects_normal_form_or_profile_of_another_ell(self):
        # the l = 2 data under l = 3 gave total degree 72; the l = 3 query gives 486
        a = elem(QQ, 3)
        assert total_degree(query(a, 3, 4, 2)) == 486
        dec2, prof2, special2 = analyze(a, 2)
        dec3, prof3, special3 = analyze(a, 3)
        for dec, prof, special in ((dec2, prof2, special2), (dec2, prof3, special3),
                                   (dec3, prof2, special3)):
            with pytest.raises(DomainError):
                KummerQuery(3, 4, 2, dec, prof, special)

    @pytest.mark.parametrize("ell", [2, 3, 31])
    def test_level_budget(self, ell):
        top = MAX_VALUATION_BITS // ell.bit_length()
        m = top - top // 2
        assert len(str(total_degree(query(elem(QQ, 3), ell, m, top - m)))) < 4300  # prints
        with pytest.raises(DomainError):
            query(elem(QQ, 3), ell, m + 1, top - m)
        with pytest.raises(DomainError):
            query(elem(QQ, 3), ell, top + 1, 0)


class TestTotalDegree:
    def test_classic_cubic(self):
        assert total_degree(query(elem(QQ, 2), 3, 1, 1)) == 6

    def test_sqrt2_inside_eighth_cyclotomic(self):
        assert total_degree(query(elem(QQ, 2), 2, 3, 1)) == 4

    def test_over_gaussian(self):
        assert total_degree(query(elem(GAUSS, 3), 2, 1, 1)) == 2

    def test_power_times_unit_total(self):
        assert total_degree(query(elem(GAUSS, 0, 4), 2, 4, 3)) == 8


def test_tower_laws(corpus):
    """T(m, j) = total degree for levels m, j.  Going one level up in m or in j
    multiplies T by a divisor-respecting factor of at most l, and the Kummer
    step over K(zeta_{l^m}) has degree at most l**j."""
    checked = 0
    for a, ell in corpus:
        dec, prof, special = analyze(a, ell)

        def t(m, j):
            return total_degree(KummerQuery(ell, m, j, dec, prof, special))

        for m in range(1, 8):
            for j in range(m + 1):
                here = t(m, j)
                ups = [t(m + 1, j)] + ([t(m, j + 1)] if j < m else [])
                for up in ups:
                    assert up % here == 0 and up // here <= ell, (a, ell, m, j)
                rel = relative_degree(KummerQuery(ell, m, j, dec, prof, special))
                assert rel <= ell ** j, (a, ell, m, j)
                checked += 1
    assert checked == 35 * len(corpus)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), st.sampled_from((2, 3, 5)), st.integers(0, 2), st.data())
def test_kummer_degree_is_the_validated_total_degree(field, ell, k, data):
    """The unchecked degree the series sums equals total_degree(KummerQuery) at every
    valid level m <= 8, on powers b**(l**k) times every root of unity."""
    x = data.draw(st.fractions(-30, 30, max_denominator=9))
    y = 0 if field.is_rational else data.draw(st.fractions(-30, 30, max_denominator=9))
    a = Element(field, x, y) ** (ell ** k) * data.draw(st.sampled_from(list(unit_orders(field))))
    assume(not a.is_zero and not is_root_of_unity(a))
    dec, prof, special = analyze(a, ell)
    for m in range(1, 9):
        for n in range(m + 1):
            assert kummer_degree(ell, m, n, dec, prof, special) == \
                total_degree(KummerQuery(ell, m, n, dec, prof, special)), (a, ell, m, n)
