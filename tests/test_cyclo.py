"""Cyclotomic tower profiles, level degrees, and the halving flag."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordens import (
    QQ,
    DomainError,
    Element,
    FieldSpec,
    Tower,
    cyclo_profile,
    cyclotomic_degree,
    lth_roots,
    special_case_flag,
)

GAUSS = FieldSpec(-1)
RT2 = FieldSpec(2)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


class TestProfiles:
    def test_sqrt3_at_three(self):
        p = cyclo_profile(RT3, 3)
        assert (p.has_zeta_ell, p.degree, p.stall) == (False, 2, 1)

    def test_sqrt_minus3_at_three(self):
        p = cyclo_profile(FieldSpec(-3), 3)
        assert (p.has_zeta_ell, p.degree, p.stall) == (True, 1, 1)

    def test_discriminant_field_of_ell(self):
        # Q(sqrt 5) is the quadratic subfield of the 5th cyclotomic field
        assert cyclo_profile(FieldSpec(5), 5).degree == 2
        assert cyclo_profile(FieldSpec(-5), 5).degree == 4
        assert cyclo_profile(QQ, 3).degree == 2
        assert cyclo_profile(FieldSpec(-7), 7).degree == 3  # -7 = 7*

    def test_two_power_towers(self):
        assert cyclo_profile(RT2, 2).zeta4_stall == 3
        assert cyclo_profile(RT2, 2).tower is Tower.PLUS
        assert cyclo_profile(FieldSpec(-2), 2).tower is Tower.MINUS
        assert cyclo_profile(QQ, 2).zeta4_stall == 2
        assert cyclo_profile(QQ, 2).tower is Tower.TRIVIAL
        p = cyclo_profile(GAUSS, 2)
        assert p.has_zeta4 and p.stall == 2 and p.tower is Tower.I_ADJOINED


class TestCyclotomicDegree:
    def test_examples(self):
        assert cyclotomic_degree(cyclo_profile(QQ, 3), 2) == 6
        assert cyclotomic_degree(cyclo_profile(RT2, 2), 4) == 4
        assert cyclotomic_degree(cyclo_profile(FieldSpec(-3), 3), 1) == 1
        assert cyclotomic_degree(cyclo_profile(QQ, 2), 3) == 4
        assert cyclotomic_degree(cyclo_profile(GAUSS, 2), 3) == 2

    def test_staircase(self):
        for field in (QQ, GAUSS, RT2, RT3, FieldSpec(-3)):
            for ell in (2, 3, 5):
                prof = cyclo_profile(field, ell)
                degs = [cyclotomic_degree(prof, m) for m in range(1, 9)]
                assert degs[0] == (1 if ell == 2 else prof.degree)
                for lo, hi in zip(degs, degs[1:]):
                    assert hi % lo == 0 and hi // lo in (1, ell)
                top = max(prof.stall, prof.zeta4_stall or 0)
                for m in range(top, 8):
                    assert degs[m] == ell * degs[m - 1]

    def test_odd_degree_divides_ell_minus_one(self):
        for field in (QQ, RT3, FieldSpec(5), FieldSpec(-7)):
            for ell in (3, 5, 7, 11):
                assert (ell - 1) % cyclo_profile(field, ell).degree == 0

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            cyclotomic_degree(cyclo_profile(QQ, 2), 0)


class TestSpecialCaseFlag:
    def test_two_over_q(self):
        assert special_case_flag(QQ, cyclo_profile(QQ, 2), elem(QQ, 2))

    def test_minus_two_over_sqrt3(self):
        assert special_case_flag(RT3, cyclo_profile(RT3, 2), elem(RT3, -2))

    def test_sqrt2_over_its_own_field(self):
        assert not special_case_flag(RT2, cyclo_profile(RT2, 2), elem(RT2, 0, 1))

    def test_minus_tower_never_special(self):
        f = FieldSpec(-2)
        prof = cyclo_profile(f, 2)
        for b in (elem(f, 2), elem(f, -2), elem(f, 0, 1), elem(f, 3)):
            assert not special_case_flag(f, prof, b)

    def test_in_field_square_detected(self):
        # 6 = 2 * (sqrt 3)**2, so sqrt(6) joins the tower over Q(sqrt 3)
        assert special_case_flag(RT3, cyclo_profile(RT3, 2), elem(RT3, 6))

    def test_rejects_i_adjoined(self):
        with pytest.raises(DomainError):
            special_case_flag(GAUSS, cyclo_profile(GAUSS, 2), elem(GAUSS, 3))

    def test_square_class_invariance(self):
        rng = random.Random(11)
        prof_q = cyclo_profile(QQ, 2)
        prof_3 = cyclo_profile(RT3, 2)
        for field, prof, b in [(QQ, prof_q, elem(QQ, 2)), (QQ, prof_q, elem(QQ, 3)),
                               (RT3, prof_3, elem(RT3, -2)), (RT3, prof_3, elem(RT3, 0, 1))]:
            want = special_case_flag(field, prof, b)
            for _ in range(10):
                if field.is_rational:
                    c = elem(field, Fraction(rng.randint(1, 20), rng.randint(1, 20)))
                else:
                    c = elem(field, rng.randint(-9, 9), rng.randint(-9, 9))
                if c.is_zero:
                    continue
                assert special_case_flag(field, prof, b * c * c) == want


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, RT2, RT3, FieldSpec(5), FieldSpec(-3), FieldSpec(17), FieldSpec(-2),
                        FieldSpec(6)]),
       st.sampled_from(["random", "g*square", "g*norm", "g*norm-one"]), st.sampled_from([1, -1]),
       st.fractions(-40, 40, max_denominator=12), st.fractions(-40, 40, max_denominator=12))
def test_norm_pretest_changes_no_flag(field, kind, sign, x, y):
    """special_case_flag returns False early when N(b/g) is not a rational square, tested on
    b's ints before it divides; its answer must equal that of the two square-root searches
    it skips, g = 2 + sqrt(2) on the plus tower and g = 2 elsewhere.  The kinds make b/g a
    square, a rational (N(c)) or of norm one (c/conj(c)), so many draws pass the pretest."""
    prof = cyclo_profile(field, 2)
    g = elem(field, 2, 1) if prof.tower is Tower.PLUS else elem(field, 2)
    c = elem(field, x, 0 if field.is_rational else y)
    assume(not c.is_zero)
    t = {"random": c, "g*square": c * c, "g*norm": c * c.conjugate(),
         "g*norm-one": c / c.conjugate()}[kind]
    b = t if kind == "random" else elem(field, sign) * g * t
    want = bool(lth_roots(b / g, 2)) or bool(lth_roots(-b / g, 2))
    assert want or kind != "g*square"
    if prof.tower is Tower.MINUS:  # Q(sqrt -2) meets the tower in Q(zeta_8) itself: never special
        want = False
    assert special_case_flag(field, prof, b) == want
