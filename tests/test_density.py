"""Density engine: closed forms, valuation reduction, series, shapes."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import FIELDS
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ordens
from ordens import (
    QQ,
    DensityValue,
    DomainError,
    Element,
    FieldSpec,
    InvariantError,
    density,
    density_closed,
    density_series,
    is_root_of_unity,
    parse_element,
    parse_field,
    shape_check,
)
from ordens.density import (MAX_VALUATION_BITS, ShapeViolation, _closed, _shape_closed,
                            _shape_density, _shape_report, series_cells)
from ordens.field import valuation
from ordens.roots import unit_orders

GAUSS = FieldSpec(-1)
EISEN = FieldSpec(-3)
RT2 = FieldSpec(2)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


def F(text):
    return Fraction(text)


class TestClosedForm:
    @pytest.mark.parametrize("ftext,atext,ell,expected", [
        ("Q(sqrt 3)", "2", 3, "5/8"),
        ("Q(sqrt -1)", "-4", 2, "2/3"),
        ("Q(sqrt 2)", "16", 2, "5/6"),
        ("Q(sqrt -3)", "2^9*zeta3", 3, "1/36"),
        ("Q", "2", 2, "7/24"),
        ("Q", "5", 3, "5/8"),
    ])
    def test_values(self, ftext, atext, ell, expected):
        a = parse_element(atext, parse_field(ftext))
        assert density_closed(a, ell).value == F(expected)

    def test_torsion_inputs(self):
        z = elem(EISEN, Fraction(-1, 2), Fraction(1, 2))
        assert density_closed(z, 3).value == 0
        assert density_closed(z, 2).value == 1
        assert density_closed(elem(QQ, -1), 2).value == 0
        assert density_closed(elem(QQ, 1), 5).value == 1
        assert density_closed(elem(GAUSS, 0, 1), 2).value == 0

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            density_closed(elem(QQ, 0), 2)

    def test_bad_ell_rejected_in_bounded_time(self):
        # l = 1 never returned (valuation(n, 1) loops), and l = 4 gave a meaningless 11/15
        code = ("import time\n"
                "from ordens import DomainError, QQ, decompose, density, parse_element\n"
                "from ordens.scan import split_fraction\n"
                "a = parse_element('2', QQ)\n"
                "for call in (lambda: density(a, 1), lambda: decompose(a, 1),\n"
                "             lambda: split_fraction(a, 1, 1, 1, 100), lambda: density(a, 4)):\n"
                "    start = time.perf_counter()\n"
                "    try:\n"
                "        call()\n"
                "    except DomainError:\n"
                "        print(time.perf_counter() - start < 2)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(ordens.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert out.split() == ["True"] * 4

    @pytest.mark.parametrize("atext,message", [
        ("-4", "negated-power forms disagree for -b**(2**1) with b = 2: 1/12 vs 1/3"),
        ("-16", "negated-power forms disagree for -b**(2**2) with b = 2: -13/24 vs 1/24"),
        ("-9/4", "negated-power forms disagree for -b**(2**1) with b = 3/2: -1/6 vs 1/6"),
    ])
    def test_negated_power_disagreement_names_the_base(self, monkeypatch, fresh_shape_caches,
                                                       atext, message):
        # the closed forms are cached per shape, which holds no base: the text still names it
        a = parse_element(atext, QQ)
        mod = importlib.import_module("ordens.density")
        monkeypatch.setattr(mod, "_zeta4_free_power", lambda d, s, h: (1, 3))
        with pytest.raises(InvariantError) as info:
            density(a, 2)
        assert str(info.value) == message
        assert _shape_closed.cache_info().currsize == 0  # a failing shape is not cached
        with pytest.raises(InvariantError) as info:  # shape_check reads the closed form too
            shape_check(a, 2)
        assert str(info.value) == message
        for _ in range(2):  # so does D(a, 1), cached per shape and n
            with pytest.raises(InvariantError) as info:
                density(a, 2, 1)
            assert str(info.value) == message
        assert _shape_density.cache_info().currsize == 0

    def test_branch_recorded(self):
        dv = density_closed(elem(QQ, 2), 2)
        assert dv.method == "closed_form"
        assert dv.branch == "zeta4-absent/power"
        assert dict(dv.params)["eps"] == Fraction(1, 2)


class TestValuationReduction:
    def test_table_backed_values(self):
        assert density(elem(QQ, 3), 2, 2).value == F("1/6")
        assert density(elem(QQ, 2), 2, 1).value == F("7/24")

    def test_val_one_is_density_of_negation(self, corpus):
        picked = [it for it in corpus if it[1] == 2][:30]
        assert len(picked) == 30
        for a, ell in picked:
            assert density(a, ell, 1).value == density_closed(-a, ell).value

    def test_higher_valuations_ignore_sign(self, corpus):
        for a, ell in [it for it in corpus if it[1] == 2][:12]:
            for n in (2, 3):
                assert density(a, ell, n).value == density(-a, ell, n).value

    def test_torsion_telescopes_too(self):
        # order of -1 is 2: valuation is 1 at every prime
        assert density(elem(QQ, -1), 2, 0).value == 0
        assert density(elem(QQ, -1), 2, 1).value == 1
        assert density(elem(QQ, -1), 2, 2).value == 0

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 31])
    def test_valuation_budget(self, ell):
        top = MAX_VALUATION_BITS // ell.bit_length()
        for a in (elem(QQ, 2), elem(QQ, -ell ** 3)):
            assert len(str(density(a, ell, top).value)) < 4300  # prints
            with pytest.raises(DomainError):
                density(a, ell, top + 1)

    def test_valuations_share_one_halving_flag_search(self, monkeypatch):
        mod = importlib.import_module("ordens.density")  # ordens.density is the function
        calls = []
        real = mod.special_case_flag

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mod, "special_case_flag", counting)
        mod._analysis.cache_clear()  # other tests may have cached this (a, l) already
        a = elem(RT3, 7919, -104729)
        values = [density(a, 2, n).value for n in range(9)]
        assert len(calls) == 1
        assert sum(values) < 1 and values[8] > 0


class TestValuationCache:
    def test_cached_difference_equals_the_uncached_one(self, corpus, fresh_shape_caches):
        for a, ell in corpus:
            dec, prof, special = ordens.analyze(a, ell)
            for n in range(1, 41):
                hi, lo = _closed(dec, prof, special, n), _closed(dec, prof, special, n - 1)
                want = DensityValue(hi.value - lo.value, "closed_form", "valuation-difference",
                                    (("n", n), ("plus", hi.branch), ("minus", lo.branch)))
                got = density(a, ell, n)
                assert got == want and type(got.value) is Fraction, (a, ell, n)
                assert density(a, ell, n) is got

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_roots_of_unity_keep_the_torsion_answers(self, field, fresh_shape_caches):
        for xi, order in unit_orders(field).items():
            for ell in (2, 3):
                for n in range(6):
                    dv = density(xi, ell, n)
                    assert dv.value == (1 if valuation(order, ell) == n else 0), (xi, ell, n)
                    if n:
                        assert dv.params[1:] == (("plus", "torsion"), ("minus", "torsion"))
        assert _shape_density.cache_info().currsize == 0


class TestSeries:
    @pytest.mark.parametrize("ftext,atext,ell", [
        ("Q(sqrt 3)", "2", 3),
        ("Q(sqrt -1)", "4*i", 2),
        ("Q(sqrt 3)", "-81", 2),
        ("Q(sqrt -3)", "8*zeta3", 3),
        ("Q", "2", 2),
        ("Q(sqrt -2)", "-4", 2),
    ])
    def test_matches_closed_form(self, ftext, atext, ell):
        a = parse_element(atext, parse_field(ftext))
        assert density_series(a, ell).value == density_closed(a, ell).value
        for n in (1, 2, 3):
            assert density_series(a, ell, n).value == density(a, ell, n).value, n

    def test_rejects_torsion(self):
        with pytest.raises(DomainError):
            density_series(elem(QQ, -1), 2)

    def test_n_past_kummer_budget_is_a_domain_error(self):
        with pytest.raises(DomainError, match="too large"):
            density_series(elem(QQ, 2), 2, 5000)
        with pytest.raises(DomainError, match="nonnegative"):
            density_series(elem(QQ, 2), 2, -1)

    def test_n_past_series_reach_names_the_valuation(self):
        # density answers n = 4990; the series' top degree T(4998, 8) is over the budget
        assert density(elem(QQ, 2), 2, 4990).value > 0
        for n in (4990, 5001):
            with pytest.raises(DomainError, match=f"valuation {n} too large for the series"):
                density_series(elem(QQ, 2), 2, n)

    def test_unstable_tail_names_n_layer_and_cells(self, monkeypatch, fresh_shape_caches):
        mod = importlib.import_module("ordens.density")
        monkeypatch.setattr(mod, "kummer_degree", lambda ell, m, n, *_: ell ** (m + n) * (m + 1))
        # the factor m + 1 keeps the cells off the 1/l**2 decay
        with pytest.raises(InvariantError, match=r"n = 1 did not stabilize by layer 8 for 2: "
                                                 r"tail -?\d+/\d+, -?\d+/\d+, -?\d+/\d+$"):
            density_series(elem(QQ, 2), 2, 1)


@st.composite
def series_inputs(draw):
    """A non-torsion element of a corpus field, with l in {2, 3, 5}."""
    field = draw(st.sampled_from(FIELDS))
    x = draw(st.fractions(-30, 30, max_denominator=20))
    y = 0 if field.is_rational else draw(st.fractions(-30, 30, max_denominator=20))
    a = Element(field, x, y)
    assume(not a.is_zero and not is_root_of_unity(a))
    return a, draw(st.sampled_from((2, 3, 5)))


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(series_inputs())
    def test_partial_sums_stay_at_most_one(self, item):
        a, ell = item
        partial = Fraction(0)
        for n in range(6):
            partial += density_series(a, ell, n).value
            assert partial <= 1, n

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(series_inputs(), st.integers(1, 3))
    def test_telescoping_against_powers(self, item, n):
        a, ell = item
        hi = density_series(a ** ell ** n, ell).value
        lo = density_series(a ** ell ** (n - 1), ell).value
        assert density_series(a, ell, n).value == hi - lo

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(series_inputs(), st.integers(-7, 7))
    def test_prime_to_l_power_invariance(self, item, k):
        a, ell = item
        assume(k % ell)
        for n in range(4):
            assert density_series(a ** k, ell, n).value == density_series(a, ell, n).value, n


def cells_args(a, ell, n):
    """series_cells' arguments for density_series(a, ell, n): its cache key."""
    dec, prof, special = ordens.analyze(a, ell)
    return dec._replace(base=None, unit=None), prof, special, n


# Pairs of (field, a, l, n) inputs whose cache keys differ only in the named
# fields, with their densities: a key too coarse to tell the two apart hands
# the second input the first one's value.
KEY_FIELD_CASES = [
    (("Q", "2", 2, 0), ("Q", "3", 2, 0), ["special"], ["7/24", "1/3"]),
    (("Q(sqrt 2)", "3", 2, 2), ("Q(sqrt 5)", "3", 2, 2), ["profile"], ["1/12", "1/6"]),
    (("Q(sqrt -3)", "8", 3, 0), ("Q(sqrt -3)", "8*zeta3", 3, 0), ["case", "unit_level"],
     ["3/4", "1/12"]),
    (("Q(sqrt -3)", "2*zeta3", 3, 0), ("Q(sqrt -3)", "8", 3, 0), ["depth"], ["1/4", "3/4"]),
    (("Q", "2", 2, 0), ("Q", "2", 2, 2), ["n"], ["7/24", "1/3"]),
]


def parse_inputs(*rows):
    return [(parse_element(t, parse_field(f)), ell, n) for f, t, ell, n in rows]


class TestSeriesCells:
    def test_one_shape_is_computed_once(self):
        three, five = elem(QQ, 3), elem(QQ, 5)
        assert cells_args(three, 2, 0) == cells_args(five, 2, 0)
        series_cells.cache_clear()
        density_series(three, 2)
        assert series_cells.cache_info()[:2] == (0, 1)  # (hits, misses)
        density_series(five, 2)
        density_series(three, 2)
        assert series_cells.cache_info()[:2] == (2, 1)

    @pytest.mark.parametrize("first,second,changed,values", KEY_FIELD_CASES)
    def test_each_key_field_separates_values(self, first, second, changed, values):
        # the first input fills the cache, so a key too coarse to tell the two
        # apart would hand the second input the first one's cells
        series_cells.cache_clear()
        inputs = parse_inputs(first, second)
        names = [*ordens.Decomposition._fields, "profile", "special", "n"]
        keys = [(*shape, *rest) for shape, *rest in (cells_args(*it) for it in inputs)]
        assert [name for name, x, y in zip(names, *keys) if x != y] == changed
        assert [density_series(*it).value for it in inputs] == [F(v) for v in values]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(series_inputs(), st.integers(0, 3))
    def test_cells_are_nonnegative_and_sum_to_the_density(self, item, n):
        a, ell = item
        cells, den, value = series_cells(*cells_args(a, ell, n))
        assert min(cells) >= 0
        tail = Fraction(cells[-1], den * (ell * ell - 1))
        assert Fraction(sum(cells), den) + tail == value.value == density(a, ell, n).value


class TestClosedShapes:
    def test_one_shape_is_computed_once(self):
        three, five = elem(QQ, 3), elem(QQ, 5)
        _shape_closed.cache_clear()
        density(three, 2)
        assert _shape_closed.cache_info()[:2] == (0, 1)  # (hits, misses)
        density(five, 2)
        density_closed(three, 2)
        assert _shape_closed.cache_info()[:2] == (2, 1)

    def test_shape_check_reuses_the_closed_form(self, fresh_shape_caches):
        a = elem(RT3, 2)
        value = density(a, 3).value
        assert _shape_closed.cache_info()[:2] == (0, 1)
        assert shape_check(a, 3).value == value
        assert _shape_closed.cache_info()[:2] == (1, 1)

    @pytest.mark.parametrize("first,second,changed,values", KEY_FIELD_CASES)
    def test_each_key_field_separates_values(self, first, second, changed, values):
        # density(a, l, n >= 1) looks up the shapes of a**(l**n) and a**(l**(n-1))
        _shape_closed.cache_clear()
        assert [density(*it).value for it in parse_inputs(first, second)] == [F(v) for v in values]


class TestShapeAnswers:
    """density_series and shape_check compute their answers once per shape, and
    their error texts are still worded per call, naming the input."""

    def test_one_shape_gets_one_series_value_and_one_report(self, fresh_shape_caches):
        three, five = elem(QQ, 3), elem(QQ, 5)
        series, report = density_series(three, 2), shape_check(three, 2)
        assert series_cells.cache_info()[:2] == (0, 1)  # (hits, misses)
        assert _shape_report.cache_info()[:2] == (0, 1)
        assert density_series(five, 2) is series
        assert shape_check(five, 2) is report
        assert series_cells.cache_info()[:2] == (1, 1)
        assert _shape_report.cache_info()[:2] == (1, 1)

    def test_a_failing_series_names_each_input(self, monkeypatch, fresh_shape_caches):
        monkeypatch.setattr(importlib.import_module("ordens.density"), "kummer_degree",
                            lambda ell, m, n, *_: ell ** (m + n) * (m + 1))
        messages = []
        for x in (3, 5):
            with pytest.raises(InvariantError) as info:
                density_series(elem(QQ, x), 2, 1)
            messages.append(str(info.value))
        assert series_cells.cache_info()[:2] == (1, 1)  # 5 read the cells of 3's shape
        assert messages[0].startswith("series for n = 1 did not stabilize by layer 8 for 3: tail ")
        assert messages[1] == messages[0].replace(" for 3: ", " for 5: ")

    def test_a_violated_shape_names_each_input(self, monkeypatch, fresh_shape_caches):
        monkeypatch.setattr(importlib.import_module("ordens.density"), "_closed",
                            lambda *args: DensityValue(Fraction(1, 2), "closed_form", "wrong"))
        for x in (2, 5):
            with pytest.raises(ShapeViolation) as info:
                shape_check(elem(RT3, x), 3)
            assert str(info.value) == f"{x}: expected 5/8, computed 1/2"
        assert _shape_report.cache_info()[:2] == (1, 1)  # 5 read the verdict of 2's shape

    @pytest.mark.parametrize("first,second,changed,values",
                             [case for case in KEY_FIELD_CASES if case[0][3] == case[1][3] == 0])
    def test_each_key_field_separates_reports(self, fresh_shape_caches, first, second, changed,
                                              values):
        # the first input fills the cache, so a key too coarse to tell the two
        # apart would hand the second input the first one's report
        assert [shape_check(a, ell).value for a, ell, _ in parse_inputs(first, second)] == \
            [F(v) for v in values]


# (function, a, l, n or None, the parent's error text): the zero test comes first,
# then the torsion test of density_series and shape_check, then n, then the l check
ERROR_PRECEDENCE = [
    (density_closed, -1, 4, None, "l must be prime, got 4"),
    (density_closed, -1, 2 ** 21, None, "l must be below 2**20, got a 22-bit number"),
    (density_closed, 0, 4, None, "density of zero is undefined"),
    (density_closed, 0, 2 ** 21, None, "density of zero is undefined"),
    (density_series, -1, 4, None, "series evaluation expects a non-torsion element"),
    (density_series, -1, 2 ** 21, None, "series evaluation expects a non-torsion element"),
    (density_series, 0, 4, None, "density of zero is undefined"),
    (density_series, 0, 2 ** 21, None, "density of zero is undefined"),
    (density_series, -1, 2, -1, "series evaluation expects a non-torsion element"),
    (density_series, 0, 4, -1, "density of zero is undefined"),
    (density_series, 3, 4, -1, "valuation must be nonnegative"),
    (shape_check, -1, 4, None, "shape checks expect a non-torsion element"),
    (shape_check, -1, 2 ** 21, None, "shape checks expect a non-torsion element"),
    (shape_check, 0, 4, None, "shape checks expect a non-torsion element"),
    (shape_check, 0, 2 ** 21, None, "shape checks expect a non-torsion element"),
]


@pytest.mark.parametrize("func,x,ell,n,message", ERROR_PRECEDENCE,
                         ids=[f"{f.__name__}({x},{l},{n})" for f, x, l, n, _ in ERROR_PRECEDENCE])
def test_error_precedence(func, x, ell, n, message):
    args = (elem(QQ, x), ell) + (() if n is None else (n,))
    with pytest.raises(DomainError) as info:
        func(*args)
    assert type(info.value) is DomainError and str(info.value) == message


def test_one_input_builds_one_shape(monkeypatch, fresh_shape_caches):
    # the three n = 0 answers read the shape the per-input cache holds
    built = []
    real = ordens.Decomposition.shape

    def counting(self, k=0):
        built.append(k)
        return real(self, k)

    monkeypatch.setattr(ordens.Decomposition, "shape", counting)
    analysis = importlib.import_module("ordens.density")._analysis
    analysis.cache_clear()
    for field, x, ell in [(RT3, 2, 3), (QQ, -4, 2), (GAUSS, 9, 2), (EISEN, 8, 3)]:
        a = elem(field, x)
        built.clear()
        density(a, ell, 0), density_series(a, ell), shape_check(a, ell)
        assert len(built) <= 1
        built.clear()
        density(a, ell, 0), density_series(a, ell), shape_check(a, ell)
        assert built == []
    # inputs of one shape hold one shape object, so per-input memory stays flat
    assert analysis(elem(QQ, 3), 2)[3] is analysis(elem(QQ, 5), 2)[3]


class TestShapes:
    def test_scaled_form_over_sqrt3(self):
        rep = shape_check(elem(RT3, 2), 3)
        assert rep.kind == "cyclotomic-scaled"
        assert rep.value == F("5/8")

    def test_pure_form_with_torsion_present(self):
        rep = shape_check(elem(EISEN, 8), 3)
        assert rep.kind == "pure"
        assert rep.value == F("3/4")
        rep = shape_check(elem(GAUSS, 0, 2), 2)  # 2i
        assert rep.kind == "pure"
        assert rep.value == F("1/3")

    @pytest.mark.parametrize("ell,d", [(3, 3), (3, -7), (3, 5), (5, 5), (5, -7), (5, 17),
                                       (7, -7), (7, 3), (7, -1), (7, None)])
    @pytest.mark.parametrize("depth", range(4))
    def test_scaled_form_matches_the_fraction_formula(self, ell, d, depth):
        # Q(sqrt l*) (degree (l-1)/2: Q(sqrt 5) at l = 5, Q(sqrt -7) at l = 7) and generic fields
        field = FieldSpec(d)
        a = elem(field, 2) ** (ell ** depth)
        dec, prof, _ = ordens.analyze(a, ell)
        assert dec.depth == depth
        assert prof.degree == ((ell - 1) // 2 if (ell, d) in ((5, 5), (7, -7)) else ell - 1)
        rep = shape_check(a, ell)
        expect = 1 - Fraction(1, prof.degree) * Fraction(ell) ** (1 - depth) / (ell + 1)
        assert (rep.kind, rep.value, rep.detail) == ("cyclotomic-scaled", expect, f"d={depth}")

    @pytest.mark.parametrize("ftext,atext,ell,message", [
        ("Q(sqrt 3)", "2", 3, "2: expected 5/8, computed 1/2"),
        ("Q(sqrt 5)", "2^25", 5, "33554432: expected 59/60, computed 1/2"),
        ("Q(sqrt -3)", "8", 3, "8: 1/2 is not 1/(l^n(l+1)) or its complement"),
        ("Q(sqrt -1)", "2*i", 2, "2*sqrt(-1): 1/2 is not 1/(l^n(l+1)) or its complement"),
    ])
    def test_wrong_closed_value_violates_the_shape(self, monkeypatch, fresh_shape_caches,
                                                   ftext, atext, ell, message):
        a = parse_element(atext, parse_field(ftext))
        monkeypatch.setattr(importlib.import_module("ordens.density"), "_closed",
                            lambda *args: DensityValue(Fraction(1, 2), "closed_form", "wrong"))
        with pytest.raises(ShapeViolation) as info:
            shape_check(a, ell)
        assert str(info.value) == message

    def test_no_shape_mandated_without_i(self):
        assert shape_check(elem(QQ, 2), 2).kind is None

    def test_rejects_torsion(self):
        with pytest.raises(DomainError):
            shape_check(elem(QQ, 1), 3)


class TestRange:
    def test_unit_interval(self, corpus):
        for a, ell in corpus[::9]:
            v = density_closed(a, ell).value
            assert 0 <= v <= 1

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1), Fraction(7, 24)])
    def test_unit_interval_bounds_accepted(self, value):
        assert DensityValue(value, "closed_form", "torsion").value == value

    @pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-1, 5), Fraction(2)])
    def test_value_outside_unit_interval_rejected(self, value):
        with pytest.raises(InvariantError, match=r"outside \[0, 1\]"):
            DensityValue(value, "closed_form", "torsion")


def test_galois_invariance(corpus):
    """D(sigma a, n) = D(a, n) for sigma(x + y*sqrt d) = x - y*sqrt d."""
    quadratic = [(a, ell) for a, ell in corpus if not a.field.is_rational]
    assert quadratic
    for a, ell in quadratic:
        for n in range(4):
            assert density(a.conjugate(), ell, n).value == density(a, ell, n).value, (a, ell, n)
