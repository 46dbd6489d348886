"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from ordens import (
    QQ,
    Case,
    Element,
    FieldSpec,
    analyze,
    cyclo_profile,
    decompose,
    density,
    density_closed,
    density_series,
    lth_roots,
    parse_element,
    parse_field,
    roots_of_unity,
    shape_check,
    split_fraction,
    total_degree,
)
from ordens.density import ShapeViolation
from ordens.kummer import KummerQuery
from ordens.scan import empirical_density
from ordens.tables import check_table, table_rows

TOL = Fraction(1, 100)


def _passline(num: int, desc: str, elapsed: float, limit: float) -> None:
    print(f"criterion {num} ({desc}): PASS  [{elapsed:.2f}s < {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _golden(num: int, which: int, desc: str) -> None:
    start = time.perf_counter()
    results, diffs = check_table(which)
    elapsed = time.perf_counter() - start
    assert not diffs, f"table {which} diffs: {diffs}"
    assert len(results) == {1: 120, 2: 12, 3: 24, 4: 36}[which]
    _passline(num, desc, elapsed, 1.0)


def test_criterion_1_table2_exact():
    _golden(1, 2, "golden table for l=3, 12 entries exact")


def test_criterion_2_table3_exact():
    _golden(2, 3, "golden table for l=2 with i in K, 18 entries exact")


def test_criterion_3_table4_exact():
    _golden(3, 4, "golden table for l=2 without i, 24 entries exact")


def test_criterion_4_table1_grid():
    _golden(4, 1, "rational-field grid d=0..4, n=0..5, both classes")


def test_criterion_5_cross_oracle(corpus):
    start = time.perf_counter()
    checked = 0
    for a, ell in corpus:
        assert abs(a.x.numerator) <= 50 and a.x.denominator <= 50
        assert abs(a.y.numerator) <= 50 and a.y.denominator <= 50
        dec = decompose(a, ell)
        if dec.case is not Case.ROOT_OF_UNITY:
            assert dec.depth <= 5
            assert density_series(a, ell).value == density_closed(a, ell).value
            for n in range(1, 5):
                assert density_series(a, ell, n).value == density(a, ell, n).value, (a, ell, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200, f"only {checked} non-torsion corpus inputs"
    _passline(5, f"closed form == series for n <= 4 on {checked} inputs", elapsed, 30.0)


def test_criterion_6_empirical_tables():
    start = time.perf_counter()
    worst = Fraction(0)
    scans = 0
    for which in (2, 3, 4):
        for row in table_rows(which):
            a = parse_element(row.a, parse_field(row.field))
            rep = empirical_density(a, row.ell, 10 ** 5)
            err = abs(rep.empirical[0] - row.expected)
            worst = max(worst, err)
            assert err < TOL, f"{row}: empirical {rep.empirical[0]} vs {row.expected}"
            scans += 1
    elapsed = time.perf_counter() - start
    _passline(6, f"{scans} scans at norm 1e5, max n=0 error "
                 f"{float(worst):.4f} < 0.01", elapsed, 60.0)


CHEBOTAREV_QUERIES = [
    # (field, element, ell, [(m, n), ...])
    ("Q", "2", 2, [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)]),
    ("Q", "3", 2, [(1, 1), (2, 1), (2, 2), (3, 1)]),
    ("Q", "2", 3, [(1, 1)]),
    ("Q(sqrt -1)", "4*i", 2, [(4, 3), (3, 2), (2, 2), (4, 4)]),
    ("Q(sqrt -1)", "3", 2, [(1, 1), (2, 1), (2, 2)]),
    ("Q(sqrt 3)", "2", 2, [(2, 1), (3, 1), (2, 2)]),
    ("Q(sqrt -3)", "2", 3, [(1, 1), (2, 1)]),
]


def test_criterion_7_kummer_chebotarev():
    start = time.perf_counter()
    ran = 0
    for ftext, atext, ell, pairs in CHEBOTAREV_QUERIES:
        a = parse_element(atext, parse_field(ftext))
        dec, prof, special = analyze(a, ell)
        for m, n in pairs:
            q = KummerQuery(ell, m, n, dec, prof, special)
            deg = total_degree(q)
            assert deg <= 16
            frac = split_fraction(a, ell, m, n, 10 ** 6)
            err = abs(frac - Fraction(1, deg))
            assert err < TOL, (ftext, atext, ell, m, n, deg, float(frac))
            if (ftext, atext, m, n) == ("Q", "2", 3, 1):
                assert deg == 4  # the halved layer: sqrt(2) already in level 8
            if (ftext, atext, m, n) == ("Q(sqrt -1)", "4*i", 4, 3):
                assert deg == 8  # power-times-unit shape over Q(i)
            ran += 1
    elapsed = time.perf_counter() - start
    assert ran >= 20
    _passline(7, f"{ran} split fractions at 1e6 within 0.01 of 1/degree",
              elapsed, 120.0)


def test_criterion_8_shapes(corpus):
    start = time.perf_counter()
    checked = 0
    for a, ell in corpus:
        dec = decompose(a, ell)
        if dec.case is Case.ROOT_OF_UNITY:
            continue
        try:
            shape_check(a, ell)  # raises ShapeViolation on any mismatch
        except ShapeViolation:
            pytest.fail(f"shape violation for {a}, l={ell}")
        checked += 1
    elapsed = time.perf_counter() - start
    _passline(8, f"structural forms hold on {checked} inputs", elapsed, 30.0)


def _telescoping(a: Element, ell: int, max_n: int) -> None:
    prof = cyclo_profile(a.field, ell)
    d0 = decompose(a, ell).depth
    partial = Fraction(0)
    for n in range(max_n + 1):
        partial += density(a, ell, n).value
        assert partial == density_closed(a ** ell ** n, ell).value
        if n >= d0:
            bound = Fraction(ell) ** (prof.stall + (prof.zeta4_stall or 0) - n)
            assert 1 - partial <= bound


def test_criterion_9_property_suite(corpus):
    start = time.perf_counter()

    # Remark-14 style identities for l = 2
    two_corpus = [it for it in corpus if it[1] == 2][:40]
    for a, _ in two_corpus:
        assert density(a, 2, 1).value == density_closed(-a, 2).value
    for a, _ in two_corpus[:15]:
        for n in (2, 3):
            assert density(a, 2, n).value == density(-a, 2, n).value

    # telescoping partial sums with the exact tail bound
    _telescoping(parse_element("3", QQ), 2, 12)
    _telescoping(parse_element("2", parse_field("Q(sqrt 3)")), 2, 12)
    _telescoping(parse_element("2", parse_field("Q(sqrt -3)")), 3, 7)

    # prime-to-l power invariance
    for a, ell in [it for it in corpus if it[1] in (2, 3)][::11][:14]:
        for k in range(1, 8):
            if k % ell == 0:
                continue
            for n in (0, 1):
                assert density(a ** k, ell, n).value == density(a, ell, n).value

    # decomposition round-trip and (d, r) independence of the base choice
    for a, ell in corpus[::6]:
        dec = decompose(a, ell)
        if dec.case is Case.ROOT_OF_UNITY:
            continue
        assert dec.recompose() == a
        for eta in roots_of_unity(a.field, ell):
            twisted = (dec.base * eta) ** (ell ** dec.depth) * dec.unit
            redec = decompose(twisted, ell)
            assert (redec.depth, redec.unit_level) == (dec.depth, dec.unit_level)

    # l-th root completeness against brute force over small coordinates
    for d in (None, -1, -3, 2, -2, 3):
        field = QQ if d is None else FieldSpec(d)
        bases = []
        if field.is_rational:
            bases = [Element(field, x) for x in range(-5, 6) if x]
        else:
            bases = [Element(field, x, y) for x in range(-5, 6)
                     for y in range(-5, 6) if x or y]
        for ell in (2, 3):
            for b in bases:
                assert b in lth_roots(b ** ell, ell), (field, b, ell)

    elapsed = time.perf_counter() - start
    _passline(9, "identities, telescoping, invariance, round-trips, "
                 "root completeness", elapsed, 60.0)
