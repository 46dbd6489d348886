"""Every normal-form shape analyze can return, enumerated; closed == series on each.

The densities read a only through its shape: (l, case, depth, unit level), the
tower profile and the halving flag.  Per depth the realizable shapes are few:

- POWER at every depth, with unit level 0;
- POWER_TIMES_UNIT only at depth >= 1, since at depth 0 decompose absorbs the
  unit into the base, and only when mu_l(K) != 1: at l = 2 with unit level 1,
  or up to 2 over Q(i); at l = 3 over Q(sqrt -3) with unit level 1;
- the halving flag True only at l = 2, on the trivial and plus towers.

The enumeration reads nothing of decompose, so analyze is checked against it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from conftest import FIELDS
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordens import QQ, Case, Decomposition, Element, FieldSpec, Tower, analyze, cyclo_profile
from ordens.density import _difference, _shape_closed, series_cells
from ordens.roots import is_root_of_unity, unit_orders

ELLS = (2, 3, 5, 7, 13, 29)
# every profile of those l: the plus, minus and i towers at l = 2, zeta_3 in Q(sqrt -3),
# and Q(sqrt l*) with l* = +-l = 1 (mod 4), where [K(zeta_l) : K] = (l - 1)/2
SHAPE_FIELDS = [QQ] + [FieldSpec(d) for d in (-1, 2, -2, -3, 3, 5, -7, 13, 29, -5, 17, 7)]
MAX_DEPTH = 9


def max_unit_level(field: FieldSpec, ell: int) -> int:
    """The largest r with a root of unity of order l**r in the field."""
    if ell == 2:
        return 2 if field.d == -1 else 1
    return 1 if ell == 3 and field.d == -3 else 0


@lru_cache(maxsize=None)
def realizable_shapes(field: FieldSpec, ell: int, max_depth: int = MAX_DEPTH) -> frozenset:
    """Every (shape, profile, halving flag) of a non-torsion a of the field with depth at
    most max_depth, as analyze keys them (Decomposition.shape)."""
    prof = cyclo_profile(field, ell)
    flags = (False, True) if ell == 2 and prof.tower in (Tower.TRIVIAL, Tower.PLUS) else (False,)
    out = set()
    for depth in range(max_depth + 1):
        levels = range(1, max_unit_level(field, ell) + 1) if depth else range(0)
        for flag in flags:
            out.add((Decomposition(ell, Case.POWER, depth, None, None, 0), prof, flag))
            out.update((Decomposition(ell, Case.POWER_TIMES_UNIT, depth, None, None, r), prof, flag)
                       for r in levels)
    return frozenset(out)


def analyzed_shape(a: Element, ell: int):
    dec, prof, special = analyze(a, ell)
    return (dec.shape(), prof, special), dec.depth


def test_the_enumeration_has_one_entry_per_distinct_shape():
    shapes = set().union(*(realizable_shapes(f, ell) for f in SHAPE_FIELDS for ell in ELLS))
    # l = 2: trivial and plus towers 2 * (10 + 9), minus 10 + 9, Q(i) 10 + 2 * 9;
    # l = 3: 10 without zeta_3 and 10 + 9 with it; l = 5, 7, 13, 29: 10 per profile, two each
    assert len(shapes) == 2 * 38 + 19 + 28 + 29 + 4 * 20


def test_analyze_on_the_corpus_stays_in_the_enumeration(corpus):
    for a, ell in corpus:
        key, depth = analyzed_shape(a, ell)
        assert key in realizable_shapes(a.field, ell, depth), (a, ell, key)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), st.data())
def test_analyze_on_drawn_powers_times_units_stays_in_the_enumeration(field, ell, k, data):
    """a = b**(l**k) * xi has depth at least k and one of the enumerated shapes."""
    x, y = (data.draw(st.fractions(-12, 12, max_denominator=5)) for _ in range(2))
    b = Element(field, x, 0 if field.is_rational else y)
    assume(not b.is_zero and not is_root_of_unity(b))
    a = b ** (ell ** k) * data.draw(st.sampled_from(list(unit_orders(field))))
    key, depth = analyzed_shape(a, ell)
    assert depth >= k
    assert key in realizable_shapes(field, ell, depth), (a, ell, key)


@pytest.mark.parametrize("ell", ELLS)
def test_closed_equals_series_on_every_realizable_shape(ell, fresh_shape_caches):
    """D(a, n), n = 0..4, from the closed forms equals the series on each enumerated shape."""
    shapes = set().union(*(realizable_shapes(f, ell) for f in SHAPE_FIELDS))
    for shape, prof, flag in shapes:
        for n in range(5):
            closed = _difference(shape, prof, flag, n) if n else _shape_closed(shape, prof, flag)
            series = series_cells(shape, prof, flag, n)[2]
            assert series is not None and closed.value == series.value, (shape, prof, flag, n)
