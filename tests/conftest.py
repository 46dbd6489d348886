"""Shared fixtures: a deterministic input corpus covering every field class."""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

import pytest

from ordens import QQ, Element, FieldSpec, is_root_of_unity

FIELDS = [
    QQ,
    FieldSpec(3), FieldSpec(5), FieldSpec(7),
    FieldSpec(2), FieldSpec(-2),
    FieldSpec(-1), FieldSpec(-3),
    FieldSpec(-5), FieldSpec(-7), FieldSpec(17),
]

_STRUCTURED_X = [2, -2, 3, -3, 4, -4, 8, -8, 9, -9, 12, 16, -16, 18, 25, 32, 48, 50]


def build_corpus() -> list[tuple[Element, int]]:
    """Deterministic (element, ell) pairs: coordinates within +/-50, no torsion."""
    rng = random.Random(20260810)
    out: list[tuple[Element, int]] = []
    seen: set[tuple[Element, int]] = set()

    def push(e: Element, ell: int) -> None:
        if e.is_zero or is_root_of_unity(e):
            return
        key = (e, ell)
        if key not in seen:
            seen.add(key)
            out.append(key)

    def rnd_fraction() -> Fraction:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for field in FIELDS:
        elems: list[Element] = [Element(field, x) for x in _STRUCTURED_X]
        if not field.is_rational:
            elems += [Element(field, x, y) for x, y in
                      [(0, 1), (0, -2), (1, 1), (2, -1), (1, 3), (-3, 2), (5, 5)]]
            for _ in range(6):
                elems.append(Element(field, rnd_fraction(), rnd_fraction()))
        else:
            for _ in range(6):
                elems.append(Element(field, rnd_fraction()))
        if field.d == -1:
            i = Element(field, 0, 1)
            elems += [Element(field, 4) * i, Element(field, 9) * i, Element(field, 3) * i]
        if field.d == -3:
            z = Element(field, Fraction(-1, 2), Fraction(1, 2))
            elems += [Element(field, 2) * z, Element(field, 8) * z, Element(field, 12) * z]
        for e in elems:
            push(e, 2)
            push(e, 3)
        for e in elems[::4]:
            push(e, 5)
    return out


@pytest.fixture(scope="session")
def corpus() -> list[tuple[Element, int]]:
    items = build_corpus()
    assert len(items) >= 200
    return items


@pytest.fixture
def fresh_shape_caches():
    """Empty every per-shape cache of ordens.density before and after the test.

    A test that fakes a helper the cached answers are built from (kummer_degree,
    _closed, ...) must not read answers cached from the real helper, nor leave
    answers built from the fake one to later tests.
    """
    density = importlib.import_module("ordens.density")  # ordens.density is the function
    caches = (density.series_cells, density._shape_closed, density._shape_report,
              density._shape_density)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
