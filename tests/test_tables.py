"""Golden table rows."""

from __future__ import annotations

from fractions import Fraction

from ordens.tables import table_rows


def test_table4_sign_of_two_follows_the_field():
    expected = {(row.field, row.a): row.expected for row in table_rows(4)}
    assert len(expected) == 36
    assert expected["Q(sqrt 2)", "2"] == expected["Q(sqrt -2)", "-2"] == Fraction(7, 12)
    assert expected["Q(sqrt 2)", "-2"] == expected["Q(sqrt -2)", "2"] == Fraction(1, 12)
