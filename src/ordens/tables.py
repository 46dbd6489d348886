"""Golden reference tables and their live verification.

Each table row pins an exact density for one (field, element, prime,
valuation) quadruple.  check_table recomputes every row with the density
engine and reports diffs; the CLI `tables` subcommand and the acceptance
suite both run on these.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .density import density
from .field import parse_element, parse_field

# field and a are texts for parse_field and parse_element; expected is a Fraction
Row = namedtuple("Row", "field a ell n expected")

_F = Fraction

# l = 3 over the two quadratic fields touching the cubic tower.
_TABLE2 = [
    ("Q(sqrt 3)", "2", "5/8"), ("Q(sqrt 3)", "8", "7/8"),
    ("Q(sqrt 3)", "2^9", "23/24"), ("Q(sqrt 3)", "3", "5/8"),
    ("Q(sqrt 3)", "27", "7/8"), ("Q(sqrt 3)", "2/3", "5/8"),
    ("Q(sqrt -3)", "2", "1/4"), ("Q(sqrt -3)", "8", "3/4"),
    ("Q(sqrt -3)", "2^9", "11/12"), ("Q(sqrt -3)", "2*zeta3", "1/4"),
    ("Q(sqrt -3)", "8*zeta3", "1/12"), ("Q(sqrt -3)", "2^9*zeta3", "1/36"),
]

# l = 2 with i in the field; rows marked with both signs pin both elements.
_TABLE3 = [
    (("3",), "1/6"), (("-3",), "1/6"), (("3*i", "-3*i"), "1/6"),
    (("9",), "1/3"), (("-9",), "1/3"), (("9*i", "-9*i"), "1/12"),
    (("81",), "2/3"), (("-81",), "1/6"), (("81*i", "-81*i"), "1/24"),
    (("2",), "1/12"), (("-2",), "1/12"), (("2*i", "-2*i"), "1/3"),
    (("4",), "1/6"), (("-4",), "2/3"), (("4*i", "-4*i"), "1/24"),
    (("16",), "5/6"), (("-16",), "1/12"), (("16*i", "-16*i"), "1/48"),
]

# l = 2 without i.  A paired row gives its element over Q(sqrt 2), then over
# Q(sqrt -2): the texts differ where the density follows the sign of d.
_TABLE4_SQRT3 = [
    ("3", "2/3"), ("-3", "1/6"), ("9", "5/6"), ("-9", "1/12"),
    ("81", "11/12"), ("-81", "1/24"), ("2", "7/24"), ("-2", "7/24"),
    ("4", "7/12"), ("-4", "1/3"), ("16", "11/12"), ("-16", "1/24"),
]
_TABLE4_SQRT_PM2 = [
    ("3", "3", "7/24"), ("-3", "-3", "7/24"), ("9", "9", "7/12"), ("-9", "-9", "1/12"),
    ("81", "81", "2/3"), ("-81", "-81", "1/6"), ("2", "-2", "7/12"), ("-2", "2", "1/12"),
    ("4", "4", "2/3"), ("-4", "-4", "1/6"), ("16", "16", "5/6"), ("-16", "-16", "1/12"),
]


def _table1_expected(special: bool, positive: bool, d: int, n: int) -> Fraction:
    """Closed forms of the reference grid over Q for a = +/- b**(2**d).

    special distinguishes the class with Q(sqrt b) = Q(sqrt 2); the n = 0
    and n = 1 columns swap under negation and every n >= 2 column is
    sign-independent.
    """
    two = _F(2)
    if not special:
        if n == 0:
            return 1 - _F(2, 3) * two ** -d if positive else _F(1, 3) * two ** -d
        if n == 1:
            return _F(1, 3) * two ** -d if positive else 1 - _F(2, 3) * two ** -d
        if n == 2:
            return _F(1, 6) * two ** -d
        return _F(2, 3) * two ** (-d - n)
    if n == 0:
        if positive:
            return [_F(7, 24), _F(7, 12)][d] if d < 2 else 1 - _F(1, 3) * two ** -d
        return [_F(7, 24), _F(1, 3)][d] if d < 2 else _F(1, 6) * two ** -d
    if n == 1:
        return _table1_expected(True, not positive, d, 0)
    if n == 2:
        return _F(1, 3) if d == 0 else _F(1, 12) * two ** -d
    return _F(1, 3) * two ** (-d - n)


def table_rows(which: int) -> list[Row]:
    rows: list[Row] = []
    if which == 1:
        for base, special in ((3, False), (2, True)):
            for sign in (1, -1):
                for d in range(5):
                    a = str(sign * base ** 2 ** d)
                    for n in range(6):
                        exp = _table1_expected(special, sign == 1, d, n)
                        rows.append(Row("Q", a, 2, n, exp))
    elif which == 2:
        rows = [Row(f, a, 3, 0, _F(v)) for f, a, v in _TABLE2]
    elif which == 3:
        for elems, v in _TABLE3:
            rows.extend(Row("Q(sqrt -1)", a, 2, 0, _F(v)) for a in elems)
    elif which == 4:
        rows = [Row("Q(sqrt 3)", a, 2, 0, _F(v)) for a, v in _TABLE4_SQRT3]
        for over_2, over_minus_2, v in _TABLE4_SQRT_PM2:
            rows += [Row("Q(sqrt 2)", over_2, 2, 0, _F(v)),
                     Row("Q(sqrt -2)", over_minus_2, 2, 0, _F(v))]
    else:
        raise ValueError(f"no table {which}")
    return rows


def check_table(which: int) -> tuple[list[tuple[Row, Fraction]], list[tuple[Row, Fraction]]]:
    """Recompute every row; returns (all (row, got) results, those with got != expected)."""
    results = []
    for row in table_rows(which):
        a = parse_element(row.a, parse_field(row.field))
        results.append((row, density(a, row.ell, row.n).value))
    return results, [(row, got) for row, got in results if got != row.expected]
