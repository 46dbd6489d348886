"""Golden densities from the paper's tables 1-4, kept as the benchmark's own oracle.

The values are copied as data rather than read from ``ordens.tables`` so the
benchmark checks the program against fixed numbers that no change to the
program can move.  Keys are (field text, element text, l, n).
"""

from __future__ import annotations

from fractions import Fraction

# Table 1: l = 2 over Q, elements +/- b**(2**d) for b = 3 and b = 2, n = 0..5.
_TABLE1 = {
    "3": "1/3 1/3 1/6 1/12 1/24 1/48",
    "9": "2/3 1/6 1/12 1/24 1/48 1/96",
    "81": "5/6 1/12 1/24 1/48 1/96 1/192",
    "6561": "11/12 1/24 1/48 1/96 1/192 1/384",
    "43046721": "23/24 1/48 1/96 1/192 1/384 1/768",
    "-3": "1/3 1/3 1/6 1/12 1/24 1/48",
    "-9": "1/6 2/3 1/12 1/24 1/48 1/96",
    "-81": "1/12 5/6 1/24 1/48 1/96 1/192",
    "-6561": "1/24 11/12 1/48 1/96 1/192 1/384",
    "-43046721": "1/48 23/24 1/96 1/192 1/384 1/768",
    "2": "7/24 7/24 1/3 1/24 1/48 1/96",
    "4": "7/12 1/3 1/24 1/48 1/96 1/192",
    "16": "11/12 1/24 1/48 1/96 1/192 1/384",
    "256": "23/24 1/48 1/96 1/192 1/384 1/768",
    "65536": "47/48 1/96 1/192 1/384 1/768 1/1536",
    "-2": "7/24 7/24 1/3 1/24 1/48 1/96",
    "-4": "1/3 7/12 1/24 1/48 1/96 1/192",
    "-16": "1/24 11/12 1/48 1/96 1/192 1/384",
    "-256": "1/48 23/24 1/96 1/192 1/384 1/768",
    "-65536": "1/96 47/48 1/192 1/384 1/768 1/1536",
}

# Tables 2-4 pin n = 0 only: (field, element, l, density).
_TABLES_2_TO_4 = [
    # table 2: l = 3
    ("Q(sqrt 3)", "2", 3, "5/8"), ("Q(sqrt 3)", "8", 3, "7/8"),
    ("Q(sqrt 3)", "2^9", 3, "23/24"), ("Q(sqrt 3)", "3", 3, "5/8"),
    ("Q(sqrt 3)", "27", 3, "7/8"), ("Q(sqrt 3)", "2/3", 3, "5/8"),
    ("Q(sqrt -3)", "2", 3, "1/4"), ("Q(sqrt -3)", "8", 3, "3/4"),
    ("Q(sqrt -3)", "2^9", 3, "11/12"), ("Q(sqrt -3)", "2*zeta3", 3, "1/4"),
    ("Q(sqrt -3)", "8*zeta3", 3, "1/12"), ("Q(sqrt -3)", "2^9*zeta3", 3, "1/36"),
    # table 3: l = 2 with i in the field
    ("Q(sqrt -1)", "3", 2, "1/6"), ("Q(sqrt -1)", "-3", 2, "1/6"),
    ("Q(sqrt -1)", "3*i", 2, "1/6"), ("Q(sqrt -1)", "-3*i", 2, "1/6"),
    ("Q(sqrt -1)", "9", 2, "1/3"), ("Q(sqrt -1)", "-9", 2, "1/3"),
    ("Q(sqrt -1)", "9*i", 2, "1/12"), ("Q(sqrt -1)", "-9*i", 2, "1/12"),
    ("Q(sqrt -1)", "81", 2, "2/3"), ("Q(sqrt -1)", "-81", 2, "1/6"),
    ("Q(sqrt -1)", "81*i", 2, "1/24"), ("Q(sqrt -1)", "-81*i", 2, "1/24"),
    ("Q(sqrt -1)", "2", 2, "1/12"), ("Q(sqrt -1)", "-2", 2, "1/12"),
    ("Q(sqrt -1)", "2*i", 2, "1/3"), ("Q(sqrt -1)", "-2*i", 2, "1/3"),
    ("Q(sqrt -1)", "4", 2, "1/6"), ("Q(sqrt -1)", "-4", 2, "2/3"),
    ("Q(sqrt -1)", "4*i", 2, "1/24"), ("Q(sqrt -1)", "-4*i", 2, "1/24"),
    ("Q(sqrt -1)", "16", 2, "5/6"), ("Q(sqrt -1)", "-16", 2, "1/12"),
    ("Q(sqrt -1)", "16*i", 2, "1/48"), ("Q(sqrt -1)", "-16*i", 2, "1/48"),
    # table 4: l = 2 without i
    ("Q(sqrt 3)", "3", 2, "2/3"), ("Q(sqrt 3)", "-3", 2, "1/6"),
    ("Q(sqrt 3)", "9", 2, "5/6"), ("Q(sqrt 3)", "-9", 2, "1/12"),
    ("Q(sqrt 3)", "81", 2, "11/12"), ("Q(sqrt 3)", "-81", 2, "1/24"),
    ("Q(sqrt 3)", "2", 2, "7/24"), ("Q(sqrt 3)", "-2", 2, "7/24"),
    ("Q(sqrt 3)", "4", 2, "7/12"), ("Q(sqrt 3)", "-4", 2, "1/3"),
    ("Q(sqrt 3)", "16", 2, "11/12"), ("Q(sqrt 3)", "-16", 2, "1/24"),
] + [
    (field, a, 2, v)
    for a, v2, vm2 in [
        ("3", "7/24", "7/24"), ("-3", "7/24", "7/24"), ("9", "7/12", "7/12"),
        ("-9", "1/12", "1/12"), ("81", "2/3", "2/3"), ("-81", "1/6", "1/6"),
        ("2", "7/12", "1/12"), ("-2", "1/12", "7/12"), ("4", "2/3", "2/3"),
        ("-4", "1/6", "1/6"), ("16", "5/6", "5/6"), ("-16", "1/12", "1/12"),
    ]
    for field, v in (("Q(sqrt 2)", v2), ("Q(sqrt -2)", vm2))
]

GOLDEN: dict[tuple[str, str, int, int], Fraction] = {
    ("Q", a, 2, n): Fraction(v) for a, row in _TABLE1.items() for n, v in enumerate(row.split())
}
GOLDEN.update({(f, a, ell, 0): Fraction(v) for f, a, ell, v in _TABLES_2_TO_4})

TABLE1_ELEMENTS = list(_TABLE1)
# (field, element, l) of tables 2, 3 and 4, one list per table
TABLE_ROWS = [
    [(f, a, ell) for f, a, ell, _ in _TABLES_2_TO_4 if ell == 3],
    [(f, a, ell) for f, a, ell, _ in _TABLES_2_TO_4 if f == "Q(sqrt -1)"],
    [(f, a, ell) for f, a, ell, _ in _TABLES_2_TO_4 if ell == 2 and f != "Q(sqrt -1)"],
]
