"""The benchmark's three seeded workloads: inputs, queries and correctness checks.

Each workload builds its queries from the seed alone, runs one query through
public entry points of ``ordens`` only, and checks the recorded answers after
the timed loop.  Entry points are looked up on their modules at call time so
that the tracer's wrappers see every call.

- ``ladder``: ``ordens --format json density --val n`` through ``cli.main``
  for n = 0..N per element.  Builds a**(l**n) and decomposes it, so it is where
  the valuation ladder and the rational-root kernel show.  It scans no primes.
- ``crosscheck``: closed form against the Kummer-degree series, plus the shape
  checks, on small inputs at n = 0, and one ``ordens selfcheck``.
- ``scan``: one Chebotarev report per element, i.e. ``split_fraction`` for the
  nine pairs 1 <= m <= 3, 0 <= n <= m.  Eight of the nine calls repeat the
  element's (a, l, bound) key, so it is where the scan cache shows.

The element classes below fix each workload's shape (fields, primes, coordinate
sizes, valuation ranges); the seed only draws concrete coordinates inside
them, so the work per run changes little from one seed to the next.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import ordens
from ordens import cli, scan

from golden import GOLDEN, TABLE1_ELEMENTS, TABLE_ROWS


def field_text(d: int | None) -> str:
    return "Q" if d is None else f"Q(sqrt {d})"


def element_text(d: int | None, x, y=0) -> str:
    """Element text for x + y*sqrt(d) in the syntax ``parse_element`` reads."""
    x, y = Fraction(x), Fraction(y)
    if y == 0:
        return str(x)
    tail = f"{abs(y)}*sqrt({d})"
    if x == 0:
        return tail if y > 0 else f"-{tail}"
    return f"{x}{'+' if y > 0 else '-'}{tail}"


def _is_torsion(d: int | None, x: Fraction, y: Fraction) -> bool:
    units = {(1, 0), (-1, 0)}
    if d == -1:
        units |= {(0, 1), (0, -1)}
    if d == -3:
        h = Fraction(1, 2)
        units |= {(h, h), (h, -h), (-h, h), (-h, -h)}
    return (x, y) in units or (x == 0 and y == 0)


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _small_integral(rng: random.Random, d: int | None, lo: int, hi: int) -> tuple[int, int]:
    """Random x + y*sqrt(d) with lo <= |x|, |y| <= hi (y = 0 over Q).

    Never zero or a root of unity when lo >= 2, or lo >= 1 over a quadratic field.
    """
    x = _signed(rng, lo, hi)
    y = 0 if d is None else _signed(rng, lo, hi)
    return x, y


def _negate(text: str) -> str:
    """-a for a product of atoms, such as the golden tables' element texts."""
    return text[1:] if text.startswith("-") else f"-{text}"


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random, bool], list]
    query: Callable[[tuple], object]
    check: Callable[[list, list], dict[int, str]]
    properties: Callable[[list, list], dict]
    warm_up: Callable[[tuple, object], None] | None = None


# ---------------------------------------------------------------- ladder

class LadderQuery(NamedTuple):
    field: str
    a: str
    ell: int
    n: int
    minus_a: str    # text of -a, whose n = 0 query is also in the ladder


def _golden(q: LadderQuery) -> Fraction | None:
    return GOLDEN.get((q.field, q.a, q.ell, q.n))


# (fields, l, elements per field, coordinate range, n_max); l = 2 elements also
# run with -a.  Odd l over a quadratic field takes the Sturm path in ratroots,
# whose cost grows about threefold per step of n; the caps keep the largest
# query at a few hundred milliseconds.  Narrow coordinate ranges keep the cost
# of each class, and so the tail latency, nearly the same from seed to seed.
_LADDER_CLASSES = [
    ((None,), 2, 4, (56, 63), 12),
    ((None,), 2, 1, (56, 63), 16),
    ((-1, 2, -2, 3, -3, 5, -7), 2, 2, (44, 47), 9),
    ((-3, 3, -7), 3, 1, (6, 7), 4),
    ((5, -1), 5, 1, (6, 7), 3),
]
_LADDER_SMOKE_CLASSES = [
    ((None,), 2, 1, (33, 63), 6),
    ((-1, 3), 2, 1, (16, 47), 4),
    ((-3,), 3, 1, (4, 7), 2),
    ((5,), 5, 1, (4, 7), 1),
]


def build_ladder(rng: random.Random, smoke: bool) -> list[LadderQuery]:
    """n = 0..n_max for each element, and for l = 2 and golden rows also for -a."""
    pairs: list[tuple[str, str, str, int, int, bool]] = []   # field, a, -a, l, n_max, both
    classes = _LADDER_SMOKE_CLASSES if smoke else _LADDER_CLASSES
    for fields, ell, count, (lo, hi), n_max in classes:
        for d in fields:
            for _ in range(count):
                x, y = _small_integral(rng, d, lo, hi)
                pairs.append((field_text(d), element_text(d, x, y), element_text(d, -x, -y),
                              ell, n_max, ell == 2))
    # golden rows: table-1 elements for n <= 5, and one row of each of tables 2-4,
    # which pin n = 0, for n <= 1
    for a in rng.sample([a for a in TABLE1_ELEMENTS if not a.startswith("-")], 1 if smoke else 2):
        pairs.append(("Q", a, _negate(a), 2, 5, True))
    for rows in TABLE_ROWS[:1] if smoke else TABLE_ROWS:
        f, a, ell = rng.choice(rows)
        pairs.append((f, a, _negate(a), ell, 1, True))
    elements = []
    for f, a, minus_a, ell, top, both in pairs:
        elements.append((f, a, minus_a, ell, top))
        if both:  # for l = 2, feeds the check D(a, 1) == D(-a, 0)
            elements.append((f, minus_a, a, ell, top))
    return [LadderQuery(f, a, ell, n, minus_a)
            for f, a, minus_a, ell, top in elements for n in range(top + 1)]


def query_ladder(q: LadderQuery) -> Fraction:
    buf = io.StringIO()
    argv = ["--format", "json", "density", "--ell", str(q.ell), "--field", q.field,
            f"--a={q.a}", "--val", str(q.n)]
    try:
        rc = cli.main(argv, out=buf)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    if rc != 0:
        raise RuntimeError(f"ordens {' '.join(argv)} exited {rc}")
    return Fraction(json.loads(buf.getvalue())["exact"])


def check_ladder(queries: list[LadderQuery], results: list) -> dict[int, str]:
    failures: dict[int, str] = {}
    value: dict[LadderQuery, Fraction] = {}
    for i, (q, got) in enumerate(zip(queries, results)):
        if isinstance(got, Fraction):
            value[q] = got
            expected = _golden(q)
            if not 0 <= got <= 1:
                failures[i] = f"{q}: D = {got} outside [0, 1]"
            elif expected is not None and got != expected:
                failures[i] = f"{q}: D = {got}, golden table says {expected}"
    # criterion 9's tail bound on the partial sums, from n = depth on
    for i, q in enumerate(queries):
        if q not in value or i in failures:
            continue
        partial = sum(value.get(q._replace(n=k), Fraction(0)) for k in range(q.n + 1))
        dec, prof, _ = ordens.analyze(ordens.parse_element(q.a, ordens.parse_field(q.field)), q.ell)
        if partial > 1:
            failures[i] = f"{q}: partial sum {partial} exceeds 1"
        elif q.n >= dec.depth:
            bound = Fraction(q.ell) ** (prof.stall + (prof.zeta4_stall or 0) - q.n)
            if 1 - partial > bound:
                failures[i] = f"{q}: tail {1 - partial} above l^(t+s-n) = {bound}"
        if q.ell == 2 and q.n == 1:
            minus = value.get(LadderQuery(q.field, q.minus_a, 2, 0, q.a))
            if minus is not None and minus != value[q]:
                failures[i] = f"{q}: D(a, 1) = {value[q]} but D(-a, 0) = {minus}"
    return failures


def ladder_properties(queries: list[LadderQuery], results: list) -> dict:
    odd_quadratic = sum(1 for q in queries if q.ell != 2 and q.field != "Q")
    return {
        "queries": len(queries),
        "odd_l_quadratic_share": odd_quadratic / len(queries),
        "max_l_pow": max(q.ell ** q.n for q in queries),
    }


# ---------------------------------------------------------------- crosscheck

class CrossQuery(NamedTuple):
    field: str
    a: str
    ell: int


SELFCHECK = CrossQuery("", "selfcheck", 0)
CROSSCHECK_FIELDS = (None, 3, 5, 7, 2, -2, -1, -3, -5, -7, 17)
_UNIT_TEXT = {-1: "i", -3: "zeta3"}


class CrossResult(NamedTuple):
    closed: Fraction
    series: Fraction


def _random_small(rng: random.Random, d: int | None) -> str:
    while True:
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        y = Fraction(0) if d is None else Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if not _is_torsion(d, x, y):
            return element_text(d, x, y)


def _structured(rng: random.Random, d: int | None, ell: int, k: int) -> str:
    """b**(l**k) times a root of unity: depth k > 0 for most draws of b."""
    text = f"{element_text(d, *_small_integral(rng, d, 3, 6 if d is None else 4))}^{ell ** k}"
    unit = rng.choice((None, "-1", _UNIT_TEXT.get(d)))
    return text if unit is None else f"{unit}*{text}"


def build_crosscheck(rng: random.Random, smoke: bool) -> list[CrossQuery]:
    n_random, n_structured = (2, 1) if smoke else (40, 8)
    out = []
    for d in CROSSCHECK_FIELDS:
        for ell in (2, 3, 5):
            texts = [_random_small(rng, d) for _ in range(n_random)]
            texts += [_structured(rng, d, ell, 1 if ell == 5 else 1 + i % 2)
                      for i in range(n_structured)]
            out += [CrossQuery(field_text(d), t, ell) for t in texts]
    return out + [SELFCHECK]


def query_crosscheck(q: CrossQuery):
    if q == SELFCHECK:
        rc = cli.main(["selfcheck"], out=io.StringIO())
        if rc != 0:
            raise RuntimeError(f"ordens selfcheck exited {rc}")
        return rc
    a = ordens.parse_element(q.a, ordens.parse_field(q.field))
    closed = ordens.density(a, q.ell, 0).value
    series = ordens.density_series(a, q.ell).value
    ordens.shape_check(a, q.ell)  # raises on a violated shape
    return CrossResult(closed, series)


def check_crosscheck(queries: list[CrossQuery], results: list) -> dict[int, str]:
    failures = {}
    for i, (q, got) in enumerate(zip(queries, results)):
        if isinstance(got, CrossResult) and got.closed != got.series:
            failures[i] = f"{q}: closed {got.closed} != series {got.series}"
    return failures


def crosscheck_properties(queries: list[CrossQuery], results: list) -> dict:
    inputs = [q for q in queries if q != SELFCHECK]
    deep = sum(1 for q in inputs
               if ordens.decompose(ordens.parse_element(q.a, ordens.parse_field(q.field)),
                                   q.ell).depth > 0)
    return {"queries": len(queries), "inputs": len(inputs), "depth_pos_share": deep / len(inputs)}


# ---------------------------------------------------------------- scan

class ScanQuery(NamedTuple):
    field: str
    a: str
    ell: int
    bound: int


class SplitRow(NamedTuple):
    m: int
    n: int
    degree: int
    fraction: Fraction


SCAN_FIELDS = (None, -1, 3, -3, -2)
SCAN_BOUND = 10 ** 5
PAIRS = [(m, n) for m in (1, 2, 3) for n in range(m + 1)]


def _hangs_at_inert_two(d: int | None, x: int, y: int, ell: int) -> bool:
    """Inputs on which split_fraction does not return at this commit.

    For d = 5 mod 8 the prime 2 is inert, and the scan reduces into
    F_2[T]/(T**2 - d), which is not the field F_4.  An element of odd norm
    with odd y reduces to T there; T**3 == T, so the order loop for odd l
    never reaches 1.  (For l = 2 the loop ends, one step late, at that slot.)
    Such elements are not drawn until the scan is fixed.
    """
    return (d is not None and d % 8 == 5 and ell % 2 == 1
            and y % 2 == 1 and (x * x - d * y * y) % 2 == 1)


def _power(d: int | None, x: int, y: int, k: int) -> tuple[int, int]:
    px, py = 1, 0
    for _ in range(k):
        px, py = px * x + py * y * (d or 0), px * y + py * x
    return px, py


def build_scan(rng: random.Random, smoke: bool) -> list[ScanQuery]:
    """Per field and l: random small elements b, and l-th powers b**l (depth >= 1)."""
    n_random, n_powers = (1, 1) if smoke else (7, 3)
    bound = 2 * 10 ** 4 if smoke else SCAN_BOUND
    out = []
    for d in SCAN_FIELDS:
        for ell in (2, 3):
            for k in [1] * n_random + [ell] * n_powers:
                if k == 1:
                    lo, hi = (2, 60) if d is None else (1, 9)
                else:
                    lo, hi = (2, 6) if d is None else (2, 4)
                while True:
                    x, y = _small_integral(rng, d, lo, hi)
                    if not _hangs_at_inert_two(d, *_power(d, x, y, k), ell):
                        break
                text = element_text(d, x, y) + (f"^{k}" if k > 1 else "")
                out.append(ScanQuery(field_text(d), text, ell, bound))
    return out


def query_scan(q: ScanQuery) -> list[SplitRow]:
    a = ordens.parse_element(q.a, ordens.parse_field(q.field))
    dec, prof, special = ordens.analyze(a, q.ell)
    rows = []
    for m, n in PAIRS:
        degree = ordens.total_degree(ordens.KummerQuery(q.ell, m, n, dec, prof, special))
        rows.append(SplitRow(m, n, degree, ordens.split_fraction(a, q.ell, m, n, q.bound)))
    return rows


def slot_count(field: str, bound: int) -> int:
    return sum(1 for _ in ordens.enumerate_slots(ordens.parse_field(field), bound))


def warm_up_scan(q: ScanQuery, tracer) -> None:
    """Traced runs only: sieve and enumerate slots before a field's first query."""
    key = (q.field, q.bound)
    if key in tracer.slot_counts:
        return
    scan.sieve_primes(q.bound)
    with tracer.span("scan.slots"):
        tracer.slot_counts[key] = slot_count(q.field, q.bound)


def check_scan(queries: list[ScanQuery], results: list) -> dict[int, str]:
    failures = {}
    slots: dict[tuple[str, int], int] = {}
    for i, (q, rows) in enumerate(zip(queries, results)):
        if not isinstance(rows, list):
            continue
        key = (q.field, q.bound)
        if key not in slots:
            slots[key] = slot_count(q.field, q.bound)
        for r in rows:
            p = 1 / r.degree
            tol = max(0.01, 6 * math.sqrt(p * (1 - p) / slots[key]))
            if abs(float(r.fraction) - p) > tol:
                failures[i] = (f"{q} m={r.m} n={r.n}: split fraction {float(r.fraction):.5f} "
                               f"vs 1/{r.degree}, tolerance {tol:.4f}")
                break
    return failures


def scan_properties(queries: list[ScanQuery], results: list) -> dict:
    keys = [(q.field, q.a, q.ell, q.bound) for q in queries for _ in PAIRS]
    return {"queries": len(queries), "bound": queries[0].bound,
            "repeat_share": 1 - len(set(keys)) / len(keys)}


WORKLOADS = {
    "ladder": Workload(build_ladder, query_ladder, check_ladder, ladder_properties),
    "crosscheck": Workload(build_crosscheck, query_crosscheck, check_crosscheck,
                           crosscheck_properties),
    "scan": Workload(build_scan, query_scan, check_scan, scan_properties, warm_up_scan),
}


def make_queries(name: str, seed: int, smoke: bool = False) -> list:
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), smoke)
