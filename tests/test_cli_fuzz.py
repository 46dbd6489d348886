"""Fuzz over CLI argv: every input answers with a documented exit code, in bounded time.

Runs in process through cli.main, whose parser is built once, so one example
costs well under a millisecond for most commands.
"""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordens.cli import main
from ordens.scan import MAX_BOUND

BUDGET_S = 3.0

_TOKENS = list("0123456789+-*^/()") + ["sqrt", "i", "zeta3"]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=24).map(lambda ts: "".join(ts)[:24])
_HUGE = st.integers(10 ** 18, 10 ** 40) | st.integers(-10 ** 40, -10 ** 18)



def _mostly(common, *rare):
    """common six times as often as each of rare."""
    return st.sampled_from([common] * 6 + list(rare)).flatmap(lambda strategy: strategy)


_FIXED_ELEMENTS = [
    "2", "-3", "12", "1/2", "-81", "2^9", "7^1000", "0", "1", "-1", "i", "4*i",
    "zeta3", "8*zeta3", "1+1*sqrt(2)", "-1/2+1/2*sqrt(-3)", "3*sqrt(5)",
]
_FIXED_FIELDS = ["Q", "Q(sqrt 2)", "Q(sqrt 3)", "Q(sqrt 5)", "Q(sqrt -1)", "Q(sqrt -2)",
                 "Q(sqrt -3)", "Q(sqrt -7)", "Q(sqrt 12)", "Q(sqrt 0)", "Q(sqrt 1)"]
_ELEMENTS = _mostly(st.sampled_from(_FIXED_ELEMENTS), _SOUP)
_FIELDS = _mostly(st.sampled_from(_FIXED_FIELDS),
                  (st.integers(-40, 40) | _HUGE).map(lambda d: f"Q(sqrt {d})"), _SOUP)


def _ints(small):
    """Flag values: small ints, huge ints, or text."""
    return _mostly(small, _HUGE, _SOUP).map(str)


_ELL = _ints(st.sampled_from([2, 3, 5, 7, 31, 61, 67, 1048573]) | st.integers(-3, 40))
_SMALL = _ints(st.integers(-3, 40))
# a bound over MAX_BOUND only takes the refusal path; others stay small enough to scan
_BOUND = _mostly(st.integers(-5, 10 ** 4), st.integers(MAX_BOUND + 1, 10 ** 30),
                 _SOUP).map(str)

_COMMON = [("--ell", _ELL), ("--field", _FIELDS), ("--a", _ELEMENTS)]
_COMMANDS = {
    "density": _COMMON + [("--val", _SMALL)],
    "kummer": _COMMON + [("--m", _SMALL), ("--n", _SMALL)],
    "decompose": _COMMON,
    "profile": _COMMON[:2],
    "scan": _COMMON + [("--bound", _BOUND), ("--compare", None)],
    "tables": [("--which", _ints(st.integers(-1, 6)))],
    "selfcheck": [],
}


@st.composite
def argvs(draw):
    """argv for one subcommand, each flag dropped, given once, or given twice."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    args = []
    for flag, values in _COMMANDS[command]:
        for _ in range(draw(st.sampled_from([1] * 8 + [0, 2]))):
            args.append([flag] if values is None else [flag, draw(values)])
    args = draw(st.permutations(args))
    head = []
    if draw(st.booleans()):
        head = ["--format", draw(_mostly(st.sampled_from(["plain", "csv", "json"]), _SOUP))]
    return head + [command] + [tok for arg in args for tok in arg]


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse exits count as codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_argv_gets_a_documented_exit_code(argv):
    start = time.perf_counter()
    code, _, err = _run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4, ("argparse", 0), ("argparse", 2)), (argv, code, err)
    assert elapsed < BUDGET_S, f"{argv} took {elapsed:.2f}s"


@pytest.mark.parametrize("value", _FIXED_ELEMENTS)
def test_element_text_reads_the_same_with_or_without_equals(value):
    for field in _FIXED_FIELDS:
        argv = ["density", "--ell", "2", "--field", field]
        assert _run(argv + ["--a", value]) == _run(argv + [f"--a={value}"]), field
