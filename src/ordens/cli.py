"""Command-line front end.

Exit codes: 0 success, 2 parse/usage error, 3 domain error (zero element,
non-squarefree d, n > m, ...), 4 golden-table mismatch or failed internal
invariant, 141 (128 + SIGPIPE) with no traceback when the reader closes
stdout early, as `| head -1` does.

Each subparser registers its command as args.run.  A command takes (args, a),
a being the parsed --a or None, and returns (code, lines, payload[, rows]); main
parses --field and then --a, calls it, and prints its answer through _emit.

The argument parser (built at the first main call), the element of each
(--field, --a) text pair and the JSON encoder are made once per process; a
shell command calls main once, so they pay only where one interpreter calls
main many times.  analyze caches its answer per (a, l), so the D(a, n) of one
element share its normal form, halving flag and shape; the closed form, D(a, n)
for n >= 1, the series value and the shape-check verdict are cached per
normal-form shape (and n), so the elements of one shape share those too.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import tables
from .cyclo import cyclo_profile, cyclotomic_degree
from .density import InvariantError, analyze, density, density_series
from .field import (DomainError, FieldMismatch, ParseError, _check_ell, parse_element,
                    parse_field)
from .kummer import KummerQuery, total_degree
from .roots import Case, decompose
from .scan import empirical_density

CSV_HEADER = ["field", "a", "ell", "n", "exact", "empirical", "abs_error"]
_JSON = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds per call


def _approx(q: Fraction) -> str:
    return f"{q.numerator / q.denominator:.6f}"


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call.

    Sharing is safe: parse_args returns a fresh Namespace each time, and
    argparse looks up sys.stdout and sys.stderr only when it writes.
    """
    p = argparse.ArgumentParser(
        prog="ordens",
        description="Exact densities of primes by the l-adic valuation of an "
                    "element's multiplicative order, over Q and quadratic fields.")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, element=True):
        sp.add_argument("--ell", type=int, required=True, help="prime l")
        sp.add_argument("--field", required=True, help="Q or 'Q(sqrt D)'")
        if element:
            sp.add_argument("--a", required=True,
                            help="element text; a leading '-' is fine, as in --a -2/3, "
                                 "and binds before '^': -2^2 is 4, -1*2^2 is -4")

    d = sub.add_parser("density", help="exact density for a prescribed valuation")
    d.set_defaults(run=_cmd_density)
    common(d)
    d.add_argument("--val", type=int, default=0, help="order valuation n (default 0)")

    k = sub.add_parser("kummer", help="relative and total Kummer degrees")
    k.set_defaults(run=_cmd_kummer)
    common(k)
    k.add_argument("--m", type=int, required=True)
    k.add_argument("--n", type=int, required=True)

    dec = sub.add_parser("decompose", help="power-times-unit normal form")
    dec.set_defaults(run=_cmd_decompose)
    common(dec)

    prof = sub.add_parser("profile", help="cyclotomic tower parameters")
    prof.set_defaults(run=_cmd_profile)
    common(prof, element=False)

    s = sub.add_parser("scan", help="empirical density over primes of the field")
    s.set_defaults(run=_cmd_scan)
    common(s)
    s.add_argument("--bound", type=int, default=10 ** 5, help="norm bound")
    s.add_argument("--compare", action="store_true",
                   help="include exact densities and the max error")

    t = sub.add_parser("tables", help="recompute a golden table and diff it")
    t.set_defaults(run=_cmd_tables)
    t.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)

    sc = sub.add_parser("selfcheck", help="golden tables plus closed-vs-series spot checks")
    sc.set_defaults(run=_cmd_selfcheck)
    return p


def _emit(out, fmt: str, lines: list[str], payload: dict,
          rows: list[dict] | None = None) -> None:
    """Print a command's answer: the payload as json, the rows as csv, else the lines.

    main is the one caller.  csv rows end in CRLF, as csv.writer writes them.  A
    command without csv rows prints its plain lines for --format csv.
    """
    if fmt == "json":
        print(_JSON.encode(payload), file=out)
    elif fmt == "csv" and rows is not None:
        w = csv.writer(out)
        w.writerow(CSV_HEADER)
        w.writerows([r.get(c, "") for c in CSV_HEADER] for r in rows)
    else:
        print("\n".join(lines), file=out)


def _cmd_density(args, a) -> tuple:
    dv = density(a, args.ell, args.val)
    key = {"field": args.field, "a": args.a, "ell": args.ell, "n": args.val}
    exact = str(dv.value)
    return (0, [exact],
            {**key, "exact": exact, "approx": _approx(dv.value), "method": dv.method,
             "branch": dv.branch, "params": {k: str(v) for k, v in dv.params}},
            [{**key, "exact": exact}])


def _cmd_kummer(args, a) -> tuple:
    dec, prof, special = analyze(a, args.ell)
    q = KummerQuery(args.ell, args.m, args.n, dec, prof, special)
    rel = (tot := total_degree(q)) // cyclotomic_degree(prof, args.m)
    return (0, [f"relative_degree {rel}", f"total_degree {tot}"],
            {"relative_degree": rel, "total_degree": tot,
             "m": args.m, "n": args.n, "special": special})


def _key_values(payload: dict) -> list[str]:
    return [" ".join(f"{k}={v}" for k, v in payload.items())]


def _cmd_decompose(args, a) -> tuple:
    dec = decompose(a, args.ell)
    payload = {"case": dec.case.value}
    if dec.case is not Case.ROOT_OF_UNITY:
        payload.update(d=dec.depth, b=str(dec.base), xi=str(dec.unit), r=dec.unit_level)
    return 0, _key_values(payload), payload


def _cmd_profile(args, a) -> tuple:
    field = parse_field(args.field)
    prof = cyclo_profile(field, args.ell)
    payload = {"field": str(field), **prof._asdict(),
               "tower": prof.tower.value if prof.tower else None}
    return 0, _key_values(payload), payload


def _cmd_scan(args, a) -> tuple:
    rep = empirical_density(a, args.ell, args.bound)
    lines = [f"counted {rep.counted} slots, excluded primes {list(rep.excluded)}"]
    rows, exact = [], {}
    for n in sorted(rep.empirical):
        emp = rep.empirical[n]
        line = f"n={n} count={rep.histogram.get(n, 0)} empirical={emp} ({_approx(emp)})"
        row = {"field": args.field, "a": args.a, "ell": args.ell, "n": n,
               "empirical": str(emp)}
        if args.compare:  # the scan only counts: the exact side is computed here
            ex = exact[n] = density(a, args.ell, n).value
            line += f" exact={ex} ({_approx(ex)})"
            row.update(exact=str(ex), abs_error=str(abs(emp - ex)))
        lines.append(line)
        rows.append(row)
    payload = {
        "field": args.field, "a": args.a, "ell": args.ell,
        "bound": rep.bound, "counted": rep.counted,
        "excluded": list(rep.excluded),
        "histogram": {str(n): c for n, c in rep.histogram.items()},
        "empirical": {str(n): str(v) for n, v in rep.empirical.items()},
    }
    if args.compare:
        err = max(abs(rep.empirical[n] - v) for n, v in exact.items())
        lines.append(f"max_abs_error {err} ({_approx(err)})")
        payload.update(exact={str(n): str(v) for n, v in exact.items()},
                       max_abs_error=str(err), max_abs_error_approx=_approx(err))
    return 0, lines, payload, rows


def _cmd_tables(args, a) -> tuple:
    results, diffs = tables.check_table(args.which)
    lines = [f"{r.field}\t{r.a}\tl={r.ell}\tn={r.n}\t{got}"
             + ("" if got == r.expected else f"  MISMATCH expected {r.expected}")
             for r, got in results]
    lines.append(f"{len(results)} rows, {len(diffs)} diffs")
    payload = {"table": args.which, "diffs": len(diffs),
               "rows": [{"field": r.field, "a": r.a, "ell": r.ell, "n": r.n,
                         "expected": str(r.expected), "computed": str(got)}
                        for r, got in results]}
    rows = [{"field": r.field, "a": r.a, "ell": r.ell, "n": r.n, "exact": str(got)}
            for r, got in results]
    return 4 if diffs else 0, lines, payload, rows


def _cmd_selfcheck(args, a) -> tuple:
    lines, counts, checks = [], [], []
    for which in (1, 2, 3, 4):
        n = len(tables.check_table(which)[1])
        counts.append({"table": which, "diffs": n})
        lines.append(f"table {which}: {f'{n} diffs' if n else 'ok'}")
    spot = [("Q(sqrt 3)", "2", 3), ("Q(sqrt -3)", "8*zeta3", 3),
            ("Q(sqrt -1)", "4*i", 2), ("Q(sqrt 3)", "-81", 2),
            ("Q", "2", 2), ("Q(sqrt -2)", "12", 2)]
    for ftext, atext, ell in spot:
        a = parse_element(atext, parse_field(ftext))
        closed = density(a, ell).value
        series = density_series(a, ell).value
        ok = closed == series
        checks.append({"field": ftext, "a": atext, "ell": ell, "closed": str(closed),
                       "series": str(series), "ok": ok})
        lines.append(f"series check {ftext} a={atext} l={ell}: closed={closed} "
                     f"series={series} {'ok' if ok else 'MISMATCH'}")
    passed = not any(c["diffs"] for c in counts) and all(c["ok"] for c in checks)
    lines.append(f"selfcheck {'passed' if passed else 'FAILED'}")
    return 0 if passed else 4, lines, {"tables": counts, "series": checks, "passed": passed}


# --a parsed over --field per text pair; lru_cache keeps no failure, so bad text raises each call
_element = lru_cache(4096)(lambda field_text, text: parse_element(text, parse_field(field_text)))


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads text like -2/3 as an option
        if argv[i] == "--a" and argv[i + 1][:1] == "-" and argv[i + 1][:2] != "--":
            argv[i:i + 2] = [f"--a={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        if "ell" in args:
            _check_ell(args.ell, "--ell")
        a = _element(args.field, args.a) if "a" in args else None
        code, *answer = args.run(args, a)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, FieldMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4
    _emit(out or sys.stdout, args.format, *answer)
    return code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
