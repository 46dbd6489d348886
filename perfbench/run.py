"""Benchmark driver for ordens.

    python3 perfbench/run.py --workload {ladder,crosscheck,scan} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The load comes from one process at a time: the driver starts
fresh single-threaded interpreters (child.py) one after another, with
ORDENS_THREADS removed and PYTHONHASHSEED fixed.  Each child sets up once and
runs every query of the workload once; the driver repeats children until
--seconds have passed and reports medians over them.

- setup: several set-up-only children come first; ``setup_s`` is the median
  over them and the measured children.
- times on the result line are scaled to a reference speed of the host by a
  fixed yardstick timed inside each child (see child.py), because other
  tenants of a shared machine change its speed by up to a factor of two for
  minutes at a time; the report also carries the raw times (``end_to_end_raw``).
- --trace 0: no child is traced; prints the end-to-end metrics.
- --trace 1: untraced and traced children alternate; prints the per-layer
  metrics, and the tracing overhead as traced minus untraced ``wall_s``.

Every answer is checked.  Failures are printed to stderr and make the exit
code 1.  The next-to-last output line is a full report (all quartiles, the
tail percentile, input properties, every per-layer metric, the environment);
the last line is the result object.  Reports and the spans of the last
traced child are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("ladder", "crosscheck", "scan")

SETUP_CHILDREN = 5
HARD_LIMIT_S = 170.0           # the whole run, so a slow program cannot overrun
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "peak_rss_mb": "MB",
}
# Per-layer metrics on the result line.  Self times that are zero on some
# workload (the layer is not run there) are left to the report.
PER_LAYER = (
    "field.parse.calls", "field.parse.self_s",
    "field.pow.calls", "field.pow.self_s", "field.pow.max_bits",
    "ratroots.roots.calls", "ratroots.roots.self_s", "ratroots.poly_eval.calls",
    "ratroots.coeff_bits_max",
    "roots.decompose.calls", "roots.decompose.self_s", "roots.decompose.hit_ratio",
    "roots.lth_roots.calls", "roots.lth_roots.self_s", "roots.lth_roots.found_ratio",
    "cyclo.profile.calls", "cyclo.profile.self_s", "cyclo.special_flag.self_s",
    "kummer.total_degree.calls", "density.density.calls", "density.closed.calls",
    "density.closed.hit_ratio", "scan.split_fraction.calls", "scan.repeat_share",
    "scan.slots.count", "tables.check.calls", "cli.main.calls", "trace.overhead_s",
)


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".count")):
        return "count"
    if "bits" in metric:
        return "bits"
    return "ratio"


def percentile(xs: list[float], p: float) -> float:
    s = sorted(xs)
    k = (len(s) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least MIN_BEYOND_TAIL queries beyond it."""
    for p in TAIL_PERCENTILES:
        if round(n * (100 - p) / 100, 6) >= MIN_BEYOND_TAIL:
            return p
    return 50.0


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ORDENS_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(children: list[dict], setup: list[float], suffix: str) -> tuple[dict, float]:
    """Summaries of the end-to-end metrics, from raw (suffix "_s") or scaled
    ("_ref_s") times."""
    n_queries = len(children[0]["latencies_s"])
    p = tail_percentile(n_queries)
    lat = "latencies" + suffix
    per_child = {
        "wall_s": [c["wall" + suffix] for c in children],
        "cpu_s": [c["cpu" + suffix] for c in children],
        "query_p50_ms": [1000 * statistics.median(c[lat]) for c in children],
        "query_tail_ms": [1000 * percentile(c[lat], p) for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    out = {"setup_s": summary(setup)}
    out.update({name: summary(v) for name, v in per_child.items()})
    for name, s in out.items():
        s["unit"] = END_TO_END[name]
    return out, p


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    names = traced[0]["layers"]
    out = {name: summary([c["layers"][name] for c in traced]) for name in names}
    overhead = (statistics.median(c["wall_ref_s"] for c in traced)
                - statistics.median(c["wall_ref_s"] for c in untraced))
    out["trace.overhead_s"] = {"median": overhead, "n": len(traced)}
    for name, s in out.items():
        s["unit"] = unit_of(name)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "ordens" / "__init__.py").is_file():
        print(f"error: no ordens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "seed": args.seed, "load_avg_start": os.getloadavg()}
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--smoke"] if args.smoke else []
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"

    try:
        setup = [run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_CHILDREN)]
        untraced: list[dict] = []
        traced: list[dict] = []
        measure_until = time.monotonic() + args.seconds
        while True:
            if args.trace and len(traced) < len(untraced):
                traced.append(run_child(base + ["--traced", "--spans-out", str(spans_path)],
                                        deadline))
            else:
                untraced.append(run_child(base, deadline))
            if time.monotonic() >= measure_until and (traced or not args.trace):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    children = untraced + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    setup += children
    e2e, tail_p = end_to_end(untraced, [c["setup_ref_s"] for c in setup], "_ref_s")
    e2e_raw, _ = end_to_end(untraced, [c["setup_s"] for c in setup], "_s")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "children": {"setup_only": SETUP_CHILDREN, "untraced": len(untraced),
                                         "traced": len(traced)},
        "input_properties": untraced[0]["properties"],
        "end_to_end": e2e,
        "end_to_end_raw": e2e_raw,
        "yardstick_s": summary([c["yardstick_s"] for c in untraced]),
        "query_tail": {"percentile": tail_p, "queries_per_run": len(untraced[0]["latencies_s"])},
        "failed_frac": failed / attempted,
        "run_s": time.monotonic() - started,
    }
    if args.trace:
        report["per_layer"] = per_layer(traced, untraced)
        report["tracer_notes"] = traced[-1]["tracer_notes"]
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    failures = sorted({f for c in children for f in c["failures"]})
    report["failures"] = failures

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    source = report["per_layer"] if args.trace else e2e
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": source[n]["median"], "unit": unit_of(n)} for n in names},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
