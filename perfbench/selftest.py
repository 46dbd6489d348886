"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints; that a
smoke run of every workload prints every end-to-end metric with no failed
query; that a traced smoke run prints every per-layer metric, exercises the
layers each workload is meant to load, and reports its tracing overhead; and
that corrupting one expected value per workload is counted as a failure.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

# Per-layer metrics each workload is meant to move; each must be non-zero there
# (hit and found ratios may legitimately be zero and are only required to exist).
ASSIGNED = {
    "ladder": [
        "field.parse.calls", "field.parse.self_s", "field.pow.calls", "field.pow.self_s",
        "field.pow.max_bits", "ratroots.roots.calls", "ratroots.roots.self_s",
        "ratroots.poly_eval.calls", "ratroots.coeff_bits_max", "roots.decompose.calls",
        "roots.decompose.self_s", "roots.decompose.hit_ratio", "roots.lth_roots.calls",
        "roots.lth_roots.self_s", "roots.lth_roots.found_ratio", "density.density.calls",
        "density.density.self_s", "density.closed.calls", "density.closed.self_s",
        "density.closed.hit_ratio", "cli.main.calls", "cli.main.self_s",
    ],
    "crosscheck": [
        "ratroots.roots.calls", "ratroots.roots.self_s", "ratroots.poly_eval.calls",
        "ratroots.coeff_bits_max", "roots.decompose.calls", "roots.decompose.self_s",
        "roots.decompose.hit_ratio", "roots.lth_roots.calls", "roots.lth_roots.self_s",
        "roots.lth_roots.found_ratio", "cyclo.profile.calls", "cyclo.profile.self_s",
        "cyclo.special_flag.self_s", "kummer.total_degree.calls", "kummer.total_degree.self_s",
        "density.series.self_s", "density.shape.self_s", "tables.check.calls",
        "tables.check.self_s",
    ],
    "scan": [
        "scan.sieve.self_s", "scan.slots.count", "scan.slots.self_s",
        "scan.split_fraction.calls", "scan.split_fraction.self_s", "scan.slots_per_s",
        "scan.repeat_share",
    ],
}
MAY_BE_ZERO = ("hit_ratio", "found_ratio")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def smoke_run(workload: str, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == {n: run.unit_of(n) for n in run.PER_LAYER},
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")


def check_runs(workload: str) -> None:
    rc, report, result = smoke_run(workload, 0)
    expect(rc == 0 and result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0,
           f"{workload}: untraced smoke run passes with failed_frac = 0")
    expect(set(result["metrics"]) == set(run.END_TO_END)
           and all(m["value"] > 0 for m in result["metrics"].values()),
           f"{workload}: every end-to-end metric printed and non-zero")

    rc, report, result = smoke_run(workload, 1)
    expect(rc == 0 and result["correct"], f"{workload}: traced smoke run passes")
    expect(set(result["metrics"]) == set(run.PER_LAYER),
           f"{workload}: every per-layer metric printed")
    layers = report["per_layer"]
    missing = [m for m in ASSIGNED[workload] if m not in layers]
    idle = [m for m in ASSIGNED[workload]
            if m in layers and not m.endswith(MAY_BE_ZERO) and layers[m]["median"] <= 0]
    expect(not missing and not idle, f"{workload}: assigned layers reported and exercised "
                                     f"(missing {missing}, zero {idle})")
    expect("trace.overhead_s" in layers, f"{workload}: tracing overhead reported")
    expect(not report["tracer_notes"]["missing"], f"{workload}: tracer found every target")


def check_corruption() -> None:
    """A corrupted expected value must be counted as a failed query."""
    import workloads
    from workloads import WORKLOADS, make_queries

    for name, wl in WORKLOADS.items():
        queries = make_queries(name, 7, smoke=True)
        results = [wl.query(q) for q in queries]
        expect(not wl.check(queries, results), f"{name}: clean results pass the checks")
        if name == "ladder":
            i = next(i for i, q in enumerate(queries) if workloads._golden(q) is not None)
            key = queries[i][:4]
            saved = workloads.GOLDEN[key]
            workloads.GOLDEN[key] = saved + 1
            try:
                caught = i in wl.check(queries, results)
            finally:
                workloads.GOLDEN[key] = saved
        elif name == "crosscheck":
            i = next(i for i, r in enumerate(results) if isinstance(r, workloads.CrossResult))
            results[i] = results[i]._replace(series=results[i].series + 1)
            caught = i in wl.check(queries, results)
        else:
            i = 0
            rows = results[i]
            j = min(range(len(rows)), key=lambda k: rows[k].degree)
            rows[j] = rows[j]._replace(degree=rows[j].degree + 1)
            caught = i in wl.check(queries, results)
        expect(caught, f"{name}: a corrupted expected value counts as a failure")


def main() -> int:
    check_benchmark_json()
    for workload in run.WORKLOADS:
        check_runs(workload)
    check_corruption()
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
