"""One measured round of a workload, in a fresh interpreter.

Started by run.py, one at a time.  Times ``import ordens`` plus building the
inputs from the seed (setup), then every query of the workload (wall and CPU
time, per-query latency), reads the peak resident memory, and only then
checks the answers.  With --traced the tracer wraps the package first and
the per-layer metrics are returned instead of being left to the timed runs.
Prints one JSON object on its last line of output.

Speed of the host.  On a shared virtual machine the same code runs up to
twice as slow for seconds or minutes at a time while other tenants are
busy.  So after setup, and after every EVERY_S of queries, the child times a
fixed pure-Python yardstick that does not touch ordens, and scales the times
measured since the previous yardstick by REFERENCE_S / yardstick time: the
``*_ref`` values are seconds at the speed where the yardstick takes
REFERENCE_S.  Raw times are returned as well.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import ordens  # noqa: E402,F401  (timed as part of setup)
import ordens.cli  # noqa: E402,F401
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 20
REFERENCE_S = 0.0025     # yardstick time at the reference speed
EVERY_S = 0.025          # query time between two yardsticks
SETUP_YARDSTICKS = 5


def yardstick() -> float:
    """Seconds for a fixed mix of Fraction, big-integer and dict work."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
    x, y = 3 ** 3000, 0
    for i in range(100):
        y ^= (x * (x + i)) >> 3000
    d = {}
    for i in range(1000):
        d[i] = str(i)
    return time.perf_counter() - t


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    queries = workloads.make_queries(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - _T0
    setup_speed = REFERENCE_S / statistics.median(yardstick() for _ in range(SETUP_YARDSTICKS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * setup_speed}))
        return 0

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()

    results: list = []
    latencies: list[float] = []
    cpu: list[float] = []
    speed: list[float] = []      # REFERENCE_S / yardstick, for each query
    yardsticks: list[float] = []
    errors: dict[int, str] = {}
    pending = 0                  # queries since the last yardstick
    since = 0.0
    for i, q in enumerate(queries):
        t, c = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.query = i
            if wl.warm_up is not None:
                wl.warm_up(q, tracer)
        try:
            result = wl.query(q)
        except Exception as exc:  # a failed query is counted, not fatal
            result = None
            errors[i] = f"{q}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        cpu.append(time.process_time() - c)
        results.append(result)
        pending += 1
        since += latencies[-1]
        if since >= EVERY_S or i == len(queries) - 1:
            yardsticks.append(yardstick())
            speed += [REFERENCE_S / yardsticks[-1]] * pending
            pending, since = 0, 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies_ref = [t * f for t, f in zip(latencies, speed)]

    out = {"setup_s": setup_s, "setup_ref_s": setup_s * setup_speed,
           "wall_s": sum(latencies), "wall_ref_s": sum(latencies_ref),
           "cpu_s": sum(cpu), "cpu_ref_s": sum(c * f for c, f in zip(cpu, speed)),
           "latencies_s": latencies, "latencies_ref_s": latencies_ref,
           "yardstick_s": statistics.median(yardsticks), "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.stop()
        out["layers"] = tracer.metrics()
        out["tracer_notes"] = tracer.notes()
        if args.spans_out:
            tracer.write_spans(args.spans_out)

    failures = {**wl.check(queries, results), **errors}
    out.update(attempted=len(queries), failed=len(failures),
               failures=[failures[i] for i in sorted(failures)][:MAX_FAILURES_SHOWN],
               properties=wl.properties(queries, results))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
