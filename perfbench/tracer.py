"""Per-layer tracing from outside the package.

The tracer replaces each public function of ``ordens`` listed in TARGETS by
a wrapper, at every module attribute that binds it (``ordens.roots.decompose``,
``ordens.density.decompose``, ``ordens.cli.decompose``, ...), and wraps
``Element.__pow__`` on the class.  While active, every wrapped call records
one span (layer, start, end, parent span, query id) in memory.  Self time is
a span's duration minus its children's.  Hot leaf functions are only counted.

A name that does not exist is skipped and listed in ``missing``; a function
without ``cache_info`` reports a hit ratio of 0 and is listed in ``uncached``;
an observer that fails on a changed signature is listed in ``observer_errors``.
None of these fails a run, so later changes to the program need no edit here.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Target(NamedTuple):
    layer: str
    module: str
    name: str            # "function" or "Class.method"
    spans: bool = True   # False: count calls only


TARGETS = (
    Target("field.parse", "ordens.field", "parse_field"),
    Target("field.parse", "ordens.field", "parse_element"),
    Target("field.pow", "ordens.field", "Element.__pow__"),
    Target("ratroots.roots", "ordens.ratroots", "rational_roots_monic"),
    Target("ratroots.poly_eval", "ordens.ratroots", "poly_eval", spans=False),
    Target("roots.decompose", "ordens.roots", "decompose"),
    Target("roots.lth_roots", "ordens.roots", "lth_roots"),
    Target("cyclo.profile", "ordens.cyclo", "cyclo_profile"),
    Target("cyclo.special_flag", "ordens.cyclo", "special_case_flag"),
    Target("kummer.total_degree", "ordens.kummer", "total_degree"),
    Target("density.density", "ordens.density", "density"),
    Target("density.closed", "ordens.density", "density_closed"),
    Target("density.series", "ordens.density", "density_series"),
    Target("density.shape", "ordens.density", "shape_check"),
    Target("scan.sieve", "ordens.scan", "sieve_primes"),
    Target("scan.split_fraction", "ordens.scan", "split_fraction"),
    Target("tables.check", "ordens.tables", "check_table"),
    Target("cli.main", "ordens.cli", "main"),
)

# layers whose hit ratio is read from the original function's cache_info()
CACHED_LAYERS = ("roots.decompose", "density.closed")
# spans the benchmark opens itself, around calls it makes into a layer
BENCH_LAYERS = ("scan.slots",)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _observe_pow(tr: "Tracer", args, kwargs, result, self_s) -> None:
    tr.max_pow_bits = max(tr.max_pow_bits, _bits(result.x), _bits(result.y))


def _observe_roots(tr: "Tracer", args, kwargs, result, self_s) -> None:
    tr.max_coeff_bits = max([tr.max_coeff_bits] + [_bits(c) for c in args[0]])


def _observe_lth_roots(tr: "Tracer", args, kwargs, result, self_s) -> None:
    tr.roots_found += bool(result)


def _observe_split(tr: "Tracer", args, kwargs, result, self_s) -> None:
    a, ell = args[0], args[1]
    bound = args[4] if len(args) > 4 else kwargs["bound"]
    key = (a, ell, bound)
    if key in tr.split_keys:
        tr.split_repeats += 1
        return
    tr.split_keys.add(key)
    tr.first_split_s += self_s
    tr.first_split_slots += tr.slot_counts.get((str(a.field), bound), 0)


OBSERVERS = {
    "field.pow": _observe_pow,
    "ratroots.roots": _observe_roots,
    "roots.lth_roots": _observe_lth_roots,
    "scan.split_fraction": _observe_split,
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.query: int | None = None
        self.spans: list = []
        self._stack: list[list] = []      # [span index, children's time, self time, start]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self.uncached: list[str] = []
        self.observer_errors: dict[str, str] = {}
        self._originals: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._cache_end: dict[str, tuple[int, int]] = {}
        self.slot_counts: dict[tuple[str, int], int] = {}
        self.max_pow_bits = 0
        self.max_coeff_bits = 0
        self.roots_found = 0
        self.split_keys: set = set()
        self.split_repeats = 0
        self.first_split_s = 0.0
        self.first_split_slots = 0

    # -- installation

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ordens" or name.startswith("ordens."))]
        for t in TARGETS:
            owner = sys.modules.get(t.module)
            holder_name, _, attr = t.name.rpartition(".")
            holder = getattr(owner, holder_name, None) if holder_name else owner
            fn = getattr(holder, attr, None) if holder is not None else None
            if fn is None:
                self.missing.append(f"{t.module}.{t.name}")
                continue
            self._originals.setdefault(t.layer, fn)
            wrapper = self._wrap(t, fn)
            if holder_name:
                setattr(holder, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def _wrap(self, t: Target, fn):
        tracer = self
        if not t.spans:
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[t.layer] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        observe = OBSERVERS.get(t.layer)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(frame, t.layer)
            if observe is not None:
                try:
                    observe(tracer, args, kwargs, result, frame[2])
                except Exception as exc:  # a changed signature must not fail the run
                    tracer.observer_errors[t.layer] = f"{type(exc).__name__}: {exc}"
            return result
        return functools.wraps(fn)(traced)

    def _begin(self) -> list:
        frame = [len(self.spans), 0.0, 0.0, time.perf_counter()]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _end(self, frame: list, layer: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[3]
        if self._stack:
            self._stack[-1][1] += duration
        frame[2] = duration - frame[1]
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[frame[0]] = (layer, frame[3], end, parent, self.query)
        self.calls[layer] += 1
        self.self_s[layer] += frame[2]

    @contextmanager
    def span(self, layer: str):
        """A span the benchmark opens around its own call into a layer."""
        frame = self._begin()
        try:
            yield
        finally:
            self._end(frame, layer)

    # -- activity and results

    def _cache_counts(self, layer: str) -> tuple[int, int] | None:
        info = getattr(self._originals.get(layer), "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.misses

    def start(self) -> None:
        for layer in CACHED_LAYERS:
            counts = self._cache_counts(layer)
            if counts is None:
                self.uncached.append(layer)
            else:
                self._cache_start[layer] = counts
        self.active = True

    def stop(self) -> None:
        self.active = False
        self._cache_end = {layer: self._cache_counts(layer) for layer in self._cache_start}

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        for layer in sorted({t.layer for t in TARGETS} | set(BENCH_LAYERS)):
            m[f"{layer}.calls"] = self.calls[layer]
            if layer != "ratroots.poly_eval":
                m[f"{layer}.self_s"] = self.self_s[layer]
        for layer in CACHED_LAYERS:
            ratio = 0.0
            if layer in self._cache_start:
                h0, m0 = self._cache_start[layer]
                h1, m1 = self._cache_end[layer]
                ratio = (h1 - h0) / max(1, (h1 - h0) + (m1 - m0))
            m[f"{layer}.hit_ratio"] = ratio
        m["field.pow.max_bits"] = self.max_pow_bits
        m["ratroots.coeff_bits_max"] = self.max_coeff_bits
        m["roots.lth_roots.found_ratio"] = self.roots_found / max(1, self.calls["roots.lth_roots"])
        m["scan.slots.count"] = sum(self.slot_counts.values())
        m["scan.slots_per_s"] = (self.first_split_slots / self.first_split_s
                                 if self.first_split_s else 0.0)
        m["scan.repeat_share"] = self.split_repeats / max(1, self.calls["scan.split_fraction"])
        return m

    def notes(self) -> dict:
        return {"missing": self.missing, "uncached": self.uncached,
                "observer_errors": self.observer_errors}

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for layer, start, end, parent, query in self.spans:
                f.write(json.dumps([layer, start, end, parent, query]) + "\n")
