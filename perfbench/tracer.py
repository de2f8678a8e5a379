"""Spans and counters around the calls into each ``chmm`` layer.

Nothing under ``src/`` is changed: the tracer replaces the module attributes
that callers look up at call time (``chmm.pairhmm.check_constraints``,
``chmm.cli.parse_model``, ...) with timing wrappers and puts the originals
back afterwards. Spans are kept in memory and written out at the end.

``check_constraints`` runs hundreds of thousands of times per request, so it
gets no span per call. Its calls are folded into one aggregate span under the
span that made them, carrying the call count and the busy time (first call's
start to last call's end bounds it inside its parent). Collector pauses are
spans of their own (layer ``gc``) and are subtracted from the busy time of a
check they interrupt, so no pause is charged to two layers.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter

CHECK = "constraints.check_constraints"

# (module, attribute, span name, inject a fresh DecodeStats per call)
WRAPPED = (
    ("modelio", "parse_model", "modelio.parse_model", False),
    ("modelio", "parse_constraints", "modelio.parse_constraints", False),
    ("modelio", "read_fasta", "modelio.read_fasta", False),
    ("modelio", "validate_model", "hmm.validate_model", False),
    ("cli", "main", "cli.main", False),
    ("cli", "parse_model", "modelio.parse_model", False),
    ("cli", "parse_constraints", "modelio.parse_constraints", False),
    ("cli", "read_fasta", "modelio.read_fasta", False),
    ("cli", "run_log_probability", "hmm.run_log_probability", False),
    ("cli", "build_pair_chmm", "pairhmm.build_pair_chmm", False),
    ("cli", "align", "pairhmm.align", True),
    ("cli", "constrained_viterbi", "decoder.constrained_viterbi", True),
    ("decoder", "validate_chmm", "decoder.validate_chmm", False),
    ("decoder", "validate_model", "hmm.validate_model", False),
    ("decoder", "constrained_viterbi", "decoder.constrained_viterbi", True),
    ("pairhmm", "build_pair_chmm", "pairhmm.build_pair_chmm", False),
    ("pairhmm", "align", "pairhmm.align", True),
)
CHECK_CALLERS = ("decoder", "pairhmm")

# Exact counters; they repeat byte for byte on every pass over a menu.
EXACT = (
    "constraints.check_calls",
    "constraints.distinct_stores",
    "pairhmm.peak_entries",
    "pairhmm.expansions",
    "pairhmm.prunes",
    "decoder.peak_entries",
    "decoder.expansions",
    "decoder.prunes",
)


class Span:
    __slots__ = (
        "id", "name", "parent", "up", "request", "start", "end",
        "child_ns", "calls", "busy_ns", "first", "last",
    )

    def record(self, t0: int) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start_ns": self.start - t0,
            "end_ns": self.end - t0,
        }
        if self.name == CHECK:
            out["calls"] = self.calls
            out["busy_ns"] = self.busy_ns
        return out

    @property
    def self_ns(self) -> int:
        if self.name == CHECK:
            return self.busy_ns
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.t0 = time.perf_counter_ns()
        self.spans: list[Span] = []
        self.top = None
        self.request = "setup"
        self.gc_ns = 0
        self._gc_start = 0
        self._next_id = 0
        self.counts: Counter = Counter()
        self.stores: set = set()
        self._saved: list = []
        self._request_span = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, stats in WRAPPED:
            module = getattr(self.lib, module_name)
            self._replace(module, attr, self._wrap(getattr(module, attr), name, stats))
        for module_name in CHECK_CALLERS:
            module = getattr(self.lib, module_name)
            self._replace(module, "check_constraints", self._wrap_check(module.check_constraints))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        s = Span()
        s.id = self._next_id
        self._next_id += 1
        s.name = name
        s.up = self.top
        s.parent = None if self.top is None else self.top.id
        s.request = self.request
        s.child_ns = s.calls = s.busy_ns = 0
        s.start = time.perf_counter_ns()
        self.top = s
        return s

    def close(self, s: Span) -> None:
        self.top = s.up
        s.end = time.perf_counter_ns()
        if s.calls:
            agg = Span()
            agg.id = self._next_id
            self._next_id += 1
            agg.name = CHECK
            agg.parent = s.id
            agg.request = s.request
            agg.start, agg.end = s.first, s.last
            agg.calls, agg.busy_ns, agg.child_ns = s.calls, s.busy_ns, 0
            self.spans.append(agg)
            s.child_ns += s.busy_ns
            self.counts["constraints.check_calls"] += s.calls
        if s.up is not None:
            s.up.child_ns += s.end - s.start
        self.spans.append(s)

    def begin_request(self, request) -> None:
        self.request = request
        self.stores = set()
        self._request_span = self.open("bench.request")

    def end_request(self) -> None:
        self.close(self._request_span)
        self.counts["constraints.distinct_stores"] += len(self.stores)
        self.stores = set()

    def take_counts(self) -> dict:
        out = {name: self.counts[name] for name in EXACT}
        self.counts.clear()
        return out

    def _wrap(self, fn, name, inject_stats):
        tracer = self
        stats_type = self.lib.decoder.DecodeStats
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            stats = None
            if inject_stats and kwargs.get("stats") is None:
                stats = kwargs["stats"] = stats_type()
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if stats is not None:
                    counts = tracer.counts
                    counts[layer + ".peak_entries"] += stats.peak_entries
                    counts[layer + ".expansions"] += stats.expansions
                    counts[layer + ".prunes"] += stats.prunes

        traced.__wrapped__ = fn
        return traced

    def _wrap_check(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        def check_constraints(specs, update, store):
            gc_before = tracer.gc_ns
            t0 = clock()
            out = fn(specs, update, store)
            t1 = clock()
            span = tracer.top
            if not span.calls:
                span.first = t0
            span.calls += 1
            span.busy_ns += t1 - t0 - (tracer.gc_ns - gc_before)
            span.last = t1
            if out is not None:
                tracer.stores.add(out)
            return out

        check_constraints.__wrapped__ = fn
        return check_constraints

    def _on_gc(self, phase, info) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_start = now
            return
        s = Span()
        s.id = self._next_id
        self._next_id += 1
        s.name = "gc.collect"
        s.parent = None if self.top is None else self.top.id
        s.request = self.request
        s.start, s.end = self._gc_start, now
        s.child_ns = s.calls = s.busy_ns = 0
        self.gc_ns += now - self._gc_start
        if self.top is not None:
            self.top.child_ns += now - self._gc_start
        self.spans.append(s)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s.record(self.t0)) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer times: set-up (request "setup") plus the mean of one
        traced pass, in ms; the check cost per call; collector figures."""
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        count: Counter = Counter()
        calls = busy = 0
        for s in self.spans:
            weight = 1.0 if s.request == "setup" else 1.0 / passes
            incl[s.name] += (s.end - s.start) * weight
            self_ns[s.name] += s.self_ns * weight
            count[s.name] += weight
            if s.name == CHECK:
                calls += s.calls
                busy += s.busy_ns

        def ms(counter, *names):
            return sum(counter[n] for n in names) / 1e6

        return {
            "modelio.parse_ms": ms(
                incl, "modelio.parse_model", "modelio.parse_constraints", "modelio.read_fasta"
            ),
            "cli.self_ms": ms(self_ns, "cli.main"),
            "hmm.validate_ms": ms(incl, "hmm.validate_model"),
            "hmm.score_ms": ms(incl, "hmm.run_log_probability"),
            "decoder.validate_ms": ms(incl, "decoder.validate_chmm"),
            "decoder.self_ms": ms(self_ns, "decoder.constrained_viterbi"),
            "pairhmm.build_ms": ms(incl, "pairhmm.build_pair_chmm"),
            "pairhmm.self_ms": ms(self_ns, "pairhmm.align"),
            "constraints.self_ms": ms(self_ns, CHECK),
            "constraints.ns_per_check": busy / calls if calls else 0.0,
            "gc.pause_ms": ms(incl, "gc.collect"),
            "gc.collections": count["gc.collect"],
        }
