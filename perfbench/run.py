"""chmm benchmark: closed-loop workloads over align, constrained_viterbi and
the CLI, with an optional traced run for per-layer numbers.

One workload; the last stdout line is the result as JSON:

    python3 perfbench/run.py --workload align-budget --seed 1 --seconds 25 --trace 0

Every workload, each in a fresh interpreter, untraced then traced, printed
as tables (and saved with --out):

    python3 perfbench/run.py --all --seed 1 --seconds 25 --out result.json

A run is one caller in a closed loop: the next request is sent only after
the previous one returns, single-threaded, with the collector left in its
default state because users pay for it. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracer import EXACT, Tracer  # noqa: E402

SETUP_REPEATS = 7
TAIL_SAMPLES = 10

END_TO_END = {
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "modelio.parse_ms": "ms",
    "cli.self_ms": "ms",
    "hmm.validate_ms": "ms",
    "hmm.score_ms": "ms",
    "decoder.validate_ms": "ms",
    "decoder.self_ms": "ms",
    "decoder.peak_entries": "count",
    "decoder.expansions": "count",
    "decoder.prunes": "count",
    "decoder.merge_ratio": "ratio",
    "pairhmm.build_ms": "ms",
    "pairhmm.self_ms": "ms",
    "pairhmm.overhead_vs_plain": "ratio",
    "pairhmm.peak_entries": "count",
    "pairhmm.expansions": "count",
    "pairhmm.prunes": "count",
    "pairhmm.merge_ratio": "ratio",
    "constraints.check_calls": "count",
    "constraints.accepted": "count",
    "constraints.accept_ratio": "ratio",
    "constraints.self_ms": "ms",
    "constraints.ns_per_check": "ns",
    "constraints.distinct_stores": "count",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "trace.overhead": "ratio",
    "trace.solves_per_s": "1/s",
    "trace.base_solves_per_s": "1/s",
    "trace.pass_requests": "count",
}


class SetupError(Exception):
    pass


def import_chmm():
    """Import ``chmm`` from this checkout's ``src``, dropping any copy
    already imported so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "chmm" or n.startswith("chmm.")]:
        del sys.modules[name]
    lib = importlib.import_module("chmm")
    importlib.import_module("chmm.cli")
    if SRC.resolve() not in Path(lib.__file__).resolve().parents:
        raise SetupError(f"imported chmm from {lib.__file__}, not from {SRC}")
    return lib


def set_up(name, inputs, workdir, traced=False):
    """Import, write and parse the inputs, build the models and make one
    untimed warm-up request. Returns (lib, workload, tracer, seconds)."""
    t0 = time.perf_counter()
    lib = import_chmm()
    wl = W.WORKLOADS[name][1](inputs, workdir)
    W.write_files(inputs, workdir)
    tracer = None
    if traced:
        tracer = Tracer(lib)
        tracer.install()
        span = tracer.open("bench.setup")
    try:
        wl.setup(lib)
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    wl.call(lib, 0)
    return lib, wl, tracer, time.perf_counter() - t0


def closed_loop(lib, wl, seconds, tracer=None, counts=None, between=None):
    """Send requests from the menu, cycling, one at a time, for about
    ``seconds``. The loop stops only at the end of a pass, at the pass
    boundary nearest the deadline (at least one pass), so every run measures
    the same mix of requests. With a tracer, each pass's exact counters are
    appended to ``counts``. ``between(fraction_done)`` runs at the other pass
    boundaries with the clock paused."""
    menu_len = len(wl.inputs.menu)
    results, latencies = [], []
    clock = time.perf_counter
    start = pass_start = clock()
    deadline = start + seconds
    paused = 0.0
    i = 0
    while True:
        index = i % menu_len
        if tracer is not None:
            tracer.begin_request(i)
        t0 = clock()
        try:
            result = wl.call(lib, index)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        t1 = clock()
        if tracer is not None:
            tracer.end_request()
        results.append((index, result))
        latencies.append(t1 - t0)
        i += 1
        if i % menu_len == 0:
            if tracer is not None:
                counts.append(tracer.take_counts())
            if t1 + (t1 - pass_start) / 2 >= deadline:
                break
            if between is not None:
                between((t1 - start - paused) / seconds)
                t2 = clock()
                paused += t2 - t1
                deadline += t2 - t1
                t1 = t2
            pass_start = t1
    return results, latencies, clock() - start - paused


def check_results(lib, wl, results, seed, sabotage):
    table = None
    if seed == W.DEFAULT_SEED:
        table = json.loads((HERE / "expected.json").read_text())[wl.name]
    failures = []
    for index, result in results:
        label = wl.inputs.menu[index].label
        if isinstance(result, Exception):
            failures.append(f"request {index} ({label}) raised {result!r}")
            continue
        expected = W.NO_TABLE if table is None else table[index]
        try:
            err = wl.check(lib, index, result, expected, sabotage)
        except Exception as exc:  # malformed output is a failed request
            err = f"check raised {exc!r}"
        if err:
            failures.append(f"request {index} ({label}): {err}")
    extra = wl.extra_checks(lib, sabotage)
    failures += [err for err in extra if err]
    return len(results) + len(extra), failures


def tail(latencies):
    """Highest percentile with at least TAIL_SAMPLES samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, TAIL_SAMPLES


def overhead_vs_plain(lib, wl):
    """Median align() time over median align_plain() time on the workload's
    alignment pairs, untraced, alternating the two on each pair."""
    pairs = wl.plain_pairs(lib)
    if not pairs:
        return 0.0
    full, plain = [], []
    clock = time.perf_counter
    for model, params, x, y in pairs:
        t0 = clock()
        lib.pairhmm.align(model, x, y)
        t1 = clock()
        lib.pairhmm.align_plain(params, x, y)
        t2 = clock()
        full.append(t1 - t0)
        plain.append(t2 - t1)
    return statistics.median(full) / statistics.median(plain)


def _ratio(num, den):
    return num / den if den else 0.0


def emit(lines, report, correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        note = report.get(name, "")
        lines.append(f"{name:30s} {value:14.6g} {units[name]:6s} {note}".rstrip())
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def run_workload(args) -> int:
    name = args.workload
    inputs = W.WORKLOADS[name][0](args.seed)
    if args.requests:
        inputs.menu = inputs.menu[: args.requests]
        inputs.short = inputs.short[: args.requests]
    workdir = HERE / "out" / f"work-{os.getpid()}"
    try:
        if args.trace:
            return _run_traced(args, name, inputs, workdir)
        return _run_untraced(args, name, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _header(args, name, inputs):
    return [
        f"workload {name}  seed {args.seed}  closed loop, 1 caller, single thread",
        f"inputs sha256 {inputs.digest()}  menu {len(inputs.menu)} requests",
    ]


def _finish(lines, failures, attempted):
    for msg in failures[:20]:
        lines.append("FAILED " + msg)
    lines.append(
        f"error_rate {_ratio(len(failures), attempted):.6g} "
        f"({len(failures)} failed / {attempted} attempted)"
    )
    return not failures


def _run_untraced(args, name, inputs, workdir) -> int:
    # The machine's speed drifts over seconds, so the set-ups are spread
    # over the run: one before the loop (its models serve the loop), more at
    # pass boundaries with the loop's clock paused, the rest after the loop.
    # Each later set-up imports chmm afresh; the loop keeps the first one.
    lib, wl, _tracer, seconds = set_up(name, inputs, workdir)
    setups = [seconds]

    def more_setups(fraction):
        while len(setups) < 1 + round((SETUP_REPEATS - 2) * min(fraction, 1.0)):
            setups.append(set_up(name, inputs, workdir)[3])
        gc.collect()  # so set-up garbage is not charged to the next requests

    gc.collect()  # start timing from a clean heap; the collector stays on
    results, latencies, elapsed = closed_loop(lib, wl, args.seconds, between=more_setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = check_results(lib, wl, results, args.seed, args.sabotage)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(name, inputs, workdir)[3])
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "solves_per_s": len(results) / elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail_value * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    report = {
        "solves_per_s": f"{len(results)} requests in {elapsed:.3f} s",
        "latency_p50_ms": f"{len(latencies)} samples",
        "latency_tail_ms": f"p{tail_pct:.2f}, {beyond} of {len(latencies)} samples beyond",
        "setup_s": f"median of {len(setups)} set-ups: "
        + " ".join(f"{t:.4f}" for t in setups),
        "peak_rss_mb": "ru_maxrss after the timed loop",
    }
    lines = _header(args, name, inputs)
    correct = _finish(lines, failures, attempted)
    emit(lines, report, correct, attempted, len(failures), metrics, END_TO_END)
    return 0 if correct else 1


def _run_traced(args, name, inputs, workdir) -> int:
    lib, wl, tracer, _seconds = set_up(name, inputs, workdir, traced=True)
    half = args.seconds / 2.0
    gc.collect()
    base_results, _lat, base_elapsed = closed_loop(lib, wl, half)
    counts: list[dict] = []
    tracer.install()
    try:
        results, _lat, elapsed = closed_loop(lib, wl, half, tracer=tracer, counts=counts)
    finally:
        tracer.uninstall()
    overhead = overhead_vs_plain(lib, wl)
    attempted, failures = check_results(
        lib, wl, base_results + results, args.seed, args.sabotage
    )
    if any(c != counts[0] for c in counts):
        failures.append("exact counters differ between passes over the same menu")

    exact = counts[0]
    base_sps = len(base_results) / base_elapsed
    traced_sps = len(results) / elapsed
    accepted = exact["pairhmm.expansions"] + exact["decoder.expansions"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracer.layer_metrics(len(counts)))
    metrics.update(exact)
    metrics.update({
        "decoder.merge_ratio": _ratio(exact["decoder.prunes"], exact["decoder.expansions"]),
        "pairhmm.merge_ratio": _ratio(exact["pairhmm.prunes"], exact["pairhmm.expansions"]),
        "pairhmm.overhead_vs_plain": overhead,
        "constraints.accepted": accepted,
        "constraints.accept_ratio": _ratio(accepted, exact["constraints.check_calls"]),
        "trace.overhead": (base_sps - traced_sps) / base_sps,
        "trace.solves_per_s": traced_sps,
        "trace.base_solves_per_s": base_sps,
        "trace.pass_requests": len(inputs.menu),
    })
    spans_path = HERE / "out" / f"spans-{name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    timing = "ms in the traced set-up plus one pass"
    report = {n: timing for n, unit in PER_LAYER.items() if unit == "ms"}
    report.update({n: "exact, one pass" for n in EXACT})
    report.update({
        "constraints.accepted": "exact, one pass; = pairhmm.expansions + decoder.expansions",
        "constraints.accept_ratio": f"{accepted} accepted / {exact['constraints.check_calls']} checks",
        "decoder.merge_ratio": f"{exact['decoder.prunes']} prunes / {exact['decoder.expansions']} expansions",
        "pairhmm.merge_ratio": f"{exact['pairhmm.prunes']} prunes / {exact['pairhmm.expansions']} expansions",
        "pairhmm.overhead_vs_plain": "median align / median align_plain, untraced"
        if overhead else "n/a: no alignment requests",
        "gc.collections": "per set-up plus one pass",
        "trace.overhead": "(untraced - traced) / untraced solves_per_s",
        "trace.solves_per_s": f"{len(results)} requests in {elapsed:.3f} s, {len(counts)} passes",
        "trace.base_solves_per_s": f"{len(base_results)} requests in {base_elapsed:.3f} s",
    })
    lines = _header(args, name, inputs)
    lines.append(f"spans {spans_path.relative_to(ROOT)}  ({len(tracer.spans)} spans)")
    correct = _finish(lines, failures, attempted)
    emit(lines, report, correct, attempted, len(failures), metrics, PER_LAYER)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, untraced then traced."""
    summary = {"seed": args.seed, "seconds": args.seconds, "machine": machine()}
    status = 0
    for name in W.WORKLOADS:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.sabotage:
                cmd.append("--sabotage")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(proc.stdout, end="")
            sys.stdout.flush()
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
                print(proc.stderr, end="", file=sys.stderr)
            if not lines or not lines[-1].startswith("{"):
                summary[name]["trace" if trace else "end_to_end"] = {"error": proc.stderr[-2000:]}
                continue
            result = json.loads(lines[-1])
            result["report"] = lines[:-1]
            summary[name]["trace" if trace else "end_to_end"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(W.WORKLOADS))
    what.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--requests", type=int, default=0,
                        help="use only the first N menu entries (smoke runs and tests)")
    parser.add_argument("--sabotage", action="store_true",
                        help="negative control: perturb every reported score by 1e-6")
    parser.add_argument("--out", help="with --all: write the results as JSON")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.requests < 0:
        parser.error("--seconds and --requests must not be negative")
    if not (SRC / "chmm" / "__init__.py").is_file():
        print(f"error: no chmm sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
