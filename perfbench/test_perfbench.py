"""Tests of the benchmark itself: metric names, seeded inputs, exact counters,
span well-formedness, the negative control and the missing-source failure.

Each run goes through ``run.py`` in a fresh interpreter on a few menu
entries, exactly as the benchmark is run, so these stay fast.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracer import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, result


def traced(workload, requests, seed=W.DEFAULT_SEED):
    proc, lines, result = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", "1", "--requests", str(requests),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return lines, result


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_seed_determines_inputs(name):
    make = W.WORKLOADS[name][0]
    assert make(3).digest() == make(3).digest()
    assert make(3).digest() != make(4).digest()
    # Shapes do not depend on the seed, so runs stay comparable.
    assert [len(r.args) for r in make(3).menu] == [len(r.args) for r in make(4).menu]


@pytest.mark.parametrize("workload,requests", [
    ("align-budget", 2), ("decode-mixed", 4), ("cli-small", 8),
])
def test_exact_counters_repeat_byte_for_byte(workload, requests):
    _, first = traced(workload, requests)
    _, second = traced(workload, requests)
    assert first["correct"] and first["failed"] == 0
    names = [*EXACT, "constraints.accepted", "pairhmm.merge_ratio", "decoder.merge_ratio"]
    dump = [json.dumps({n: r["metrics"][n] for n in names}, sort_keys=True) for r in (first, second)]
    assert dump[0] == dump[1]
    assert first["metrics"]["constraints.check_calls"]["value"] > 0


def test_spans_are_well_formed_and_nested():
    lines, result = traced("cli-small", 6)
    spans_line = next(line for line in lines if line.startswith("spans "))
    path = ROOT / spans_line.split()[1]
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    names = {s["name"] for s in spans.values()}
    assert {"cli.main", "modelio.parse_model", "pairhmm.align", "decoder.constrained_viterbi",
            "constraints.check_constraints", "bench.request", "bench.setup"} <= names
    for s in spans.values():
        assert set(s) >= {"id", "name", "parent", "request", "start_ns", "end_ns"}
        assert s["start_ns"] <= s["end_ns"]
        if s["name"] == "constraints.check_constraints":
            assert s["calls"] >= 1 and 0 <= s["busy_ns"] <= s["end_ns"] - s["start_ns"]
        if s["parent"] is None:
            assert s["name"].startswith(("bench.", "gc."))
            continue
        parent = spans[s["parent"]]
        assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
        assert parent["request"] == s["request"]


@pytest.mark.parametrize("workload,requests", [("align-budget", 2), ("cli-small", 6)])
def test_negative_control_drives_error_rate_above_zero(workload, requests):
    proc, lines, result = bench(
        "--workload", workload, "--seed", "9", "--seconds", "0",
        "--requests", str(requests), "--sabotage",
    )
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert any(line.startswith("FAILED ") for line in lines)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _lines, result = bench("--workload", "cli-small", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
