"""Acceptance suite: every release criterion, one test each, at its stated
tolerance. Each test prints a single pass/fail line (run with ``-s`` to see
them as they happen).

Timing-based criteria use the benchmark harness at its default sizes and
repetitions; the counters they compare are deterministic, and the wall-clock
comparisons have wide margins (10x factors, 2x bands).
"""

import math
import random
import time

import pytest

from chmm import (
    Alignment,
    Chmm,
    align,
    alignment_log_probability,
    brute_force_align,
    build_pair_chmm,
    constrained_viterbi,
    ops_from_letters,
    uniform_pair_params,
    viterbi,
)
from chmm.bench import (
    indel_budget_constraint,
    run_experiment,
    stat_by_size,
)
from chmm.random_instances import (
    oracle_check,
    random_hmm,
    random_observation,
    random_pair_params,
)

LOG_TOL = 1e-9


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def length_rows():
    return run_experiment("length-scaling")


@pytest.fixture(scope="module")
def budget_rows():
    return run_experiment("budget-scaling")


@pytest.fixture(scope="module")
def ablation_rows():
    return run_experiment("prune-ablation")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    result = oracle_check(seed=90125, count=500)
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed < 60.0
    report(
        1,
        ok,
        f"decoder vs brute force: {result.passed}/{result.total} agree in {elapsed:.1f}s",
    )
    assert result.ok, result.failures[:1]
    assert elapsed < 60.0


def test_criterion_2_unconstrained_reduction():
    rng = random.Random(140633)
    mismatches = 0
    for _ in range(200):
        hmm = random_hmm(rng)
        obs = random_observation(rng, hmm, max_len=12)
        classical = viterbi(hmm, obs)
        constrained = constrained_viterbi(Chmm(hmm, ()), obs)
        if classical is None or constrained is None:
            if (classical is None) != (constrained is None):
                mismatches += 1
        elif classical[1] != constrained[1]:
            mismatches += 1
    ok = mismatches == 0
    report(2, ok, f"empty-constraint decode vs classical Viterbi: {mismatches}/200 mismatches")
    assert ok


def test_criterion_3_constraint_semantics_oracle():
    from chmm import check_sat, declarative_satisfies, init_store
    from chmm.random_instances import random_spec, random_update_sequence

    rng = random.Random(60902)
    states = ("m", "i", "d", "x")
    symbols = ("a", "b", "c")
    violations = 0
    for _ in range(1000):
        updates = random_update_sequence(rng, states, symbols, max_len=12)
        spec = random_spec(rng, states, symbols, len(updates))
        store = init_store(spec)
        accepted = True
        for u in updates:
            store = check_sat(spec, u, store)
            if store is None:
                accepted = False
                break
        if accepted != declarative_satisfies(spec, updates):
            violations += 1
    ok = violations == 0
    report(3, ok, f"incremental vs declarative: {violations}/1000 disagreements")
    assert ok


def test_criterion_4_constant_factor_overhead(length_rows):
    plain = stat_by_size(length_rows, "plain", "wall_ms")
    constrained = stat_by_size(length_rows, "constrained-empty", "wall_ms")
    lengths = sorted(plain)
    ratios = {n: constrained[n] / plain[n] for n in lengths}
    band = max(ratios.values()) / min(ratios.values())
    xs = [math.log(n) for n in lengths]
    ys = [math.log(constrained[n]) for n in lengths]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys)) / sum(
        (a - mean_x) ** 2 for a in xs
    )
    ok = band < 2.0 and slope <= 2.5
    detail = (
        "overhead ratios "
        + ", ".join(f"{n}:{ratios[n]:.2f}" for n in lengths)
        + f" (band {band:.2f}x), log-log slope {slope:.2f}"
    )
    report(4, ok, detail)
    assert band < 2.0, ratios
    assert slope <= 2.5, slope


def test_criterion_5_pruning_benefit(budget_rows):
    medians = stat_by_size(budget_rows, "indel-budget", "wall_ms")
    budgets = sorted(medians, reverse=True)  # 32 down to 2
    times = [medians[b] for b in budgets]
    inversions = [
        (budgets[i], budgets[i + 1])
        for i in range(len(times) - 1)
        if times[i + 1] > times[i]
    ]
    within_noise = all(
        medians[b2] <= 1.10 * medians[b1] for b1, b2 in inversions
    )
    ok = len(inversions) <= 1 and within_noise
    detail = "budget medians " + ", ".join(
        f"L={b}:{medians[b]:.1f}ms" for b in budgets
    ) + f"; inversions {inversions}"
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_store_keyed_pruning_vs_naive(ablation_rows):
    pruned_t = stat_by_size(ablation_rows, "pruned", "wall_ms")
    unpruned_t = stat_by_size(ablation_rows, "unpruned", "wall_ms")
    assert unpruned_t, "unpruned decoder completed no size within the cap"
    largest = max(unpruned_t)
    time_ratio = unpruned_t[largest] / pruned_t[largest]
    pruned_peak = stat_by_size(ablation_rows, "pruned", "peak_table_entries")[largest]
    unpruned_peak = stat_by_size(ablation_rows, "unpruned", "peak_table_entries")[largest]
    entry_ratio = unpruned_peak / pruned_peak
    ok = time_ratio >= 10.0 and entry_ratio >= 10.0
    report(
        6,
        ok,
        f"alldiff decoding at n={largest}: {time_ratio:.0f}x faster, "
        f"table {unpruned_peak} vs {pruned_peak} entries ({entry_ratio:.0f}x smaller)",
    )
    assert time_ratio >= 10.0
    assert entry_ratio >= 10.0


def test_criterion_7_pair_align_oracle():
    rng = random.Random(51015)
    budgets = [0, 1, 2, None]
    failures = 0
    checked = 0
    for i in range(200):
        params = random_pair_params(rng)
        budget = budgets[i % 4]
        constraints = () if budget is None else (indel_budget_constraint(budget),)
        model = build_pair_chmm(params, constraints)
        x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
        y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
        fast = align(model, x, y)
        slow = brute_force_align(model, x, y)
        checked += 1
        if (fast is None) != (slow is None):
            failures += 1
            continue
        if fast is None:
            continue
        if abs(fast.log_prob - slow.log_prob) > LOG_TOL:
            failures += 1
            continue
        matches = sum(1 for op in fast.ops if op[0] == "match")
        inserts = sum(1 for op in fast.ops if op[0] == "insert")
        deletes = sum(1 for op in fast.ops if op[0] == "delete")
        if matches + inserts != len(x) or matches + deletes != len(y):
            failures += 1
    ok = failures == 0 and checked >= 200
    report(7, ok, f"aligner vs brute force: {checked - failures}/{checked} agree")
    assert ok


def test_criterion_8_protein_fixture():
    x, y = "HGKKGAAQV", "KGPKKAQA"
    model = build_pair_chmm(uniform_pair_params(gap_open=0.2, gap_extend=0.2))
    example_ops = ops_from_letters("b i i i m m m d d m m m")
    example_lp = alignment_log_probability(model, x, y, Alignment(example_ops, 0.0))
    best = align(model, x, y)
    finite = example_lp > float("-inf")
    ok = finite and best is not None and best.log_prob >= example_lp
    report(
        8,
        ok,
        f"reference alignment scores {example_lp:.3f}, decoder finds {best.log_prob:.3f}",
    )
    assert finite
    assert best.log_prob >= example_lp
    # the reference operations consume both sequences exactly
    assert sum(1 for op in example_ops if op[0] != "delete") == len(x)
    assert sum(1 for op in example_ops if op[0] != "insert") == len(y)
