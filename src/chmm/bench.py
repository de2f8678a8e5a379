"""Reproducible timing experiments.

Three built-in experiments:

* ``length-scaling``: plain pair-HMM alignment versus constraint-machinery
  alignment with zero declared constraints, over growing sequence lengths.
* ``budget-scaling``: alignment of fixed-length sequences under a shrinking
  indel budget ``state_specific(cardinality([insert,delete],L))``.
* ``prune-ablation``: alldiff-constrained decoding with and without
  (state, store)-group pruning.

Each experiment yields one ``(size, variants)`` pair per size, and
``run_experiment`` times them: every variant gets one untimed warmup run,
then the variants of a size alternate rep by rep. Every size runs every
variant; there is no time cap. Inputs are generated from a fixed seed, so
every column except wall time is byte-identical across runs.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, Iterator

from .constraints import AllDiff, Cardinality, StateSpecific, UpdatePattern
from .decoder import Chmm, DecodeStats, constrained_viterbi
from .hmm import Hmm
from .pairhmm import PairHmmParams, align, align_plain, build_pair_chmm

LENGTHS = (16, 32, 64, 128)
BUDGETS = (32, 16, 8, 4, 2)
BUDGET_LENGTH = 32
ABLATION_LENGTHS = (4, 6, 8, 10)
DEFAULT_SEED = 20100
DEFAULT_REPS = 7

_BENCH_ALPHABET = ("A", "C", "G", "T")

# One size of an experiment: variant name -> a run that fills in its stats.
Variants = dict[str, Callable[[DecodeStats], object]]


@dataclass
class BenchRow:
    experiment: str
    variant: str
    size: int
    rep: str
    wall_ms: float
    peak_table_entries: int
    expansions: int
    prunes: int

    def csv(self) -> str:
        return ",".join(
            f"{value:.3f}" if isinstance(value, float) else str(value)
            for value in astuple(self)
        )


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


def bench_pair_params() -> PairHmmParams:
    """Fixed benchmark parameters: matches three times as likely as
    mismatches, uniform gap emissions."""
    k = len(_BENCH_ALPHABET)
    weight = [[3.0 if i == j else 1.0 for j in range(k)] for i in range(k)]
    total = sum(sum(row) for row in weight)
    return PairHmmParams(
        alphabet=_BENCH_ALPHABET,
        gap_open=0.1,
        gap_extend=0.3,
        match_emission=tuple(tuple(w / total for w in row) for row in weight),
        gap_emission=tuple(1.0 / k for _ in range(k)),
    )


def _random_sequence(rng: random.Random, length: int) -> tuple[str, ...]:
    return tuple(rng.choice(_BENCH_ALPHABET) for _ in range(length))


def _timed(fn: Callable[[DecodeStats], object]) -> tuple[float, DecodeStats]:
    # Collector pauses would otherwise charge whatever garbage earlier runs
    # left behind to whichever measurement happens to trigger them.
    stats = DecodeStats()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn(stats)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()
    return elapsed_ms, stats


def _measure(experiment: str, size: int, reps: int, variants: Variants) -> list[BenchRow]:
    """Rows for ``reps`` timed runs of each variant plus a median row, grouped
    by variant. The runs alternate between the variants rep by rep, so a
    burst of load on the machine slows every variant of a size alike; the
    ratios between variants (acceptance criterion 4) depend on that."""
    for fn in variants.values():
        fn(DecodeStats())  # warmup, untimed
    runs: dict[str, list] = {variant: [] for variant in variants}
    for _rep in range(reps):
        for variant, fn in variants.items():
            runs[variant].append(_timed(fn))
    rows = []
    for variant, timed in runs.items():
        group = [
            BenchRow(
                experiment,
                variant,
                size,
                str(rep),
                elapsed_ms,
                stats.peak_entries,
                stats.expansions,
                stats.prunes,
            )
            for rep, (elapsed_ms, stats) in enumerate(timed)
        ]
        median = statistics.median(r.wall_ms for r in group)
        rows.extend(group)
        rows.append(replace(group[0], rep="median", wall_ms=median))
    return rows


def length_scaling(rng: random.Random, lengths=LENGTHS) -> Iterator[tuple[int, Variants]]:
    params = bench_pair_params()
    empty = build_pair_chmm(params, ())
    for length in lengths:
        x = _random_sequence(rng, length)
        y = _random_sequence(rng, length)
        yield length, {
            "plain": lambda st: align_plain(params, x, y, stats=st),
            "constrained-empty": lambda st: align(empty, x, y, stats=st),
        }


def indel_budget_constraint(budget: int) -> StateSpecific:
    return StateSpecific(
        Cardinality((UpdatePattern("insert", None), UpdatePattern("delete", None)), budget)
    )


def budget_scaling(
    rng: random.Random, budgets=BUDGETS, length: int = BUDGET_LENGTH
) -> Iterator[tuple[int, Variants]]:
    params = bench_pair_params()
    x = _random_sequence(rng, length)
    y = _random_sequence(rng, length)
    for budget in budgets:
        model = build_pair_chmm(params, (indel_budget_constraint(budget),))
        yield budget, {"indel-budget": lambda st: align(model, x, y, stats=st)}


def ablation_model() -> Hmm:
    """Five emitting states with uniform transitions over a two-symbol
    alphabet; alldiff over (state, symbol) updates then forces distinct
    states per symbol, which store-keyed pruning collapses to subsets while
    the unpruned search keeps every ordering."""
    m = 5
    states = ("s0",) + tuple(f"s{i}" for i in range(1, m + 1))
    row = tuple(1.0 / m for _ in range(m))
    return Hmm(
        states=states,
        alphabet=("a", "b"),
        transitions=tuple(row for _ in range(m + 1)),
        emissions=tuple((0.5, 0.5) for _ in range(m)),
    )


def prune_ablation(_rng: random.Random, lengths=ABLATION_LENGTHS) -> Iterator[tuple[int, Variants]]:
    # The observations alternate a and b; the inputs are fixed, so the
    # experiment draws nothing from the seeded generator.
    chmm = Chmm(ablation_model(), (AllDiff(),))
    for length in lengths:
        obs = tuple("ab"[i % 2] for i in range(length))
        yield length, {
            "pruned": lambda st: constrained_viterbi(chmm, obs, stats=st),
            "unpruned": lambda st: constrained_viterbi(chmm, obs, prune=False, stats=st),
        }


EXPERIMENTS = {
    "length-scaling": length_scaling,
    "budget-scaling": budget_scaling,
    "prune-ablation": prune_ablation,
}


def run_experiment(name: str, seed: int = DEFAULT_SEED, reps: int = DEFAULT_REPS, **kw) -> list[BenchRow]:
    """Time every size of one experiment; ``kw`` overrides its sizes."""
    if reps < 3:
        raise ValueError("benchmarks need at least 3 repetitions")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r} (choose from {', '.join(EXPERIMENTS)})")
    rows: list[BenchRow] = []
    for size, variants in EXPERIMENTS[name](random.Random(seed), **kw):
        rows.extend(_measure(name, size, reps, variants))
    return rows


def to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([",".join(CSV_COLUMNS)] + [r.csv() for r in rows]) + "\n"


def stat_by_size(rows: list[BenchRow], variant: str, column: str) -> dict[int, float]:
    """One column of the median rows per size for one variant: ``wall_ms``
    for the median wall time, or a deterministic counter."""
    return {
        r.size: getattr(r, column)
        for r in rows
        if r.variant == variant and r.rep == "median"
    }
