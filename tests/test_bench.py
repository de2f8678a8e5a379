import pytest

from chmm import bench
from chmm.bench import (
    BUDGETS,
    CSV_COLUMNS,
    ablation_model,
    run_experiment,
    stat_by_size,
    to_csv,
)
from chmm import validate_model


def strip_timing(csv_text: str) -> str:
    col = CSV_COLUMNS.index("wall_ms")
    lines = []
    for line in csv_text.splitlines():
        parts = line.split(",")
        del parts[col]
        lines.append(",".join(parts))
    return "\n".join(lines)


def test_ablation_model_is_well_formed():
    assert validate_model(ablation_model()) == []


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("nope")


def test_too_few_reps_rejected():
    with pytest.raises(ValueError, match="3 repetitions"):
        run_experiment("budget-scaling", reps=2)


def test_rows_have_reps_plus_median():
    rows = run_experiment("budget-scaling", reps=3, budgets=(4, 2), length=8)
    by_config = {}
    for r in rows:
        by_config.setdefault((r.variant, r.size), []).append(r.rep)
    for reps in by_config.values():
        assert reps == ["0", "1", "2", "median"]
    assert {r.size for r in rows} == {4, 2}


def test_counters_are_deterministic_across_reps():
    rows = run_experiment("budget-scaling", reps=3, budgets=(3,), length=8)
    expansions = {r.expansions for r in rows}
    peaks = {r.peak_table_entries for r in rows}
    assert len(expansions) == 1
    assert len(peaks) == 1


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("length-scaling", {"lengths": (4, 8)}),
        ("budget-scaling", {"budgets": (4, 2), "length": 8}),
        ("prune-ablation", {"lengths": (4, 6)}),
    ],
)
def test_csv_identical_across_runs_excluding_timing(name, sizes):
    first = to_csv(run_experiment(name, reps=3, **sizes))
    second = to_csv(run_experiment(name, reps=3, **sizes))
    assert strip_timing(first) == strip_timing(second)


def test_length_scaling_alternates_variants_rep_by_rep(monkeypatch):
    # Criterion 4 divides one variant's median by the other's, so a burst of
    # load must not land on the reps of one variant only.
    calls = []
    monkeypatch.setattr(bench, "align_plain", lambda *args, stats: calls.append("plain"))
    monkeypatch.setattr(bench, "align", lambda *args, stats: calls.append("constrained"))
    rows = run_experiment("length-scaling", reps=3, lengths=(4,))
    assert calls == ["plain", "constrained"] * 4  # one untimed warmup each
    assert [(r.variant, r.rep) for r in rows] == [
        (variant, rep)
        for variant in ("plain", "constrained-empty")
        for rep in ("0", "1", "2", "median")
    ]


def test_prune_ablation_alternates_variants_rep_by_rep(monkeypatch):
    # The pruned/unpruned ratio is the ablation's result, so both variants of
    # a length share each stretch of machine load, as in length-scaling.
    calls = []
    monkeypatch.setattr(
        bench,
        "constrained_viterbi",
        lambda chmm, obs, prune=True, stats=None: calls.append(
            "pruned" if prune else "unpruned"
        ),
    )
    reps = 3
    rows = run_experiment("prune-ablation", reps=reps, lengths=(4,))
    assert calls == ["pruned", "unpruned"] * (reps + 1)  # one untimed warmup each
    assert [(r.variant, r.rep) for r in rows] == [
        (variant, rep)
        for variant in ("pruned", "unpruned")
        for rep in ("0", "1", "2", "median")
    ]


def test_median_by_size_selects_median_rows():
    rows = run_experiment("budget-scaling", reps=3, budgets=(4, 2), length=8)
    medians = stat_by_size(rows, "indel-budget", "wall_ms")
    assert set(medians) == {4, 2}
    assert all(isinstance(v, float) for v in medians.values())


def test_budget_scaling_uses_all_default_budgets():
    assert BUDGETS == (32, 16, 8, 4, 2)
