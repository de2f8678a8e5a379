import pytest

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


def test_csv_identical_across_runs_excluding_timing():
    first = to_csv(run_experiment("length-scaling", reps=3, lengths=(4, 8)))
    second = to_csv(run_experiment("length-scaling", reps=3, lengths=(4, 8)))
    assert strip_timing(first) == strip_timing(second)


def test_median_by_size_selects_median_rows():
    rows = run_experiment("budget-scaling", reps=3, budgets=(4, 2), length=8)
    medians = stat_by_size(rows, "indel-budget", "wall_ms")
    assert set(medians) == {4, 2}
    assert all(isinstance(v, float) for v in medians.values())


def test_budget_scaling_uses_all_default_budgets():
    assert BUDGETS == (32, 16, 8, 4, 2)
