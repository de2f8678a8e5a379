"""Property tests tying the incremental checkers to the declarative
semantics: full-sequence agreement, canonical stores, and identical behavior
of equal stores on any shared suffix."""

import random
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from chmm import (
    LockToSet,
    StateSpecific,
    StateUpdate,
    check_sat,
    declarative_satisfies,
    init_store,
)
from chmm.random_instances import random_spec, random_update_sequence

STATES = ("m", "i", "d")
SYMBOLS = ("a", "b")


def _canon(value) -> str:
    # Canonical text of a store component; the tests below use it to check
    # that equal stores serialize identically and that no store holds an
    # update (its strings raise here).
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, int) and not isinstance(value, bool):
        return repr(value)
    raise TypeError(f"non-canonical store component: {value!r}")


def incremental_accepts(spec, updates) -> bool:
    store = init_store(spec)
    for u in updates:
        store = check_sat(spec, u, store)
        if store is None:
            return False
    return True


def test_incremental_agrees_with_declarative_on_complete_sequences():
    rng = random.Random(2024)
    for _ in range(400):
        updates = random_update_sequence(rng, STATES, SYMBOLS, max_len=12)
        spec = random_spec(rng, STATES, SYMBOLS, len(updates))
        assert incremental_accepts(spec, updates) == declarative_satisfies(
            spec, updates
        ), (spec, updates)


def test_rejection_is_permanent():
    # Once a prefix is rejected, no completion may satisfy the constraint;
    # spot-check by extending rejected prefixes in every single-update way.
    rng = random.Random(77)
    checked = 0
    while checked < 120:
        updates = random_update_sequence(rng, STATES, SYMBOLS, max_len=8)
        spec = random_spec(rng, STATES, SYMBOLS, len(updates))
        store = init_store(spec)
        for i, u in enumerate(updates):
            store = check_sat(spec, u, store)
            if store is None:
                prefix = updates[: i + 1]
                for s in STATES:
                    for e in SYMBOLS:
                        extended = prefix + [StateUpdate(s, (e,))]
                        assert not declarative_satisfies(spec, extended)
                assert not declarative_satisfies(spec, prefix)
                checked += 1
                break


def test_store_builds_are_deterministic():
    rng = random.Random(5)
    for _ in range(150):
        updates = random_update_sequence(rng, STATES, SYMBOLS, max_len=10)
        spec = random_spec(rng, STATES, SYMBOLS, len(updates))
        first = init_store(spec)
        second = init_store(spec)
        for u in updates:
            first = check_sat(spec, u, first)
            second = check_sat(spec, u, second)
            assert (first is None) == (second is None)
            if first is None:
                break
            assert _canon(first) == _canon(second)
            assert first == second


def test_equal_stores_trace_identically_on_shared_suffixes():
    rng = random.Random(31)
    for _ in range(60):
        spec = random_spec(rng, STATES, SYMBOLS, n=6)
        buckets = defaultdict(list)
        for _ in range(30):
            updates = random_update_sequence(rng, STATES, SYMBOLS, max_len=6)
            store = init_store(spec)
            ok = True
            for u in updates:
                store = check_sat(spec, u, store)
                if store is None:
                    ok = False
                    break
            if ok:
                buckets[_canon(store)].append((store, updates))
        for group in buckets.values():
            if len(group) < 2:
                continue
            (store_a, hist_a), (store_b, hist_b) = group[0], group[1]
            suffix = random_update_sequence(rng, STATES, SYMBOLS, max_len=8)
            trace_a, trace_b = [], []
            sa, sb = store_a, store_b
            for u in suffix:
                if sa is not None:
                    sa = check_sat(spec, u, sa)
                if sb is not None:
                    sb = check_sat(spec, u, sb)
                trace_a.append(None if sa is None else _canon(sa))
                trace_b.append(None if sb is None else _canon(sb))
            assert trace_a == trace_b, (spec, hist_a, hist_b, suffix)


def test_state_specific_lock_to_set_filters_on_state_only():
    rng = random.Random(13)
    allowed = ("m", "d")
    spec = StateSpecific(LockToSet(allowed))
    store = init_store(spec)
    for _ in range(200):
        u = StateUpdate(rng.choice(STATES), (rng.choice(SYMBOLS),))
        result = check_sat(spec, u, store)
        assert (result is not None) == (u.state in allowed)


updates_strategy = st.lists(
    st.builds(
        StateUpdate,
        st.sampled_from(STATES),
        st.tuples(st.sampled_from(SYMBOLS)),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(updates=updates_strategy, bound=st.integers(min_value=0, max_value=4))
def test_cardinality_counts_exactly(updates, bound):
    from chmm import Cardinality

    spec = Cardinality(("m",), bound)
    hits = sum(1 for u in updates if u.state == "m")
    assert incremental_accepts(spec, updates) == (hits <= bound)


@settings(max_examples=200, deadline=None)
@given(updates=updates_strategy, window=st.integers(min_value=1, max_value=4))
def test_forall_subseq_checks_exactly_the_full_windows(updates, window):
    from chmm import AllDiff, ForallSubseq

    spec = ForallSubseq(window, AllDiff())
    expected = all(
        len(set(updates[i : i + window])) == window
        for i in range(len(updates) - window + 1)
    )
    assert incremental_accepts(spec, updates) == expected


@settings(max_examples=200, deadline=None)
@given(updates=updates_strategy, first=st.integers(1, 8), span=st.integers(0, 8))
def test_for_range_slices_the_history(updates, first, span):
    from chmm import AllDiff, ForRange

    spec = ForRange(first, first + span, AllDiff())
    window = updates[first - 1 : first + span]
    expected = len(set(window)) == len(window)
    assert incremental_accepts(spec, updates) == expected


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    emit_arity=st.sampled_from((1, 2)),
)
def test_formatting_then_parsing_gives_the_same_spec(seed, n, emit_arity):
    from chmm import format_constraint, parse_constraint

    spec = random_spec(random.Random(seed), STATES, SYMBOLS, n, emit_arity=emit_arity)
    assert parse_constraint(format_constraint(spec)) == spec


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_specs=st.integers(1, 2),
    emit_arity=st.sampled_from((1, 2)),
)
def test_no_satisfying_extension_exceeds_the_reported_limit(seed, n_specs, emit_arity):
    # For a history h and extensions e: when every spec accepts h + e
    # declaratively, e enters each limited state set at most room times,
    # room being what store_limit reports for the store h leaves.
    from chmm.constraints import store_limit

    rng = random.Random(seed)

    def updates(max_len):
        drawn = random_update_sequence(rng, STATES, SYMBOLS, max_len=max_len)
        extra = [(rng.choice(SYMBOLS),) if emit_arity == 2 else () for _ in drawn]
        return [StateUpdate(u.state, u.emitted + more) for u, more in zip(drawn, extra)]

    specs = [random_spec(rng, STATES, SYMBOLS, 8, emit_arity=emit_arity) for _ in range(n_specs)]
    history = updates(6)
    for _ in range(20):
        extension = updates(8)
        if not all(declarative_satisfies(s, history + extension) for s in specs):
            continue
        for spec in specs:
            store = init_store(spec)
            for u in history:
                store = check_sat(spec, u, store)
            limit = store_limit(spec, store)
            if limit is not None:
                states, room = limit
                entering = sum(1 for u in extension if states is None or u.state in states)
                assert entering <= room, (spec, history, extension)
