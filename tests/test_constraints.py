import sys
import threading

import pytest

from chmm import (
    AllDiff,
    Cardinality,
    ConstraintSyntaxError,
    ForRange,
    ForallSubseq,
    LockToSequence,
    LockToSet,
    StateSpecific,
    StateUpdate,
    UpdatePattern,
    as_pattern,
    check_constraints,
    check_sat,
    declarative_satisfies,
    format_constraint,
    init_aggregate,
    init_store,
    parse_constraint,
    validate_spec,
)
from chmm.constraints import MAX_NESTING_DEPTH

from conftest import upd


def feed(spec, updates, store=None):
    """Run updates through check_sat; returns the final store or None."""
    if store is None:
        store = init_store(spec)
    for u in updates:
        store = check_sat(spec, u, store)
        if store is None:
            return None
    return store


class TestPatterns:
    def test_bare_name_matches_state_with_any_emission(self):
        p = as_pattern("insert")
        assert p.matches(upd("insert", "a"))
        assert p.matches(upd("insert", "a", "b"))
        assert not p.matches(upd("delete", "a"))

    def test_wildcard_matches_everything(self):
        p = as_pattern("_")
        assert p.matches(upd("x", "a"))
        assert p.matches(upd("y"))

    def test_tuple_pins_the_emission(self):
        p = as_pattern(("match", "a", "b"))
        assert p.matches(upd("match", "a", "b"))
        assert not p.matches(upd("match", "b", "a"))
        assert not p.matches(upd("match"))

    def test_wildcard_state_with_fixed_emission(self):
        p = as_pattern(("_", "a"))
        assert p.matches(upd("insert", "a"))
        assert p.matches(upd("delete", "a"))
        assert not p.matches(upd("insert", "b"))

    def test_bad_pattern_values_rejected(self):
        with pytest.raises(ValueError):
            as_pattern(3)
        with pytest.raises(ValueError):
            as_pattern(("s", "_"))


class TestInitStore:
    def test_cardinality_counter_starts_at_zero(self):
        assert init_store(Cardinality(("insert",), 20)) == 0

    def test_alldiff_starts_with_empty_seen_set(self):
        assert init_store(AllDiff()) == 0

    def test_forall_subseq_starts_with_no_windows(self):
        assert init_store(ForallSubseq(5, AllDiff())) == ()

    def test_for_range_starts_at_position_one(self):
        assert init_store(ForRange(1, 3, AllDiff())) == (1, 0)

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError, match="negative"):
            init_store(Cardinality(("x",), -1))
        with pytest.raises(ValueError, match="for_range"):
            init_store(ForRange(3, 2, AllDiff()))
        with pytest.raises(ValueError, match="window"):
            init_store(ForallSubseq(0, AllDiff()))
        with pytest.raises(ValueError, match="window"):
            init_store(ForallSubseq(2.5, AllDiff()))
        with pytest.raises(ValueError, match="for_range"):
            init_store(ForRange(1.5, 3, AllDiff()))
        with pytest.raises(ValueError, match="window"):
            init_store(ForallSubseq(True, AllDiff()))


class TestCheckSat:
    def test_cardinality_rejects_when_counter_exceeds_bound(self):
        spec = Cardinality(("insert",), 1)
        store = init_store(spec)
        store = check_sat(spec, upd("insert", "a"), store)
        assert store == 1
        assert check_sat(spec, upd("insert", "a"), store) is None

    def test_cardinality_ignores_non_matching_updates(self):
        spec = Cardinality(("insert",), 0)
        store = init_store(spec)
        assert check_sat(spec, upd("match", "a"), store) == 0

    def test_cardinality_counts_an_update_once_despite_multiple_patterns(self):
        spec = Cardinality(("insert", ("insert", "a")), 1)
        store = check_sat(spec, upd("insert", "a"), init_store(spec))
        assert store == 1

    def test_alldiff_rejects_exact_repeat(self):
        spec = AllDiff()
        store = feed(spec, [upd("s1", "a"), upd("s2", "a")])
        assert store is not None
        assert check_sat(spec, upd("s1", "a"), store) is None

    def test_alldiff_distinguishes_emissions(self):
        spec = AllDiff()
        assert feed(spec, [upd("s1", "a"), upd("s1", "b")]) is not None

    def test_state_specific_projects_to_the_state(self):
        spec = StateSpecific(Cardinality(("delete",), 0))
        store = init_store(spec)
        assert check_sat(spec, upd("delete", "x"), store) is None
        assert check_sat(spec, upd("match", "x", "y"), store) == 0

    def test_lock_to_sequence_requires_the_next_element(self):
        spec = LockToSequence(("m", "i"))
        store = check_sat(spec, upd("m", "a"), init_store(spec))
        assert store is not None
        assert check_sat(spec, upd("d", "a"), store) is None

    def test_lock_to_sequence_rejects_beyond_the_end(self):
        spec = LockToSequence(("m",))
        store = check_sat(spec, upd("m", "a"), init_store(spec))
        assert check_sat(spec, upd("m", "a"), store) is None

    def test_lock_to_set_rejects_outside_members(self):
        spec = LockToSet(("match", "insert"))
        store = init_store(spec)
        assert check_sat(spec, upd("match", "a", "b"), store) == store
        assert check_sat(spec, upd("delete", "a"), store) is None

    def test_for_range_applies_child_only_inside_the_range(self):
        spec = ForRange(2, 3, LockToSet(("m",)))
        store = init_store(spec)
        store = check_sat(spec, upd("d", "a"), store)  # position 1: bypass
        assert store is not None
        store = check_sat(spec, upd("m", "a"), store)  # position 2: checked
        assert store is not None
        assert check_sat(spec, upd("d", "a"), store) is None  # position 3: checked

    def test_for_range_bypasses_after_the_range(self):
        spec = ForRange(1, 1, LockToSet(("m",)))
        store = check_sat(spec, upd("m", "a"), init_store(spec))
        assert check_sat(spec, upd("d", "a"), store) is not None

    def test_forall_subseq_rejects_a_violated_full_window(self):
        spec = ForallSubseq(2, AllDiff())
        assert feed(spec, [upd("u1", "a"), upd("u1", "a")]) is None
        assert feed(spec, [upd("u1", "a"), upd("u2", "a"), upd("u1", "a")]) is not None

    def test_forall_subseq_never_rejects_a_partial_window(self):
        # Two x's violate the child only inside a full window of three.
        spec = ForallSubseq(3, Cardinality(("x",), 1))
        assert feed(spec, [upd("x", "a"), upd("x", "a")]) is not None
        assert feed(spec, [upd("x", "a"), upd("x", "a"), upd("y", "a")]) is None

    def test_forall_subseq_keeps_at_most_window_minus_one_stores(self):
        spec = ForallSubseq(3, AllDiff())
        store = init_store(spec)
        for i in range(6):
            store = check_sat(spec, upd(f"u{i}", "a"), store)
            assert len(store) <= 2

    def test_forall_subseq_store_is_the_open_windows_child_stores(self):
        # After h updates the store holds min(h, window - 1) child stores,
        # oldest window first, and None for a violated window.
        spec = ForallSubseq(3, Cardinality(("x",), 1))
        stores = [init_store(spec)]
        for u in [upd("x", "a"), upd("y", "a"), upd("y", "a"), upd("x", "a")]:
            stores.append(check_sat(spec, u, stores[-1]))
        assert stores == [(), (1,), (1, 0), (0, 0), (1, 1)]
        violated = feed(spec, [upd("x", "a"), upd("x", "a")])
        assert violated == (None, 1)
        assert check_sat(spec, upd("y", "a"), violated) is None
        assert check_sat(ForallSubseq(1, AllDiff()), upd("x", "a"), ()) == ()


class TestAggregate:
    def test_empty_aggregate(self):
        assert init_aggregate([]) == ()

    def test_component_stores_in_declaration_order(self):
        store = init_aggregate([Cardinality(("i",), 2), AllDiff()])
        assert store == (0, 0)

    def test_nested_aggregate(self):
        store = init_aggregate([ForRange(1, 3, AllDiff())])
        assert store == ((1, 0),)

    def test_empty_conjunction_accepts_everything(self):
        store = init_aggregate([])
        assert check_constraints([], upd("x", "a"), store) == store

    def test_first_checker_rejection_wins(self):
        specs = [Cardinality(("insert",), 0), AllDiff()]
        store = init_aggregate(specs)
        assert check_constraints(specs, upd("insert", "a"), store) is None

    def test_rejection_by_earlier_checker_in_order(self):
        specs = [AllDiff(), Cardinality(("insert",), 5)]
        store = init_aggregate(specs)
        store = check_constraints(specs, upd("insert", "a"), store)
        assert store == (check_sat(AllDiff(), upd("insert", "a"), 0), 1)
        assert check_constraints(specs, upd("insert", "a"), store) is None

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="components"):
            check_constraints([AllDiff()], upd("x", "a"), (0, 1))


class TestDeclarative:
    def test_cardinality_over_budget_is_false(self):
        spec = Cardinality(("d",), 2)
        history = [upd("d", "a"), upd("d", "a"), upd("d", "b")]
        assert not declarative_satisfies(spec, history)
        assert declarative_satisfies(spec, history[:2])

    def test_forall_subseq_windows(self):
        spec = ForallSubseq(2, AllDiff())
        assert declarative_satisfies(spec, [upd("u1"), upd("u2"), upd("u1")])
        assert not declarative_satisfies(spec, [upd("u1"), upd("u1")])

    def test_lock_to_sequence_prefix_is_satisfying(self):
        spec = LockToSequence(("m", "i", "d"))
        assert declarative_satisfies(spec, [upd("m", "a")])
        assert declarative_satisfies(spec, [])
        assert not declarative_satisfies(spec, [upd("i", "a")])
        assert not declarative_satisfies(
            spec, [upd("m", "a"), upd("i", "a"), upd("d", "a"), upd("m", "a")]
        )

    def test_empty_history_satisfies_every_form(self):
        specs = [
            Cardinality(("x",), 0),
            AllDiff(),
            LockToSequence(("m",)),
            LockToSet(("m",)),
            ForRange(1, 2, AllDiff()),
            ForallSubseq(2, AllDiff()),
            StateSpecific(AllDiff()),
        ]
        for spec in specs:
            assert declarative_satisfies(spec, [])


class TestSignature:
    def test_identical_histories_serialize_identically(self):
        specs = [AllDiff(), ForallSubseq(2, Cardinality(("x",), 1))]
        updates = [upd("x", "a"), upd("y", "b")]
        first = init_aggregate(specs)
        second = init_aggregate(specs)
        for u in updates:
            first = check_constraints(specs, u, first)
            second = check_constraints(specs, u, second)
        assert first == second

    def test_alldiff_order_does_not_matter(self):
        spec = AllDiff()
        a = feed(spec, [upd("x", "a"), upd("y", "b")])
        b = feed(spec, [upd("y", "b"), upd("x", "a")])
        assert a == b

    def test_different_histories_with_different_behavior_differ(self):
        spec = Cardinality(("x",), 2)
        a = feed(spec, [upd("x", "a")])
        b = feed(spec, [upd("x", "a"), upd("x", "a")])
        assert a != b


# Updates no other test steps, so each spec numbers them here first.
SHARED_STREAM = [
    upd("sh1", "a"),
    upd("sh2", "a"),
    upd("sh3", "b"),
    upd("sh1", "b"),
    upd("sh4", "a"),
    upd("sh4", "a"),
]


class TestSharedNumbering:
    """Equal specs built apart agree on each other's stores, so an
    ``alldiff`` store means the same to every checker in the process."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AllDiff(),
            lambda: ForallSubseq(3, AllDiff()),
            lambda: StateSpecific(AllDiff()),
            lambda: parse_constraint("alldiff"),
            lambda: parse_constraint("forall_subseq(3,alldiff)"),
            lambda: parse_constraint("state_specific(alldiff)"),
        ],
        ids=["alldiff", "forall", "state", "parsed-alldiff", "parsed-forall", "parsed-state"],
    )
    def test_alternating_equal_objects_step_like_one(self, make):
        one, other = make(), make()
        assert one == other and one is not other
        alone = alternating = init_store(one)
        for i, u in enumerate(SHARED_STREAM):
            alone = check_sat(one, u, alone)
            alternating = check_sat((one, other)[i % 2], u, alternating)
            assert alternating == alone, (i, u)
            if alone is None:
                break
        assert alone is None

    def test_threads_numbering_new_updates_agree(self):
        # Four threads race to number the same 1,000 updates, which no other
        # test steps. Two bits for one update would give different stores.
        updates = [upd(f"thread{i}", "a") for i in range(1000)]
        finals = []

        def run():
            spec, store = AllDiff(), 0
            for u in updates:
                store = check_sat(spec, u, store)
            finals.append(store)

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(finals) == 4 and len(set(finals)) == 1
        assert bin(finals[0]).count("1") == len(updates)


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "cardinality([insert],20)",
            "state_specific(cardinality([insert,delete],4))",
            "for_range(1,50,lock_to_set([match]))",
            "forall_subseq(5,alldiff)",
            "lock_to_sequence([m,i,d])",
            "lock_to_set([(match,a,a),(_,b),_])",
            "alldiff",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_constraint(text)
        assert format_constraint(spec) == text
        assert parse_constraint(format_constraint(spec)) == spec

    def test_alldiff_parses_with_or_without_parentheses(self):
        assert parse_constraint("alldiff()") == parse_constraint("alldiff") == AllDiff()
        assert parse_constraint("forall_subseq(2,alldiff())") == ForallSubseq(2, AllDiff())
        with pytest.raises(ConstraintSyntaxError, match="expected '\\)', got 'x'"):
            parse_constraint("alldiff(x)")

    def test_whitespace_is_insignificant(self):
        spec = parse_constraint("for_range( 1 , 50 , lock_to_set( [ match ] ) )")
        assert spec == ForRange(1, 50, LockToSet(("match",)))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConstraintSyntaxError, match="unknown constraint name"):
            parse_constraint("cardinality_atmost([x],1)")

    def test_arity_errors_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint("cardinality([x])")
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint("for_range(1,alldiff)")

    @pytest.mark.parametrize(
        "text",
        ["cardinality([s1],\u0663)", "cardinality([s1],\u00b2)"],
        ids=["arabic-indic-three", "superscript-two"],
    )
    def test_non_ascii_digits_rejected(self, text):
        # Both are Unicode digits (str.isdigit() is true), not 0-9.
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint(text)

    def test_malformed_nesting_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint("state_specific(cardinality([x],1)")
        with pytest.raises(ConstraintSyntaxError, match="trailing"):
            parse_constraint("alldiff alldiff")

    def test_nesting_depth_is_bounded(self):
        def nested(depth):
            return "state_specific(" * depth + "alldiff" + ")" * depth

        assert parse_constraint(nested(MAX_NESTING_DEPTH)) is not None
        for depth in (MAX_NESTING_DEPTH + 1, 3000):
            with pytest.raises(ConstraintSyntaxError, match="nests deeper"):
                parse_constraint(nested(depth))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alldiff$", "unexpected character '$' in constraint"),
            ("cardinality([x],", "constraint text ended unexpectedly"),
            ("alldiff(x)", "expected ')', got 'x'"),
            ("alldiff alldiff", "trailing input from 'alldiff'"),
            ("cardinality([x],y)", "expected an integer, got 'y'"),
            (
                "state_specific(" * (MAX_NESTING_DEPTH + 1) + "alldiff" + ")" * (MAX_NESTING_DEPTH + 1),
                f"constraint nests deeper than {MAX_NESTING_DEPTH} levels",
            ),
            ("nope", "unknown constraint name 'nope'"),
            ("lock_to_set([a b])", "expected ',' or ']', got 'b'"),
            ("lock_to_set([(1,a)])", "bad state '1' in pattern"),
            ("lock_to_set([(a b)])", "expected ',' or ')', got 'b'"),
            ("lock_to_set([(a,_)])", "bad emission symbol '_' in pattern"),
            ("lock_to_set([1])", "bad pattern '1'"),
        ],
        ids=[
            "character",
            "ended",
            "expected-token",
            "trailing",
            "integer",
            "nesting",
            "name",
            "list-separator",
            "state",
            "tuple-separator",
            "emission",
            "pattern",
        ],
    )
    def test_syntax_error_message(self, text, message):
        with pytest.raises(ConstraintSyntaxError) as info:
            parse_constraint(text)
        assert str(info.value) == message

    def test_semantic_validation_applies_after_parse(self):
        with pytest.raises(ValueError, match="for_range"):
            parse_constraint("for_range(5,2,alldiff)")

    def test_validate_spec_reports_nested_problems(self):
        spec = StateSpecific(ForallSubseq(3, Cardinality(("x",), -2)))
        assert validate_spec(spec) != []

    def test_validate_spec_reports_the_first_fault(self):
        spec = ForRange(5, 2, ForallSubseq(0, AllDiff()))
        assert validate_spec(spec) == [
            "for_range requires 1 <= first <= last, got (5, 2)"
        ]
        assert validate_spec(ForRange(1, 2, AllDiff())) == []


class TestProjectionQuirks:
    def test_emission_pattern_never_matches_under_state_specific(self):
        spec = StateSpecific(LockToSet((("insert", "a"),)))
        store = init_store(spec)
        assert check_sat(spec, upd("insert", "a"), store) is None

    def test_nested_state_specific_is_idempotent(self):
        inner = StateSpecific(StateSpecific(AllDiff()))
        outer = StateSpecific(AllDiff())
        updates = [upd("a", "x"), upd("b", "y"), upd("a", "z")]
        assert feed(inner, updates) is None
        assert feed(outer, updates) is None

    def test_pattern_with_empty_emission_tuple(self):
        p = UpdatePattern("s", ())
        assert p.matches(upd("s"))
        assert not p.matches(upd("s", "a"))
