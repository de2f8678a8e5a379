import itertools
import math
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmm import (
    AllDiff,
    Cardinality,
    Chmm,
    DecodeStats,
    ForallSubseq,
    Hmm,
    LockToSet,
    Run,
    StateSpecific,
    StateUpdate,
    align,
    brute_force_constrained,
    build_pair_chmm,
    check_constraints,
    constrained_viterbi,
    declarative_satisfies,
    init_aggregate,
    parse_constraint,
    run_log_probability,
    uniform_pair_params,
    viterbi,
)
from chmm import decoder
from chmm.bench import indel_budget_constraint
from chmm.decoder import _StoreAutomaton
from chmm.random_instances import (
    oracle_check,
    random_chmm_instance,
    random_constraint_set,
    random_hmm,
    random_observation,
    random_spec,
    random_update_sequence,
)

from conftest import HMM_A


def uniform_hmm(rng):
    """Every factor equal, so every path ties exactly; emitting states are
    named out of index order, so index order is not name order."""
    m = rng.randint(2, 4)
    k = rng.randint(1, 2)
    names = tuple(rng.sample(["z", "b", "q", "a", "m"], m))
    return Hmm(
        ("start",) + names,
        tuple("xy"[:k]),
        tuple(tuple(1.0 / m for _ in range(m)) for _ in range(m + 1)),
        tuple(tuple(1.0 / k for _ in range(k)) for _ in range(m)),
    )


class TestInitTuples:
    """The paper's start: one tuple for the initial state with fresh stores."""

    def test_single_initial_tuple(self):
        stats = DecodeStats()
        assert constrained_viterbi(Chmm(HMM_A, ()), [], stats=stats) == (("s0",), 0.0)
        assert (stats.peak_entries, stats.expansions) == (1, 0)

    def test_initial_store_reflects_constraints(self):
        chmm = Chmm(HMM_A, (StateSpecific(Cardinality(("s2",), 1)),))
        assert init_aggregate(chmm.constraints) == (0,)
        # The unconstrained optimum is s0 s2 s2; a count starting at 0 admits one s2.
        assert viterbi(HMM_A, ["b", "b"])[0] == ("s0", "s2", "s2")
        path, _ = constrained_viterbi(chmm, ["b", "b"])
        assert path == ("s0", "s1", "s2")
        assert path == brute_force_constrained(chmm, ["b", "b"])[0]

    def test_invalid_model_raises(self):
        bad = Hmm(("s0", "s1"), ("a",), ((0.5,), (1.0,)), ((1.0,),))
        with pytest.raises(ValueError, match="invalid model"):
            constrained_viterbi(Chmm(bad, ()), [])

    def test_malformed_constraint_raises(self):
        with pytest.raises(ValueError, match="constraint 0"):
            constrained_viterbi(Chmm(HMM_A, (Cardinality(("x",), -1),)), [])

    def test_invalid_model_raises_when_built(self):
        bad = Hmm(("s0", "s1"), ("a",), ((0.5,), (1.0,)), ((1.0,),))
        with pytest.raises(ValueError, match="invalid model"):
            Chmm(bad, ())
        with pytest.raises(ValueError, match="invalid model: constraint 0"):
            Chmm(HMM_A, (ForallSubseq(2.5, AllDiff()),))


class TestExpandStep:
    """The paper's expansion step: successors along positive edges whose
    update every checker accepts."""

    def test_expands_to_both_states(self):
        stats = DecodeStats()
        path, lp = constrained_viterbi(Chmm(HMM_A, ()), ["a"], prune=False, stats=stats)
        assert (stats.expansions, stats.peak_entries) == (2, 3)
        assert path == ("s0", "s1")
        assert lp == pytest.approx(math.log(0.54), abs=1e-9)
        no_s1 = Chmm(HMM_A, (StateSpecific(Cardinality(("s1",), 0)),))
        path, lp = constrained_viterbi(no_s1, ["a"])
        assert path == ("s0", "s2")
        assert lp == pytest.approx(math.log(0.08), abs=1e-9)

    def test_constraint_rejected_branch_dropped(self):
        chmm = Chmm(HMM_A, (StateSpecific(Cardinality(("s2",), 0)),))
        stats = DecodeStats()
        assert constrained_viterbi(chmm, ["a"], stats=stats)[0] == ("s0", "s1")
        assert stats.expansions == 1

    def test_empty_input_gives_empty_output(self):
        # Once a level is empty, nothing later is expanded.
        chmm = Chmm(
            HMM_A,
            (
                StateSpecific(Cardinality(("s1",), 0)),
                StateSpecific(Cardinality(("s2",), 0)),
            ),
        )
        for prune in (True, False):
            stats = DecodeStats()
            assert constrained_viterbi(chmm, ["a", "b", "a"], prune=prune, stats=stats) is None
            assert (stats.expansions, stats.peak_entries) == (0, 1)

    def test_zero_probability_edges_dropped(self):
        model = Hmm(
            states=("s0", "s1", "s2"),
            alphabet=("a", "b"),
            transitions=((1.0, 0.0), (0.7, 0.3), (0.4, 0.6)),
            emissions=((0.9, 0.1), (1.0, 0.0)),
        )
        stats = DecodeStats()
        path, _ = constrained_viterbi(Chmm(model, ()), ["a"], stats=stats)
        assert path == ("s0", "s1")  # s2 unreachable from s0
        assert stats.expansions == 1
        assert constrained_viterbi(Chmm(model, ()), ["a", "b"])[0] == ("s0", "s1", "s1")

    def test_paths_and_stores_thread_through(self):
        # AllDiff remembers level 1's update, so level 2 must switch state.
        chmm = Chmm(HMM_A, (AllDiff(),))
        stats = DecodeStats()
        path, lp = constrained_viterbi(chmm, ["a", "a"], stats=stats)
        assert path == ("s0", "s1", "s2")
        assert stats.expansions == 4
        assert lp == run_log_probability(HMM_A, Run(path, ("a", "a")))
        assert (path, lp) == brute_force_constrained(chmm, ["a", "a"])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            constrained_viterbi(Chmm(HMM_A, ()), ["a", "z"])


class TestPruneStep:
    """The paper's pruning step: one best entry per (state, store) key."""

    def test_dominated_tuple_dropped(self):
        pruned, unpruned = DecodeStats(), DecodeStats()
        a = constrained_viterbi(Chmm(HMM_A, ()), ["a", "a"], stats=pruned)
        b = constrained_viterbi(Chmm(HMM_A, ()), ["a", "a"], prune=False, stats=unpruned)
        assert a == b == viterbi(HMM_A, ["a", "a"])
        # Both states are reached twice at level 2; one of each pair is dropped.
        assert (pruned.prunes, pruned.peak_entries) == (2, 5)
        assert (unpruned.prunes, unpruned.peak_entries) == (0, 7)

    def test_different_stores_both_kept(self):
        # Level 2 reaches s1 with s2-counts 0 and 1: same state, two stores.
        chmm = Chmm(HMM_A, (StateSpecific(Cardinality(("s2",), 1)),))
        stats = DecodeStats()
        constrained_viterbi(chmm, ["a", "a"], stats=stats)
        assert (stats.prunes, stats.peak_entries) == (0, 6)

    def test_different_states_both_kept(self):
        stats = DecodeStats()
        constrained_viterbi(Chmm(HMM_A, ()), ["a"], stats=stats)
        assert (stats.prunes, stats.peak_entries) == (0, 3)

    def test_ties_keep_the_smallest_path(self):
        # "b" precedes "a" in index order; every path scores the same.
        hmm = Hmm(
            ("s0", "b", "a"),
            ("x",),
            ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),
            ((1.0,), (1.0,)),
        )
        for prune in (True, False):
            path, _ = constrained_viterbi(Chmm(hmm, ()), ["x"] * 3, prune=prune)
            assert path == ("s0", "a", "a", "a")
        path, _ = constrained_viterbi(Chmm(hmm, (AllDiff(),)), ["x", "x"])
        assert path == ("s0", "a", "b")


class TestConstrainedViterbi:
    def test_no_constraints_matches_classical_viterbi(self):
        result = constrained_viterbi(Chmm(HMM_A, ()), ["a"])
        assert result == viterbi(HMM_A, ["a"])
        assert result[0] == ("s0", "s1")

    def test_forbidding_a_state_reroutes(self):
        chmm = Chmm(HMM_A, (StateSpecific(Cardinality(("s1",), 0)),))
        path, lp = constrained_viterbi(chmm, ["b"])
        assert path == ("s0", "s2")
        assert lp == pytest.approx(math.log(0.4 * 0.8), abs=1e-9)

    def test_unsatisfiable_constraints_give_none(self):
        chmm = Chmm(
            HMM_A,
            (
                StateSpecific(Cardinality(("s1",), 0)),
                StateSpecific(Cardinality(("s2",), 0)),
            ),
        )
        assert constrained_viterbi(chmm, ["a"]) is None

    def test_alldiff_exhausts_two_states_on_three_repeats(self):
        chmm = Chmm(HMM_A, (AllDiff(),))
        assert constrained_viterbi(chmm, ["a", "a", "a"]) is None
        assert brute_force_constrained(chmm, ["a", "a", "a"]) is None

    def test_empty_observation(self):
        assert constrained_viterbi(Chmm(HMM_A, ()), []) == (("s0",), 0.0)

    def test_returned_path_satisfies_everything(self):
        rng = random.Random(101)
        for _ in range(80):
            chmm, obs = random_chmm_instance(rng)
            result = constrained_viterbi(chmm, obs)
            if result is None:
                continue
            path, lp = result
            assert path[0] == "s0"
            assert run_log_probability(chmm.hmm, Run(path, obs)) == lp
            history = [StateUpdate(s, (e,)) for s, e in zip(path[1:], obs)]
            for spec in chmm.constraints:
                assert declarative_satisfies(spec, history)

    def test_paths_agree_exactly_with_brute_force(self):
        rng = random.Random(55)
        for _ in range(80):
            chmm, obs = random_chmm_instance(rng)
            assert constrained_viterbi(chmm, obs) == brute_force_constrained(chmm, obs)

    def test_ties_give_the_brute_force_path(self):
        # Exact ties everywhere: both settings of prune must return the
        # lexicographically smallest optimal path, as brute force does.
        rng = random.Random(4)
        for _ in range(150):
            hmm = uniform_hmm(rng)
            obs = tuple(rng.choice(hmm.alphabet) for _ in range(rng.randint(0, 6)))
            specs = random_constraint_set(rng, hmm.states[1:], hmm.alphabet, len(obs))
            chmm = Chmm(hmm, specs)
            expected = brute_force_constrained(chmm, obs)
            assert constrained_viterbi(chmm, obs) == expected
            assert constrained_viterbi(chmm, obs, prune=False) == expected

    def test_agrees_with_brute_force(self):
        report = oracle_check(seed=1234, count=150)
        assert report.ok, report.failures[:1]

    def test_empty_constraints_reduce_to_viterbi_exactly(self):
        rng = random.Random(77)
        for _ in range(60):
            hmm = random_hmm(rng)
            obs = random_observation(rng, hmm, max_len=12)
            a = viterbi(hmm, obs)
            b = constrained_viterbi(Chmm(hmm, ()), obs)
            if a is None:
                assert b is None
            else:
                assert b is not None
                assert a[1] == b[1]

    def test_prune_soundness(self):
        rng = random.Random(300)
        for _ in range(50):
            chmm, obs = random_chmm_instance(rng, max_len=6)
            with_prune = constrained_viterbi(chmm, obs)
            without = constrained_viterbi(chmm, obs, prune=False)
            if with_prune is None:
                assert without is None
            else:
                assert without is not None
                assert with_prune[1] == without[1]

    def test_adding_constraints_never_improves_the_optimum(self):
        rng = random.Random(88)
        for _ in range(60):
            chmm, obs = random_chmm_instance(rng)
            extra = chmm.constraints + (
                StateSpecific(Cardinality((rng.choice(chmm.hmm.states[1:]),), 1)),
            )
            base = constrained_viterbi(chmm, obs)
            tightened = constrained_viterbi(Chmm(chmm.hmm, extra), obs)
            if base is None:
                assert tightened is None
            elif tightened is not None:
                assert tightened[1] <= base[1] + 1e-12

    def test_stats_report_pruning(self):
        chmm = Chmm(HMM_A, (AllDiff(),))
        obs = ["a", "b", "a", "b"]
        pruned_stats = DecodeStats()
        unpruned_stats = DecodeStats()
        constrained_viterbi(chmm, obs, stats=pruned_stats)
        constrained_viterbi(chmm, obs, prune=False, stats=unpruned_stats)
        assert pruned_stats.peak_entries <= unpruned_stats.peak_entries
        assert unpruned_stats.prunes == 0
        assert pruned_stats.expansions > 0


class TestBruteForce:
    def test_matches_direct_example(self):
        path, lp = brute_force_constrained(Chmm(HMM_A, ()), ["a"])
        assert path == ("s0", "s1")
        assert lp == pytest.approx(math.log(0.54), abs=1e-9)

    def test_empty_observation(self):
        assert brute_force_constrained(Chmm(HMM_A, ()), []) == (("s0",), 0.0)

    def test_lock_to_set_filters_paths(self):
        chmm = Chmm(HMM_A, (StateSpecific(LockToSet(("s2",))),))
        path, lp = brute_force_constrained(chmm, ["a", "a"])
        assert path == ("s0", "s2", "s2")


class TestStoreAutomaton:
    """The lazily built automaton against folding ``check_constraints``."""

    STATES = ("m", "i", "d")
    SYMBOLS = ("a", "b")

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        emit_arity=st.sampled_from((1, 2)),
        n_specs=st.integers(min_value=1, max_value=2),
    )
    def test_stepping_agrees_with_folding(self, seed, emit_arity, n_specs):
        rng = random.Random(seed)
        specs = tuple(
            random_spec(rng, self.STATES, self.SYMBOLS, 8, emit_arity=emit_arity)
            for _ in range(n_specs)
        )
        automaton = _StoreAutomaton(specs)
        assert automaton.stores[0] == init_aggregate(specs)
        ids = {automaton.stores[0]: 0}
        # Several streams through one automaton, so later streams hit arcs
        # that earlier ones built.
        for _ in range(4):
            updates = random_update_sequence(rng, self.STATES, self.SYMBOLS, max_len=10)
            if emit_arity == 2:
                updates = [
                    StateUpdate(u.state, u.emitted + (rng.choice(self.SYMBOLS),))
                    for u in updates
                ]
            store, sid = init_aggregate(specs), 0
            for update in updates:
                store = check_constraints(specs, update, store)
                # As the kernel steps: one arc lookup, and on a miss
                # ``check`` and a recorded arc.
                arc = automaton.arcs[sid]
                nid = arc.get(update)
                if nid is None:
                    nid = arc[update] = automaton.check(sid, update)
                sid = nid
                if store is None:
                    assert sid == -1, (specs, updates)
                    break
                assert sid >= 0, (specs, updates)
                assert automaton.stores[sid] == store
                assert ids.setdefault(store, sid) == sid
            else:
                assert sid >= 0
        assert len(ids) == len(automaton.stores) == len(set(automaton.stores))
        arcs = sum(len(arc) for arc in automaton.arcs)
        assert automaton.checks == arcs


class _Table(dict):
    """A node table the test can watch: dict subclasses take weak references."""


class TestFrontierRelease:
    def test_kernel_keeps_no_table_the_lattice_dropped(self):
        # A chain of single-state nodes, each reading only the one before,
        # so the lattice drops a table once the node after it is filled.
        trans_log = [[None, 0.0], [None, 0.0]]
        moves = ((1, 0.0, StateUpdate("s", ("a",))),)
        refs = []

        def chain(table):
            for _ in range(12):
                pred, table = table, _Table()
                refs.append(weakref.ref(table))
                yield table, ((pred, moves),), None
                # Resumed after node k was filled: only nodes k - 1 and k
                # may still be alive.
                assert [r() is None for r in refs[:-2]] == [True] * (len(refs) - 2)

        result = decoder._lattice_viterbi((), trans_log, chain, True, None)
        assert result == (0.0, [1] * 12)
        assert len(refs) == 12


@pytest.fixture
def counted_checks(monkeypatch):
    """Count the kernel's ``check_constraints`` calls and the distinct
    (store, update) pairs they see, by wrapping the module attribute the
    benchmark tracer wraps."""
    seen = {"calls": 0, "pairs": set()}
    original = decoder.check_constraints

    def counting(specs, update, store):
        seen["calls"] += 1
        seen["pairs"].add((store, update))
        return original(specs, update, store)

    monkeypatch.setattr(decoder, "check_constraints", counting)
    return seen


def budget_alignment(stats=None):
    """A 40x40 DNA alignment under an indel budget of 8."""
    rng = random.Random(40)
    x = "".join(rng.choice("ACGT") for _ in range(40))
    y = "".join(rng.choice("ACGT") for _ in range(40))
    model = build_pair_chmm(uniform_pair_params("ACGT"), (indel_budget_constraint(8),))
    stats = DecodeStats() if stats is None else stats
    return align(model, x, y, stats=stats), stats


class TestCheckCache:
    def test_count_matches_stats(self, counted_checks):
        result, stats = budget_alignment()
        assert result is not None
        assert counted_checks["calls"] == stats.checks > 0
        assert stats.stores == len({s for s, _ in counted_checks["pairs"]}) == 9

    def test_each_store_update_pair_is_checked_once(self, counted_checks):
        _result, stats = budget_alignment()
        assert counted_checks["calls"] <= len(counted_checks["pairs"])
        assert 20 * counted_checks["calls"] < stats.expansions

    def test_unpruned_search_checks_every_candidate(self, counted_checks):
        spec = Cardinality(["s1"], 2)
        obs = list("abaabba")
        stats = DecodeStats()
        constrained_viterbi(Chmm(HMM_A, (spec,)), obs, prune=False, stats=stats)
        # Every positive-probability successor of every accepted prefix is a
        # candidate, and each is checked on its own.
        ix = HMM_A.state_index
        candidates = 0
        for k in range(len(obs)):
            for tail in itertools.product(HMM_A.states[1:], repeat=k):
                history = [StateUpdate(s, (e,)) for s, e in zip(tail, obs)]
                if not declarative_satisfies(spec, history):
                    continue
                prev = tail[-1] if tail else HMM_A.states[0]
                candidates += sum(
                    1
                    for t in HMM_A.states[1:]
                    if HMM_A.transitions[ix[prev]][ix[t] - 1] > 0
                    and HMM_A.emissions[ix[t] - 1][HMM_A.symbol_index[obs[k]]] > 0
                )
        assert counted_checks["calls"] == stats.checks == candidates == 126


def counters(stats):
    return (stats.expansions, stats.prunes, stats.peak_entries, stats.stores, stats.checks)


HMM_B = Hmm(
    states=("s0", "s1", "s2", "s3"),
    alphabet=("a", "b"),
    transitions=((0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.4, 0.2, 0.4), (0.3, 0.3, 0.4)),
    emissions=((0.8, 0.2), (0.3, 0.7), (0.5, 0.5)),
)
OBS_B = list("abbabaab")
# (constraint texts, counters) on HMM_B and OBS_B
FORM_COUNTERS = [
    (("forall_subseq(3,alldiff)",), (120, 60, 61, 34, 156)),
    (("state_specific(forall_subseq(2,alldiff))",), (45, 21, 25, 4, 21)),
    (("for_range(2,5,lock_to_set([s1,(s3,b)]))",), (41, 22, 20, 9, 24)),
    (("lock_to_sequence([s1,_,(s2,b),s3,_,s2,(_,a),_])",), (26, 10, 17, 9, 24)),
    (("forall_subseq(3,cardinality([s2,(s3,a)],1))",), (66, 30, 37, 7, 30)),
    (("forall_subseq(1,lock_to_set([s1,s3]))",), (30, 14, 17, 1, 6)),
    (
        ("cardinality([s2,(s3,a)],2)", "state_specific(forall_subseq(2,alldiff))"),
        (53, 18, 36, 9, 48),
    ),
]


class TestCounters:
    """The kernel derives its counters once per walk, from the entries it
    stored and the merges; these values equal a count taken at every
    expansion."""

    def test_budget_alignment(self):
        # The lookahead stores no entry whose indel budget is below the
        # cells' length difference left, so these fell from
        # (8590, 4420, 4171, 9, 214) without the lookahead.
        _result, stats = budget_alignment()
        assert counters(stats) == (4904, 2502, 2403, 9, 211)

    def test_counts_add_up_and_the_peak_is_a_max(self):
        _result, stats = budget_alignment()
        budget_alignment(stats)
        assert counters(stats) == (9808, 5004, 2403, 18, 422)

    @pytest.mark.parametrize(
        "prune, expected", [(True, (45, 14, 32, 3, 12)), (False, (91, 0, 92, 3, 126))]
    )
    def test_decode(self, prune, expected):
        stats = DecodeStats()
        chmm = Chmm(HMM_A, (Cardinality(["s1"], 2),))
        constrained_viterbi(chmm, list("abaabba"), prune=prune, stats=stats)
        assert counters(stats) == expected

    @pytest.mark.parametrize("texts, expected", FORM_COUNTERS)
    def test_constraint_forms(self, texts, expected):
        stats = DecodeStats()
        chmm = Chmm(HMM_B, tuple(parse_constraint(t) for t in texts))
        constrained_viterbi(chmm, OBS_B, stats=stats)
        assert counters(stats) == expected

    @pytest.mark.parametrize("texts", [texts for texts, _ in FORM_COUNTERS])
    def test_decoding_one_model_twice_repeats_the_first_decode(self, texts):
        # Each spec keeps its compiled checker; nothing of one decode may
        # reach the next.
        chmm = Chmm(HMM_B, tuple(parse_constraint(t) for t in texts))
        runs = []
        for _ in range(2):
            stats = DecodeStats()
            result = constrained_viterbi(chmm, OBS_B, stats=stats)
            runs.append((result, counters(stats)))
        assert runs[0] == runs[1]

    def test_a_decoded_model_pickles(self):
        texts, expected = FORM_COUNTERS[-1]
        chmm = Chmm(HMM_B, tuple(parse_constraint(t) for t in texts))
        first = constrained_viterbi(chmm, OBS_B)
        copy = pickle.loads(pickle.dumps(chmm))
        assert copy == chmm
        stats = DecodeStats()
        assert constrained_viterbi(copy, OBS_B, stats=stats) == first
        assert counters(stats) == expected
