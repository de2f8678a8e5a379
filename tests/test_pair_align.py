import math
import random

import pytest

from chmm import (
    AllDiff,
    Alignment,
    Cardinality,
    DecodeStats,
    ForallSubseq,
    ForRange,
    LockToSequence,
    LockToSet,
    PairChmm,
    PairHmmParams,
    StateSpecific,
    align,
    align_plain,
    alignment_log_probability,
    brute_force_align,
    build_pair_chmm,
    gapped_strings,
    ops_from_letters,
    uniform_pair_params,
    validate_pair_params,
)
from chmm import decoder, init_aggregate, pairhmm
from chmm.bench import indel_budget_constraint
from chmm.constraints import store_limit
from chmm.random_instances import random_pair_params


def count_alignments(nx, ny):
    """Independent count of monotone alignments (match/insert/delete lattices)."""
    table = {}
    for i in range(nx + 1):
        for j in range(ny + 1):
            if i == 0 and j == 0:
                table[i, j] = 1
                continue
            total = 0
            if i >= 1 and j >= 1:
                total += table[i - 1, j - 1]
            if i >= 1:
                total += table[i - 1, j]
            if j >= 1:
                total += table[i, j - 1]
            table[i, j] = total
    return table[nx, ny]


def consumption_counts(alignment):
    matches = sum(1 for op in alignment.ops if op[0] == "match")
    inserts = sum(1 for op in alignment.ops if op[0] == "insert")
    deletes = sum(1 for op in alignment.ops if op[0] == "delete")
    return matches, inserts, deletes


def identity_favoring_params(alphabet=("A", "B"), gap_open=0.1, gap_extend=0.1):
    k = len(alphabet)
    weight = [[9.0 if i == j else 1.0 for j in range(k)] for i in range(k)]
    total = sum(sum(row) for row in weight)
    return PairHmmParams(
        alphabet=alphabet,
        gap_open=gap_open,
        gap_extend=gap_extend,
        match_emission=tuple(tuple(w / total for w in row) for row in weight),
        gap_emission=tuple(1.0 / k for _ in range(k)),
    )


class TestBuildPairChmm:
    def test_match_row_arithmetic(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B"), 0.2, 0.3))
        trans = model.params.transition_log
        assert trans[("match", "match")] == pytest.approx(math.log(0.6))
        assert trans[("match", "insert")] == pytest.approx(math.log(0.2))
        assert trans[("begin", "delete")] == pytest.approx(math.log(0.2))
        assert trans[("insert", "insert")] == pytest.approx(math.log(0.3))
        assert ("insert", "delete") not in trans
        assert ("delete", "insert") not in trans

    def test_excessive_gap_open_rejected(self):
        with pytest.raises(ValueError, match="gap_open"):
            build_pair_chmm(uniform_pair_params(("A", "B"), gap_open=0.6))

    def test_bad_emission_table_rejected(self):
        params = PairHmmParams(
            alphabet=("A", "B"),
            gap_open=0.1,
            gap_extend=0.1,
            match_emission=((0.5, 0.5), (0.5, 0.5)),
            gap_emission=(0.5, 0.5),
        )
        assert any("match emission" in p for p in validate_pair_params(params))
        with pytest.raises(ValueError):
            build_pair_chmm(params)

    def test_hand_built_model_with_invalid_params_raises(self):
        params = PairHmmParams(
            alphabet=("A", "C"),
            gap_open=0.1,
            gap_extend=0.1,
            match_emission=((0.5, 0.5), (0.5, 0.5)),
            gap_emission=(0.5, 0.5),
        )
        with pytest.raises(ValueError, match="invalid pair model: match emission"):
            PairChmm(params)

    def test_zero_indel_budget_admits_only_all_match(self):
        model = build_pair_chmm(
            uniform_pair_params(("A", "B")), (indel_budget_constraint(0),)
        )
        result = align(model, "AB", "BA")
        assert result is not None
        assert all(op[0] == "match" for op in result.ops)
        assert align(model, "AB", "A") is None


class TestAlignmentScoring:
    def test_empty_alignment_scores_zero(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B")))
        assert alignment_log_probability(model, "", "", Alignment((), 0.0)) == 0.0

    def test_single_match_product(self):
        params = uniform_pair_params(("A", "B"), gap_open=0.2)
        model = build_pair_chmm(params)
        lp = alignment_log_probability(
            model, "A", "A", Alignment((("match", 1, 1),), 0.0)
        )
        assert lp == pytest.approx(math.log(0.6) + math.log(0.25), abs=1e-12)

    def test_example_alignment_matches_direct_product(self):
        x, y = "HGKKGAAQV", "KGPKKAQA"
        params = uniform_pair_params(gap_open=0.2, gap_extend=0.2)
        model = build_pair_chmm(params)
        ops = ops_from_letters("b i i i m m m d d m m m")
        lp = alignment_log_probability(model, x, y, Alignment(ops, 0.0))
        # independent multiplication of the transition and emission factors
        k = len(params.alphabet)
        states = ["b"] + [op[0][0] for op in ops]
        trans = {
            ("b", "m"): 0.6, ("b", "i"): 0.2, ("b", "d"): 0.2,
            ("m", "m"): 0.6, ("m", "i"): 0.2, ("m", "d"): 0.2,
            ("i", "m"): 0.8, ("i", "i"): 0.2,
            ("d", "m"): 0.8, ("d", "d"): 0.2,
        }
        prob = 1.0
        for prev, cur in zip(states, states[1:]):
            prob *= trans[(prev, cur)]
            prob *= 1.0 / (k * k) if cur == "m" else 1.0 / k
        assert lp == pytest.approx(math.log(prob), abs=1e-9)

    def test_constraint_rejection_scores_neg_inf(self):
        model = build_pair_chmm(
            uniform_pair_params(("A", "B")), (indel_budget_constraint(0),)
        )
        lp = alignment_log_probability(
            model, "A", "", Alignment((("insert", 1),), 0.0)
        )
        assert lp == float("-inf")

    def test_malformed_alignment_raises(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B")))
        with pytest.raises(ValueError, match="consumes"):
            alignment_log_probability(model, "AB", "A", Alignment((("match", 1, 1),), 0.0))
        with pytest.raises(ValueError, match="out of order"):
            alignment_log_probability(model, "A", "A", Alignment((("match", 2, 1),), 0.0))
        with pytest.raises(ValueError, match="unknown symbol"):
            alignment_log_probability(model, "Z", "A", Alignment((("match", 1, 1),), 0.0))


class TestOpsFromLetters:
    def test_parses_spaced_annotation(self):
        ops = ops_from_letters("b i i m d")
        assert ops == (("insert", 1), ("insert", 2), ("match", 3, 1), ("delete", 2))

    def test_leading_begin_marker_optional(self):
        assert ops_from_letters("mm") == ops_from_letters("b m m")

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="unknown alignment letter"):
            ops_from_letters("mxd")

    def test_equal_operations_are_shared_and_the_shared_table_stays_bounded(self):
        # Kept alignments hold each operation once; the table is emptied
        # before a call once it holds more than _SHARED_OPS_MAX operations.
        first, second = ops_from_letters("mmi"), ops_from_letters("bmmd")
        assert first[1] is second[1] and first[2] != second[2]
        ops_from_letters("i" * (pairhmm._SHARED_OPS_MAX + 1))
        assert len(pairhmm._SHARED_OPS) > pairhmm._SHARED_OPS_MAX
        assert ops_from_letters("d") == (("delete", 1),)
        assert len(pairhmm._SHARED_OPS) == 1


class TestAlign:
    def test_empty_sequences(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B")))
        result = align(model, "", "")
        assert result == Alignment((), 0.0)

    @pytest.mark.parametrize(
        "spec",
        [
            Cardinality(("insert",), -1),
            ForRange(3, 2, AllDiff()),
            ForallSubseq(0, AllDiff()),
            ForallSubseq(2.5, AllDiff()),
            ForRange(1.5, 3, AllDiff()),
            ForallSubseq(True, AllDiff()),
        ],
    )
    def test_invalid_constraint_on_a_hand_built_model_raises(self, spec):
        # A hand-built PairChmm validates its constraints when built.
        with pytest.raises(ValueError):
            PairChmm(uniform_pair_params(("A", "C")), (spec,))
        # A failed compile is not kept: a second model checks again.
        with pytest.raises(ValueError):
            PairChmm(uniform_pair_params(("A", "C")), (spec,))

    def test_identity_favoring_params_match_everything(self):
        model = build_pair_chmm(identity_favoring_params())
        result = align(model, "AB", "AB")
        assert result.ops == (("match", 1, 1), ("match", 2, 2))
        assert result.state_string == "bmm"
        assert count_alignments(2, 2) == 13

    def test_score_is_exactly_the_alignment_score(self):
        rng = random.Random(17)
        for _ in range(40):
            model = build_pair_chmm(random_pair_params(rng))
            x = tuple(rng.choice(model.params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(model.params.alphabet) for _ in range(rng.randint(0, 5)))
            result = align(model, x, y)
            if result is None:
                continue
            assert alignment_log_probability(model, x, y, result) == result.log_prob

    def test_agrees_with_brute_force(self):
        rng = random.Random(29)
        budgets = [0, 1, 2, None]
        for i in range(80):
            params = random_pair_params(rng)
            budget = budgets[i % 4]
            constraints = () if budget is None else (indel_budget_constraint(budget),)
            model = build_pair_chmm(params, constraints)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            fast = align(model, x, y)
            slow = brute_force_align(model, x, y)
            assert (fast is None) == (slow is None), (x, y, budget)
            if fast is None:
                continue
            assert fast.log_prob == pytest.approx(slow.log_prob, abs=1e-9)
            matches, inserts, deletes = consumption_counts(fast)
            assert matches + inserts == len(x)
            assert matches + deletes == len(y)

    def test_agrees_with_brute_force_under_general_constraints(self):
        # Zero to two specs, with one-symbol patterns (never a match) or
        # two-symbol ones (never a gap).
        rng = random.Random(41)
        from chmm.random_instances import random_constraint_set

        for _ in range(200):
            params = random_pair_params(rng)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            specs = random_constraint_set(
                rng, ("match", "insert", "delete"), params.alphabet, len(x) + len(y),
                emit_arity=rng.choice((1, 2)),
            )
            model = build_pair_chmm(params, specs)
            fast = align(model, x, y)
            slow = brute_force_align(model, x, y)
            assert (fast is None) == (slow is None), (x, y, specs)
            if fast is not None:
                assert fast.log_prob == pytest.approx(slow.log_prob, abs=1e-9)

    @pytest.mark.parametrize(
        "x, y, budget",
        [("", "", 0), ("", "ABA", 2), ("", "ABA", 3), ("AB", "", 1), ("AB", "", 2)],
    )
    def test_an_empty_sequence_agrees_with_brute_force(self, x, y, budget):
        model = build_pair_chmm(uniform_pair_params(("A", "B")), (indel_budget_constraint(budget),))
        fast, slow = align(model, x, y), brute_force_align(model, x, y)
        assert (fast is None) == (slow is None) == (len(x) + len(y) > budget)
        if fast is not None:
            assert fast.ops == slow.ops
            assert fast.log_prob == pytest.approx(slow.log_prob, abs=1e-9)

    @pytest.mark.parametrize(
        "params, specs",
        [
            # No symbol can be emitted by any operation, so no cell has an edge.
            (PairHmmParams(("A", "B"), 0.1, 0.1, ((1.0, 0.0), (0.0, 0.0)), (1.0, 0.0)), ()),
            # Only the pair (B, B) can be emitted: cell (1, 1) is reachable but
            # nothing finishes, so the bound's top is -inf and nothing is stored.
            (PairHmmParams(("A", "B"), 0.1, 0.1, ((0.0, 0.0), (0.0, 1.0)), (1.0, 0.0)), ()),
            # Every update is rejected by the checker.
            (uniform_pair_params(("A", "B")), (Cardinality(("_",), 0),)),
            # Every store has room for no update, so the lookahead drops all.
            (uniform_pair_params(("A", "B")), (LockToSequence(()),)),
        ],
    )
    def test_when_every_cell_before_the_last_is_empty_there_is_no_alignment(
        self, params, specs
    ):
        model = build_pair_chmm(params, specs)
        stats = DecodeStats()
        assert align(model, "BB", "B", stats=stats) is None
        assert brute_force_align(model, "BB", "B") is None
        assert (stats.peak_entries, stats.expansions) == (1, 0)

    def test_generous_budget_equals_unconstrained_exactly(self):
        rng = random.Random(53)
        for _ in range(30):
            params = random_pair_params(rng)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            budget = len(x) + len(y)
            model = build_pair_chmm(params, (indel_budget_constraint(budget),))
            constrained = align(model, x, y)
            plain = align_plain(params, x, y)
            if plain is None:
                assert constrained is None
            else:
                assert constrained is not None
                assert constrained.log_prob == plain.log_prob

    def test_empty_constraint_list_equals_plain_aligner_exactly(self):
        rng = random.Random(59)
        for _ in range(30):
            params = random_pair_params(rng)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            fast = align(build_pair_chmm(params), x, y)
            plain = align_plain(params, x, y)
            if plain is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.log_prob == plain.log_prob

    def test_swap_symmetry(self):
        rng = random.Random(61)
        for _ in range(30):
            params = random_pair_params(rng)
            k = len(params.alphabet)
            transposed = PairHmmParams(
                alphabet=params.alphabet,
                gap_open=params.gap_open,
                gap_extend=params.gap_extend,
                match_emission=tuple(
                    tuple(params.match_emission[j][i] for j in range(k))
                    for i in range(k)
                ),
                gap_emission=params.gap_emission,
            )
            budget = rng.choice([1, 2, 10])
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 4)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 4)))
            fwd = align(build_pair_chmm(params, (indel_budget_constraint(budget),)), x, y)
            rev = align(
                build_pair_chmm(transposed, (indel_budget_constraint(budget),)), y, x
            )
            assert (fwd is None) == (rev is None)
            if fwd is not None:
                assert fwd.log_prob == pytest.approx(rev.log_prob, abs=1e-9)

    def test_unknown_symbols_rejected(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B")))
        with pytest.raises(ValueError, match="unknown symbol"):
            align(model, "AZ", "A")

    def test_emission_sensitive_constraints_apply(self):
        # forbid aligning A against B in either direction
        params = identity_favoring_params()
        allowed = LockToSet(
            (("match", "A", "A"), ("match", "B", "B"), "insert", "delete")
        )
        model = build_pair_chmm(params, (allowed,))
        # mismatched single symbols cannot be aligned at all: a match is
        # forbidden by the constraint and insert->delete edges do not exist
        assert align(model, "A", "B") is None
        # with an equal pair in between the gaps can separate: i, m, d
        result = align(model, "AB", "BA")
        assert result is not None
        x, y = "AB", "BA"
        for op in result.ops:
            if op[0] == "match":
                assert x[op[1] - 1] == y[op[2] - 1]

    def test_window_constraint_limits_gap_runs(self):
        params = uniform_pair_params(("A", "B"), gap_open=0.4, gap_extend=0.9)
        no_long_insert_runs = ForallSubseq(
            3, StateSpecific(Cardinality(("insert",), 2))
        )
        model = build_pair_chmm(params, (no_long_insert_runs,))
        result = align(model, "AAAA", "")
        assert result is None  # four inserts in a row always contain a full window
        unconstrained = align(build_pair_chmm(params), "AAAA", "")
        assert unconstrained is not None


def unlimited_spec(rng, alphabet):
    """One constraint of a form that reports no ``store_limit``."""
    def pattern():
        a, b = rng.choice(alphabet), rng.choice(alphabet)
        return rng.choice(("insert", "delete", ("match", a, b), ("insert", a), ("delete", b)))

    def allowed():
        return LockToSet(tuple(pattern() for _ in range(rng.randint(1, 4))))

    first = rng.randint(1, 4)
    return rng.choice((
        AllDiff(),
        ForallSubseq(rng.randint(2, 3), AllDiff()),
        allowed(),
        ForRange(first, first + rng.randint(0, 3), allowed()),
        StateSpecific(ForallSubseq(rng.randint(2, 3), AllDiff())),
    ))


class TestBound:
    """``align`` with no constraint runs the kernel with the bound of a
    backward pass; it must change no result and no tie. A third of the
    instances carry one unlimited constraint, which is searched unbounded."""

    def test_agrees_with_brute_force_and_with_the_unbounded_search(self, monkeypatch):
        rng = random.Random(71)
        cases = []
        for k in range(320):
            params = uniform_pair_params(("A", "B")) if k % 2 else random_pair_params(rng)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 6)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 6)))
            specs = () if k % 3 else (unlimited_spec(rng, params.alphabet),)
            assert not any(map(store_limit, specs, init_aggregate(specs)))
            cases.append((build_pair_chmm(params, specs), x, y))
        bounded = [align(model, x, y) for model, x, y in cases]
        found = 0
        for (model, x, y), fast in zip(cases, bounded):
            slow = brute_force_align(model, x, y)
            assert (fast is None) == (slow is None), (x, y, model.constraints)
            if fast is not None:
                found += 1
                assert abs(fast.log_prob - slow.log_prob) <= 1e-9
                assert alignment_log_probability(model, x, y, fast) == fast.log_prob
        assert found >= 200
        # The same kernel without the bound returns the same ops and bits.
        monkeypatch.setattr(
            pairhmm, "_lattice_viterbi",
            lambda specs, trans, lattice, stats, fewest, bound: decoder._lattice_viterbi(
                specs, trans, lattice, stats, fewest
            ),
        )
        assert [align(model, x, y) for model, x, y in cases] == bounded


class TestAlignPlain:
    """The unconstrained baseline, checked on its own rather than through
    ``align``."""

    def test_counters_on_a_tie_heavy_pair(self):
        # Uniform emissions make many partial alignments tie; the pinned
        # counters and the ops are those of the previous implementation, and
        # ``align`` on the empty model finds the same ops. Its bound stores
        # only the entries that can still come within 1 nat of the optimum.
        rng = random.Random(40)
        x = "".join(rng.choice("ACGT") for _ in range(40))
        y = "".join(rng.choice("ACGT") for _ in range(40))
        params = uniform_pair_params("ACGT")
        plain_stats, stats = DecodeStats(), DecodeStats()
        plain = align_plain(params, x, y, stats=plain_stats)
        constrained = align(build_pair_chmm(params), x, y, stats=stats)
        counters = (plain_stats.expansions, plain_stats.prunes, plain_stats.peak_entries)
        assert counters == (10804, 6004, 4801)
        bounded = (stats.expansions, stats.prunes, stats.peak_entries)
        assert bounded == (40, 0, 41)
        assert all(b <= p for b, p in zip(bounded, counters))
        assert plain == constrained

    def test_agrees_with_brute_force(self):
        rng = random.Random(67)
        found = 0
        for _ in range(240):
            params = random_pair_params(rng)
            model = build_pair_chmm(params)
            x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 5)))
            plain = align_plain(params, x, y)
            expected = brute_force_align(model, x, y)
            if expected is None:
                assert plain is None
                continue
            found += 1
            assert plain is not None
            assert abs(plain.log_prob - expected.log_prob) <= 1e-9
            assert alignment_log_probability(model, x, y, plain) == plain.log_prob
        assert found >= 200

    def test_invalid_params_raise_as_for_the_constrained_model(self):
        params = PairHmmParams(("A", "B"), 0.7, 0.1, ((0.25, 0.25), (0.25, 0.25)), (0.5, 0.5))
        message = "invalid pair model: gap_open 0.7 makes the match row negative (2*gap_open > 1)"
        for call in (lambda: align_plain(params, "AB", "AB"), lambda: PairChmm(params)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestBruteForceAlign:
    def test_three_alignments_of_single_symbols(self):
        assert count_alignments(1, 1) == 3
        model = build_pair_chmm(identity_favoring_params())
        best = brute_force_align(model, "A", "A")
        assert best.ops == (("match", 1, 1),)

    def test_forced_single_insert(self):
        model = build_pair_chmm(uniform_pair_params(("A", "B")))
        best = brute_force_align(model, "A", "")
        assert best.ops == (("insert", 1),)

    def test_zero_budget_with_unequal_lengths_is_absent(self):
        model = build_pair_chmm(
            uniform_pair_params(("A", "B")), (indel_budget_constraint(0),)
        )
        assert brute_force_align(model, "AA", "A") is None

    def test_alldiff_on_pair_updates(self):
        model = build_pair_chmm(identity_favoring_params(), (AllDiff(),))
        result = align(model, "AA", "AA")
        slow = brute_force_align(model, "AA", "AA")
        # two identical (match, A, A) updates are forbidden
        assert (result is None) == (slow is None)
        if result is not None:
            assert not all(op[0] == "match" for op in result.ops)


class TestDisplay:
    def test_gapped_strings(self):
        x, y = "HGKKGAAQV", "KGPKKAQA"
        ops = ops_from_letters("biiimmmddmmm")
        gx, gy = gapped_strings(x, y, Alignment(ops, 0.0))
        assert gx == "HGKKGA--AQV"
        assert gy == "---KGPKKAQA"

    def test_state_string_round_trips(self):
        ops = ops_from_letters("bmmidm")
        assert Alignment(ops, 0.0).state_string == "bmmidm"

    @pytest.mark.parametrize("seed", range(20))
    def test_letters_round_trip_and_gaps_removed_give_back_the_sequences(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            letters = "".join(rng.choice("mid") for _ in range(rng.randint(0, 12)))
            ops = ops_from_letters(letters)
            assert Alignment(ops, 0.0).state_string == "b" + letters
            assert ops_from_letters(Alignment(ops, 0.0).state_string) == ops
            nx = letters.count("m") + letters.count("i")
            ny = letters.count("m") + letters.count("d")
            x = "".join(rng.choice("ACGT") for _ in range(nx))
            y = "".join(rng.choice("ACGT") for _ in range(ny))
            gx, gy = gapped_strings(x, y, Alignment(ops, 0.0))
            assert len(gx) == len(gy) == len(letters)
            assert (gx.replace("-", ""), gy.replace("-", "")) == (x, y)

    @pytest.mark.parametrize(
        "ops",
        [(("foo", 1),), (("match", 1, 1), ("insrt", 2)), ((["match"], 1, 1),)],
        ids=["unknown", "unknown-after-match", "unhashable"],
    )
    def test_gapped_strings_rejects_an_unknown_operation(self, ops):
        with pytest.raises(ValueError) as info:
            gapped_strings("A", "C", Alignment(ops, 0.0))
        assert str(info.value) == f"unknown alignment operation {ops[-1]!r}"

    @pytest.mark.parametrize(
        "x, y, ops, message",
        [
            (
                "AB",
                "C",
                (("insert", 2), ("delete", 1)),
                "operation ('insert', 2) out of order (expected ('insert', 1))",
            ),
            (
                "AB",
                "C",
                (("match", 5, 1),),
                "operation ('match', 5, 1) out of order (expected ('match', 1, 1))",
            ),
        ],
        ids=["skips-x1", "past-the-end"],
    )
    def test_gapped_strings_rejects_misplaced_operations(self, x, y, ops, message):
        with pytest.raises(ValueError) as info:
            gapped_strings(x, y, Alignment(ops, 0.0))
        assert str(info.value) == message


def _score_ops(x, y, ops):
    model = build_pair_chmm(uniform_pair_params(("A", "B")))
    return alignment_log_probability(model, x, y, Alignment(ops, 0.0))


class TestPairOperationErrors:
    """Every message that a malformed letter string or operation list raises,
    by full text."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ops_from_letters("mxd"), "unknown alignment letter 'x'"),
            (
                lambda: _score_ops("A", "A", (("foo", 1),)),
                "unknown alignment operation ('foo', 1)",
            ),
            (
                lambda: _score_ops("A", "A", ((["match"], 1, 1),)),
                "unknown alignment operation (['match'], 1, 1)",
            ),
            (
                lambda: _score_ops("A", "A", (("match", 2, 1),)),
                "operation ('match', 2, 1) out of order (expected ('match', 1, 1))",
            ),
            (
                lambda: _score_ops("AB", "", (("insert", 1), ("insert", 1))),
                "operation ('insert', 1) out of order (expected ('insert', 2))",
            ),
            (
                lambda: _score_ops("", "A", (("delete", 1, 1),)),
                "operation ('delete', 1, 1) out of order (expected ('delete', 1))",
            ),
            (
                lambda: _score_ops("A", "", (("match", 1, 1),)),
                "operation ('match', 1, 1) consumes beyond the sequences",
            ),
            (
                lambda: _score_ops("", "A", (("insert", 1),)),
                "operation ('insert', 1) consumes beyond sequence x",
            ),
            (
                lambda: _score_ops("A", "", (("delete", 1),)),
                "operation ('delete', 1) consumes beyond sequence y",
            ),
            (
                lambda: _score_ops("AB", "A", (("match", 1, 1),)),
                "alignment consumes 1 of 2 x-symbols and 1 of 1 y-symbols",
            ),
        ],
        ids=[
            "unknown-letter",
            "unknown-operation",
            "unhashable-operation",
            "match-out-of-order",
            "insert-out-of-order",
            "delete-out-of-order",
            "match-beyond",
            "insert-beyond",
            "delete-beyond",
            "short-consumption",
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
