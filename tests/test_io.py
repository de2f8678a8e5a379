import random

import pytest

from chmm import (
    ConstraintSyntaxError,
    ForRange,
    Hmm,
    LockToSet,
    ModelParseError,
    PairHmmParams,
    StateSpecific,
    format_model,
    parse_constraints,
    parse_model,
    read_fasta,
    uniform_pair_params,
)
from chmm import modelio
from chmm.modelio import parse_constraints_text, parse_model_text
from chmm.random_instances import random_hmm, random_pair_params

from conftest import HMM_A

HMM_TEXT = """\
# demo model
hmm
states: s0 s1 s2
alphabet: a b
transitions s0: 0.6 0.4
transitions s1: 0.7 0.3
transitions s2: 0.4 0.6
emissions s1: 0.9 0.1
emissions s2: 0.2 0.8
"""

PAIR_TEXT = """\
pair
alphabet: A B
gap_open: 0.2
gap_extend: 0.3
match A: 0.3 0.2
match B: 0.2 0.3
gap: 0.5 0.5
"""


class TestModelParsing:
    def test_parse_hmm(self):
        model = parse_model_text(HMM_TEXT)
        assert model == HMM_A

    def test_parse_pair(self):
        params = parse_model_text(PAIR_TEXT)
        assert isinstance(params, PairHmmParams)
        assert params.gap_open == 0.2
        assert params.gap_extend == 0.3
        assert params.match_emission[0] == (0.3, 0.2)

    def test_round_trip_hmm(self):
        assert parse_model_text(format_model(HMM_A)) == HMM_A

    def test_round_trip_pair(self):
        params = uniform_pair_params(("A", "C", "G", "T"), 0.13, 0.21)
        assert parse_model_text(format_model(params)) == params

    def test_round_trip_random_models(self):
        rng = random.Random(2024)
        for _ in range(200):
            for model in (random_hmm(rng), random_pair_params(rng)):
                assert parse_model_text(format_model(model)) == model

    def test_row_sum_failure_reported(self):
        bad = HMM_TEXT.replace("transitions s1: 0.7 0.3", "transitions s1: 0.6 0.3")
        with pytest.raises(ModelParseError, match="validation failed.*'s1'"):
            parse_model_text(bad)

    def test_syntax_error_names_the_line(self):
        bad = HMM_TEXT.replace("alphabet: a b", "alphabet a b")
        with pytest.raises(ModelParseError, match="line 4"):
            parse_model_text(bad)

    def test_bad_number_names_line_and_field(self):
        bad = HMM_TEXT.replace("transitions s2: 0.4 0.6", "transitions s2: 0.4 x")
        with pytest.raises(ModelParseError, match="line 7.*transitions s2.*'x'"):
            parse_model_text(bad)

    def test_missing_row_reported(self):
        bad = HMM_TEXT.replace("emissions s2: 0.2 0.8\n", "")
        with pytest.raises(ModelParseError, match="missing emission row for state 's2'"):
            parse_model_text(bad)

    @pytest.mark.parametrize(
        "text, line",
        [
            (HMM_TEXT, "states: s0 s1 s2"),
            (HMM_TEXT, "alphabet: a b"),
            (PAIR_TEXT, "alphabet: A B"),
            (PAIR_TEXT, "gap_open: 0.2"),
            (PAIR_TEXT, "gap_extend: 0.3"),
            (PAIR_TEXT, "gap: 0.5 0.5"),
        ],
        ids=["hmm-states", "hmm-alphabet", "pair-alphabet", "pair-gap_open",
             "pair-gap_extend", "pair-gap"],
    )
    def test_repeated_scalar_field_rejected(self, text, line):
        # The repeat is appended as the last line, so the error names it.
        repeated = text + line + "\n"
        lineno = len(repeated.splitlines())
        field = line.partition(":")[0]
        with pytest.raises(
            ModelParseError, match=f"^line {lineno}: duplicate field '{field}'$"
        ):
            parse_model_text(repeated)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# nothing here\n", "empty model file"),
            ("markov\nstates: s0\n",
             "line 1: unknown model kind 'markov' (expected 'hmm' or 'pair')"),
            (HMM_TEXT.replace("alphabet: a b", "alphabet a b"),
             "line 4: expected 'label: values', got 'alphabet a b'"),
            (HMM_TEXT + "alphabet: a\n", "line 10: duplicate field 'alphabet'"),
            (HMM_TEXT.replace("0.4 0.6", "0.4 x"),
             "line 7: field 'transitions s2': 'x' is not a number"),
            (PAIR_TEXT.replace("gap_open: 0.2", "gap_open: x"),
             "line 3: field 'gap_open': 'x' is not a number"),
            (HMM_TEXT + "transitions \t s1: 0.7 0.3\n",
             "line 10: duplicate transition row for 's1'"),
            (HMM_TEXT + "emissions s1: 0.9 0.1\n",
             "line 10: duplicate emission row for 's1'"),
            (HMM_TEXT + "gap: 0.5 0.5\n", "line 10: unknown field 'gap'"),
            (HMM_TEXT + "transitions: 0.5 0.5\n", "line 10: unknown field 'transitions'"),
            (HMM_TEXT + "states s1: s0\n", "line 10: unknown field 'states s1'"),
            (HMM_TEXT + "transitions\ts1: 0.7 0.3\n",
             "line 10: unknown field 'transitions\\ts1'"),
            (PAIR_TEXT + "states: s0\n", "line 8: unknown field 'states'"),
            (HMM_TEXT.replace("states: s0 s1 s2", "states:"), "missing 'states:' line"),
            (HMM_TEXT.replace("alphabet: a b\n", ""), "missing 'alphabet:' line"),
            (PAIR_TEXT.replace("alphabet: A B", "alphabet:"), "missing 'alphabet:' line"),
            (PAIR_TEXT.replace("gap_open: 0.2\n", ""), "missing 'gap_open:' line"),
            (PAIR_TEXT.replace("gap_extend: 0.3\n", ""), "missing 'gap_extend:' line"),
            (PAIR_TEXT.replace("gap: 0.5 0.5\n", ""), "missing 'gap:' line"),
            (HMM_TEXT.replace("transitions s1: 0.7 0.3\n", ""),
             "missing transition row for state 's1'"),
            (HMM_TEXT.replace("emissions s2: 0.2 0.8\n", "transitions s9: 0.5 0.5\n"),
             "missing emission row for state 's2'"),
            (PAIR_TEXT.replace("match B: 0.2 0.3\n", ""),
             "missing match row for symbol 'B'"),
            (HMM_TEXT + "transitions s9: 0.5 0.5\n",
             "transition row for unknown state 's9'"),
            (HMM_TEXT + "emissions s0: 0.5 0.5\n",
             "emission row for unknown or initial state 's0'"),
            (PAIR_TEXT + "match C: 0.5 0.5\n", "match row for unknown symbol 'C'"),
            (PAIR_TEXT.replace("gap_open: 0.2", "gap_open: 0.2 0.1"),
             "line 3: gap_open takes one number"),
            (PAIR_TEXT.replace("gap_extend: 0.3", "gap_extend:"),
             "line 4: gap_extend takes one number"),
            (PAIR_TEXT + "match A: 0.3 0.2\n", "line 8: duplicate match row for 'A'"),
            (HMM_TEXT.replace("transitions s1: 0.7 0.3", "transitions s1: 0.6 0.3"),
             "model validation failed: transition row for 's1' sums to "
             "0.8999999999999999, expected 1"),
            (PAIR_TEXT.replace("gap_open: 0.2", "gap_open: 0.7"),
             "model validation failed: gap_open 0.7 makes the match row negative "
             "(2*gap_open > 1)"),
            (PAIR_TEXT.replace("gap: 0.5 0.5", "gap:"),
             "model validation failed: gap emission row has 0 entries for 2 symbols"),
        ],
        ids=["empty", "unknown-kind", "no-colon", "duplicate-field", "hmm-not-a-number",
             "pair-not-a-number", "duplicate-transition-row", "duplicate-emission-row",
             "hmm-unknown-field", "row-label-without-key", "scalar-label-with-key",
             "row-label-tab-separated", "pair-unknown-field", "empty-states",
             "hmm-missing-alphabet", "pair-empty-alphabet", "missing-gap_open",
             "missing-gap_extend", "missing-gap", "missing-transition-row",
             "missing-before-unknown-row", "missing-match-row",
             "transition-row-unknown-state", "emission-row-initial-state",
             "match-row-unknown-symbol", "gap_open-two-numbers", "gap_extend-empty",
             "duplicate-match-row", "hmm-validation", "pair-validation",
             "empty-gap-is-present"],
    )
    def test_every_error_message(self, text, message):
        with pytest.raises(ModelParseError) as info:
            parse_model_text(text)
        assert str(info.value) == message

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelParseError, match="unknown model kind"):
            parse_model_text("markov\nstates: s0\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ModelParseError, match="empty"):
            parse_model_text("# nothing here\n")

    def test_parse_model_from_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(HMM_TEXT)
        assert parse_model(path) == HMM_A


class TestConstraintFile:
    def test_one_constraint_per_line_with_comments(self, tmp_path):
        path = tmp_path / "constraints.txt"
        path.write_text(
            "# limits\n"
            "state_specific(cardinality([insert,delete],4))\n"
            "\n"
            "for_range(1,50,lock_to_set([match]))\n"
        )
        specs = parse_constraints(path)
        assert len(specs) == 2
        assert isinstance(specs[0], StateSpecific)
        assert specs[1] == ForRange(1, 50, LockToSet(("match",)))

    def test_error_names_the_line(self):
        with pytest.raises(ConstraintSyntaxError, match="line 2"):
            parse_constraints_text("alldiff\ncardinality([x)\n")


class TestFasta:
    def test_reads_first_record_with_wrapping(self, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">seq1 description\nHGKK\ngaaqv\n>seq2\nKGPK\n")
        records = read_fasta(path)
        assert records[0] == ("seq1 description", "HGKKGAAQV")
        assert records[1] == ("seq2", "KGPK")

    def test_data_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n>seq\nACGT\n")
        with pytest.raises(ValueError, match="before the first '>'"):
            read_fasta(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fa"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no FASTA records"):
            read_fasta(path)


class TestInputSizeLimit:
    @pytest.mark.parametrize(
        "read, text",
        [(parse_model, HMM_TEXT), (parse_constraints, "alldiff\n"), (read_fasta, ">s\nACGT\n")],
        ids=["model", "constraints", "fasta"],
    )
    def test_one_character_over_the_cap_rejected(self, read, text, tmp_path, monkeypatch):
        path = tmp_path / "input.txt"
        path.write_text(text)
        monkeypatch.setattr(modelio, "MAX_INPUT_CHARS", len(text))
        read(path)
        monkeypatch.setattr(modelio, "MAX_INPUT_CHARS", len(text) - 1)
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: more than {len(text) - 1} characters"
