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
from chmm.modelio import parse_constraints_text, parse_model_text

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
