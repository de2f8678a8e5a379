import math
import os
from pathlib import Path

import pytest

from chmm import constrained_viterbi, format_model, parse_model, uniform_pair_params
from chmm import random_instances
from chmm.cli import EXIT_ERROR, EXIT_NO_PATH, EXIT_OK, main
from chmm.modelio import MAX_INPUT_CHARS

from conftest import HMM_A

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(format_model(HMM_A))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(format_model(uniform_pair_params(("A", "B", "C"), 0.2, 0.2)))
    return str(path)


def fasta(tmp_path, name, seq):
    path = tmp_path / name
    path.write_text(f">{name}\n{seq}\n")
    return str(path)


class TestDecode:
    def test_best_path_printed(self, model_file, capsys):
        code = main(["decode", "--model", model_file, "--obs", "a"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "path: s0 s1" in out
        assert repr(math.log(0.54))[:12] in out
        raw = next(l for l in out.splitlines() if l.startswith("probability: "))
        assert float(raw.removeprefix("probability: ")) == pytest.approx(0.54)

    def test_multi_symbol_observation_as_characters(self, model_file, capsys):
        code = main(["decode", "--model", model_file, "--obs", "bb"])
        assert code == EXIT_OK
        assert "path: s0 s2 s2" in capsys.readouterr().out

    def test_constraints_change_the_path(self, model_file, tmp_path, capsys):
        cons = tmp_path / "cons.txt"
        cons.write_text("state_specific(cardinality([s1],0))\n")
        code = main(
            ["decode", "--model", model_file, "--constraints", str(cons), "--obs", "b"]
        )
        assert code == EXIT_OK
        assert "path: s0 s2" in capsys.readouterr().out

    def test_unsatisfiable_gets_distinct_exit(self, model_file, tmp_path, capsys):
        cons = tmp_path / "cons.txt"
        cons.write_text(
            "state_specific(cardinality([s1],0))\nstate_specific(cardinality([s2],0))\n"
        )
        code = main(
            ["decode", "--model", model_file, "--constraints", str(cons), "--obs", "a"]
        )
        assert code == EXIT_NO_PATH
        assert "no satisfying path" in capsys.readouterr().out

    def test_malformed_model_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("hmm\nstates: s0 s1\nalphabet: a\ntransitions s0: 0.9\n")
        code = main(["decode", "--model", str(bad), "--obs", "a"])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_constraint_is_an_input_error(self, model_file, tmp_path, capsys):
        cons = tmp_path / "cons.txt"
        cons.write_text("state_specific(" * 3000 + "alldiff" + ")" * 3000 + "\n")
        code = main(
            ["decode", "--model", model_file, "--constraints", str(cons), "--obs", "a"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: line 1: constraint nests deeper than 64 levels\n"

    def test_invalid_constraint_reports_its_line(self, model_file, tmp_path, capsys):
        cons = tmp_path / "cons.txt"
        cons.write_text("alldiff\nfor_range(5,2,alldiff)\n")
        code = main(
            ["decode", "--model", model_file, "--constraints", str(cons), "--obs", "a"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: line 2: for_range requires 1 <= first <= last, got (5, 2)\n"

    def test_missing_model_file(self, capsys):
        code = main(["decode", "--model", "/nonexistent", "--obs", "a"])
        assert code == EXIT_ERROR

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_model_file_is_an_input_error(self, capsys):
        code = main(["decode", "--model", "/dev/zero", "--obs", "a"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == f"error: /dev/zero: more than {MAX_INPUT_CHARS} characters\n"

    def test_unknown_observation_symbol(self, model_file, capsys):
        code = main(["decode", "--model", model_file, "--obs", "q"])
        assert code == EXIT_ERROR
        assert "unknown symbol" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["decode"]) == EXIT_ERROR
        assert main(["no-such-command"]) == EXIT_ERROR

    def test_pair_model_rejected_for_decode(self, pair_file, capsys):
        code = main(["decode", "--model", pair_file, "--obs", "A"])
        assert code == EXIT_ERROR
        assert "kind 'hmm'" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK


class TestAlign:
    def test_single_match(self, pair_file, tmp_path, capsys):
        code = main(
            [
                "align",
                "--model", pair_file,
                "--x", fasta(tmp_path, "x.fa", "A"),
                "--y", fasta(tmp_path, "y.fa", "A"),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "x: A" in out
        assert "y: A" in out
        assert "alignment: b m" in out
        assert "log-probability:" in out

    def test_gapped_output(self, pair_file, tmp_path, capsys):
        code = main(
            [
                "align",
                "--model", pair_file,
                "--x", fasta(tmp_path, "x.fa", "ABC"),
                "--y", fasta(tmp_path, "y.fa", "AC"),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        gx = lines[0].removeprefix("x: ")
        gy = lines[1].removeprefix("y: ")
        assert len(gx) == len(gy)
        assert gx.replace("-", "") == "ABC"
        assert gy.replace("-", "") == "AC"

    def test_zero_budget_unequal_lengths(self, pair_file, tmp_path, capsys):
        cons = tmp_path / "cons.txt"
        cons.write_text("state_specific(cardinality([insert,delete],0))\n")
        code = main(
            [
                "align",
                "--model", pair_file,
                "--constraints", str(cons),
                "--x", fasta(tmp_path, "x.fa", "AB"),
                "--y", fasta(tmp_path, "y.fa", "A"),
            ]
        )
        assert code == EXIT_NO_PATH
        assert "no satisfying alignment" in capsys.readouterr().out

    def test_alphabet_mismatch_is_an_input_error(self, pair_file, tmp_path, capsys):
        code = main(
            [
                "align",
                "--model", pair_file,
                "--x", fasta(tmp_path, "x.fa", "AXB"),
                "--y", fasta(tmp_path, "y.fa", "AB"),
            ]
        )
        assert code == EXIT_ERROR
        assert "unknown symbol" in capsys.readouterr().err

    def test_repeated_model_field_is_an_input_error(self, tmp_path, capsys):
        model = tmp_path / "pair.txt"
        text = format_model(uniform_pair_params(("A", "B", "C"), 0.2, 0.2))
        model.write_text(text.replace("gap_open: 0.2\n", "gap_open: 0.2\ngap_open: 0.1\n"))
        code = main(
            [
                "align",
                "--model", str(model),
                "--x", fasta(tmp_path, "x.fa", "A"),
                "--y", fasta(tmp_path, "y.fa", "A"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: line 4: duplicate field 'gap_open'\n"

    @pytest.mark.parametrize(
        "x_text, y_text, bad, message",
        [
            (">x\nAB\n", "\n", "y", "no FASTA records found"),
            ("AB\n>x\nAB\n", ">y\nAB\n", "x", "line 1: sequence data before the first '>' header"),
        ],
        ids=["empty-y", "headless-x"],
    )
    def test_fasta_error_names_its_file(
        self, pair_file, tmp_path, capsys, x_text, y_text, bad, message
    ):
        (tmp_path / "x.fa").write_text(x_text)
        (tmp_path / "y.fa").write_text(y_text)
        path = {"x": tmp_path / "x.fa", "y": tmp_path / "y.fa"}
        code = main(
            ["align", "--model", pair_file, "--x", str(path["x"]), "--y", str(path["y"])]
        )
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: {path[bad]}: {message}\n"

    def test_hmm_model_rejected_for_align(self, model_file, tmp_path, capsys):
        code = main(
            [
                "align",
                "--model", model_file,
                "--x", fasta(tmp_path, "x.fa", "A"),
                "--y", fasta(tmp_path, "y.fa", "A"),
            ]
        )
        assert code == EXIT_ERROR


class TestOracleCheck:
    def test_small_sweep_passes(self, capsys):
        code = main(["oracle-check", "--seed", "42", "--count", "25"])
        assert code == EXIT_OK
        assert "25/25 instances agree" in capsys.readouterr().out

    def test_zero_instances_vacuously_pass(self, capsys):
        code = main(["oracle-check", "--count", "0"])
        assert code == EXIT_OK
        assert "0/0" in capsys.readouterr().out

    def test_negative_count_is_an_input_error(self, capsys):
        code = main(["oracle-check", "--count", "-5"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: instance count must be non-negative, got -5\n"

    def test_sabotaged_decoder_is_caught(self, capsys, monkeypatch):
        # Negative control for the oracle harness: a decoder that is subtly off.
        def sabotaged(chmm, obs):
            result = constrained_viterbi(chmm, obs)
            return result and (result[0], result[1] + 1e-6)

        monkeypatch.setattr(random_instances, "constrained_viterbi", sabotaged)
        code = main(["oracle-check", "--seed", "42", "--count", "25"])
        out = capsys.readouterr().out
        assert code == EXIT_ERROR
        assert "failing instance" in out
        assert "observation:" in out


class TestBench:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["bench", "--experiment", "prune-ablation", "--reps", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("experiment,variant,size,rep,wall_ms")
        assert len(lines) > 1

    def test_unknown_experiment(self, capsys):
        code = main(["bench", "--experiment", "warp-drive"])
        assert code == EXIT_ERROR
        assert "unknown experiment" in capsys.readouterr().err


class TestExamples:
    def test_example_models_are_as_format_model_writes_them(self):
        for name in ("hmm.txt", "pair.txt"):
            path = EXAMPLES / name
            assert path.read_text() == format_model(parse_model(path))

    def test_decode_and_align_the_examples(self, capsys):
        names = ("hmm.txt", "pair.txt", "indels.txt", "x.fa", "y.fa")
        ex = {name: str(EXAMPLES / name) for name in names}
        assert main(["decode", "--model", ex["hmm.txt"], "--obs", "abba"]) == EXIT_OK
        code = main(["align", "--model", ex["pair.txt"], "--constraints", ex["indels.txt"],
                     "--x", ex["x.fa"], "--y", ex["y.fa"]])
        assert code == EXIT_OK
