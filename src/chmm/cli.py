"""Command-line interface.

Subcommands: ``decode`` (constrained Viterbi over a plain HMM), ``align``
(constrained pair-HMM global alignment of two FASTA sequences),
``oracle-check`` (random decode-vs-enumeration self-check) and ``bench``
(timing experiments as CSV).

Exit statuses: 0 success, 1 usage or input error, 2 no satisfying
path/alignment exists.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import bench
from .constraints import ConstraintSyntaxError
from .decoder import Chmm, constrained_viterbi
from .hmm import Hmm, Run, run_log_probability
from .modelio import ModelParseError, parse_constraints, parse_model, read_fasta
from .pairhmm import PairHmmParams, align, build_pair_chmm, gapped_strings
from .random_instances import oracle_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PATH = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chmm",
        description="Viterbi decoding and pairwise alignment for HMMs with side-constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="most probable constrained path for an observation")
    p.add_argument("--model", required=True, help="model file (kind 'hmm')")
    p.add_argument("--constraints", help="constraint declaration file")
    p.add_argument(
        "--obs",
        required=True,
        help="observation: whitespace-separated symbols, or one run of single-character symbols",
    )

    p = sub.add_parser("align", help="constrained global alignment of two sequences")
    p.add_argument("--model", required=True, help="model file (kind 'pair')")
    p.add_argument("--constraints", help="constraint declaration file")
    p.add_argument("--x", required=True, dest="fasta_x", help="FASTA file for sequence x")
    p.add_argument("--y", required=True, dest="fasta_y", help="FASTA file for sequence y")

    p = sub.add_parser("oracle-check", help="compare the decoder against brute force")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100)

    p = sub.add_parser("bench", help="run a timing experiment and write CSV")
    p.add_argument("--experiment", required=True, help="one of: " + ", ".join(bench.EXPERIMENTS))
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    p.add_argument("--reps", type=int, default=bench.DEFAULT_REPS)
    return parser


def _load_constraints(path: Optional[str]):
    if path is None:
        return ()
    return tuple(parse_constraints(path))


def _parse_observation(text: str, hmm: Hmm) -> tuple[str, ...]:
    tokens = tuple(text.split())
    if not tokens:
        return ()
    known = set(hmm.alphabet)
    if all(t in known for t in tokens):
        return tokens
    if len(tokens) == 1 and all(ch in known for ch in tokens[0]):
        return tuple(tokens[0])
    bad = next(t for t in tokens if t not in known)
    raise ValueError(f"unknown symbol {bad!r} in observation")


def cmd_decode(args) -> int:
    model = parse_model(args.model)
    if not isinstance(model, Hmm):
        raise ValueError("decode needs a model of kind 'hmm', got a pair model")
    constraints = _load_constraints(args.constraints)
    obs = _parse_observation(args.obs, model)
    result = constrained_viterbi(Chmm(model, constraints), obs)
    if result is None:
        print("no satisfying path")
        return EXIT_NO_PATH
    path, log_prob = result
    recomputed = run_log_probability(model, Run(path, obs))
    if recomputed != log_prob:
        raise AssertionError(
            f"internal check failed: reported {log_prob!r}, recomputed {recomputed!r}"
        )
    print("path: " + " ".join(path))
    print(f"log-probability: {log_prob!r}")
    raw = math.exp(log_prob)
    if raw > 0.0:
        print(f"probability: {raw!r}")
    return EXIT_OK


def _first_record(path: str) -> str:
    records = read_fasta(path)
    return records[0][1]


def cmd_align(args) -> int:
    model = parse_model(args.model)
    if not isinstance(model, PairHmmParams):
        raise ValueError("align needs a model of kind 'pair', got an hmm model")
    constraints = _load_constraints(args.constraints)
    x = tuple(_first_record(args.fasta_x))
    y = tuple(_first_record(args.fasta_y))
    pair = build_pair_chmm(model, constraints)
    result = align(pair, x, y)
    if result is None:
        print("no satisfying alignment")
        return EXIT_NO_PATH
    gx, gy = gapped_strings(x, y, result)
    print("x: " + gx)
    print("y: " + gy)
    print("alignment: " + " ".join(result.state_string))
    print(f"log-probability: {result.log_prob!r}")
    raw = math.exp(result.log_prob)
    if raw > 0.0:
        print(f"probability: {raw!r}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    report = oracle_check(args.seed, args.count)
    print(f"{report.passed}/{report.total} instances agree with brute force")
    if report.ok:
        return EXIT_OK
    for failure in report.failures:
        print(failure)
    return EXIT_ERROR


def cmd_bench(args) -> int:
    rows = bench.run_experiment(args.experiment, seed=args.seed, reps=args.reps)
    csv_text = bench.to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(csv_text, end="")
    return EXIT_OK


_COMMANDS = {
    "decode": cmd_decode,
    "align": cmd_align,
    "oracle-check": cmd_oracle_check,
    "bench": cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ModelParseError, ConstraintSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
