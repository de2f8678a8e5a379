"""The benchmark's four workloads: seeded inputs, set-up, requests and checks.

Input generation is plain Python and never imports ``chmm``: it produces the
text of model, constraint and FASTA files plus a fixed-length menu of
requests. The library only ever sees those files, parsed by ``chmm.modelio``
during set-up. Every request of a run is drawn from the menu in order,
cycling, so one pass over the menu is a fixed amount of work whose exact
counters repeat byte for byte.

Menu shapes (lengths, budgets, constraint forms) do not depend on the seed;
only the symbols do. Lengths are evenly spaced and visited in golden-ratio
order, so any prefix of the menu has about the same mix of small and large
requests as a whole pass, which keeps time-bounded runs comparable across
seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 1
LOG_TOL = 1e-9
SABOTAGE_DELTA = 1e-6

DNA = ("A", "C", "G", "T")
HMM_STATES = ("s0",) + tuple(f"s{i}" for i in range(1, 7))
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(k: int, size: int) -> float:
    """Evenly spaced levels 0, 1/(size-1), ..., 1, visited in golden-ratio
    order: menu position k gets the rank of (k * golden) mod 1 among the
    first ``size`` such points. Every prefix of the menu then mixes small
    and large requests, and the costs have no large gaps."""
    if size < 2:
        return 0.0
    point = (k * _GOLDEN) % 1.0
    rank = sum(1 for j in range(size) if (j * _GOLDEN) % 1.0 < point)
    return rank / (size - 1)


def _sub_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _normalized(rng: random.Random, width: int) -> list[float]:
    weights = [0.2 + rng.random() for _ in range(width)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _floats(values) -> str:
    return " ".join(repr(v) for v in values)


def pair_model_text(rng: random.Random) -> str:
    """DNA pair HMM: matches 2.5-3.5x as likely as mismatches, all factors
    positive, so every monotone alignment has positive probability."""
    match_weight = 2.5 + rng.random()
    weights = [[match_weight if i == j else 1.0 for j in range(4)] for i in range(4)]
    total = math.fsum(w for row in weights for w in row)
    lines = [
        "pair",
        "alphabet: " + " ".join(DNA),
        f"gap_open: {0.08 + 0.04 * rng.random()!r}",
        f"gap_extend: {0.25 + 0.1 * rng.random()!r}",
    ]
    for sym, row in zip(DNA, weights):
        lines.append(f"match {sym}: " + _floats(w / total for w in row))
    lines.append("gap: " + _floats(_normalized(rng, 4)))
    return "\n".join(lines) + "\n"


def hmm_model_text(rng: random.Random) -> str:
    """Six emitting states over A C G T with every transition and emission
    positive, so satisfiability depends on the constraints alone."""
    m = len(HMM_STATES) - 1
    lines = ["hmm", "states: " + " ".join(HMM_STATES), "alphabet: " + " ".join(DNA)]
    for state in HMM_STATES:
        lines.append(f"transitions {state}: " + _floats(_normalized(rng, m)))
    for state in HMM_STATES[1:]:
        lines.append(f"emissions {state}: " + _floats(_normalized(rng, 4)))
    return "\n".join(lines) + "\n"


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(n))


def _homolog(rng: random.Random, x: str, indels: int) -> str:
    """x with 10% substitutions and ``indels`` single-symbol indel events at
    random places, alternately deletions and insertions, so an alignment with
    at most ``indels`` gap operations exists. An even ``indels`` keeps y as
    long as x, which keeps the table size, and so the cost, seed-independent."""
    y = [rng.choice(DNA) if rng.random() < 0.1 else c for c in x]
    for event in range(indels):
        pos = rng.randrange(len(y))
        if event % 2 == 0:
            del y[pos]
        else:
            y.insert(pos, rng.choice(DNA))
    return "".join(y)


def _fasta(records) -> str:
    return "".join(f">{name}\n{seq}\n" for name, seq in records)


# Constraint kinds for HMM decoding. Each takes (rng, observation) and returns
# (constraint lines, satisfiable). Every HMM factor is positive, so a kind is
# satisfiable exactly when some state sequence meets its constraints; the
# comments give the witness or the counting argument.


def _k_cardinality(rng, obs):
    return [f"cardinality([s1,s2],{len(obs) // 6})"], True  # avoid s1, s2


def _k_cardinality_pair(rng, obs):
    sym = rng.choice(DNA)
    return [
        f"cardinality([s1,s2],{len(obs) // 6})",
        f"cardinality([(s3,{sym})],3)",
    ], True  # use s4..s6 only


def _k_window_cardinality(rng, obs):
    return ["forall_subseq(4,cardinality([s1,s2],1))"], True  # avoid s1, s2


def _k_window_alldiff3(rng, obs):
    return ["forall_subseq(3,alldiff)"], True  # cycle s1 s2 s3


def _k_window_alldiff4(rng, obs):
    return ["forall_subseq(4,alldiff)"], True  # cycle s1 s2 s3 s4


def _k_range_set(rng, obs):
    n = len(obs)
    first, last = 1 + n // 4, max(1 + n // 4, n - n // 4)
    return [f"for_range({first},{last},lock_to_set([s1,s2,s3]))"], True


def _k_lock_sequence(rng, obs):
    pats = []
    for sym in obs:
        r = rng.random()
        if r < 0.3:
            pats.append("_")
        elif r < 0.5:
            pats.append(f"({rng.choice(HMM_STATES[1:])},{sym})")
        else:
            pats.append(rng.choice(HMM_STATES[1:]))
    return [f"lock_to_sequence([{','.join(pats)}])"], True  # patterns fit obs


def _k_state_cardinality(rng, obs):
    return [f"state_specific(cardinality([s4],{len(obs) // 8}))"], True


def _k_state_window_alldiff(rng, obs):
    return ["state_specific(forall_subseq(3,alldiff))"], True  # cycle 3 states


def _k_unsat(rng, obs):
    # Only s1 and s2 may be used, and together at most n - 6 times (at most
    # 0 times on short inputs): no path covers all n positions.
    bound = max(0, len(obs) // 2 - 3)
    return [
        "lock_to_set([s1,s2])",
        f"cardinality([s1],{bound})",
        f"cardinality([s2],{bound})",
    ], False


# (name, kind, low, high): observation length is spread over [low, high].
DECODE_KINDS = (
    ("cardinality", _k_cardinality, 40, 80),
    ("cardinality-pair", _k_cardinality_pair, 40, 64),
    ("window-cardinality", _k_window_cardinality, 40, 80),
    ("window-alldiff3", _k_window_alldiff3, 40, 80),
    ("window-alldiff4", _k_window_alldiff4, 40, 48),
    ("range-set", _k_range_set, 40, 80),
    ("lock-sequence", _k_lock_sequence, 40, 80),
    ("state-cardinality", _k_state_cardinality, 40, 80),
    ("state-window-alldiff", _k_state_window_alldiff, 40, 80),
    ("unsat", _k_unsat, 40, 80),
)

CLI_DECODE_KINDS = (
    _k_cardinality,
    _k_window_alldiff3,
    _k_range_set,
    _k_lock_sequence,
    _k_state_cardinality,
    _k_unsat,
)

SHORT_DECODE_LENGTH = 5


@dataclass
class Request:
    """One menu entry. ``args`` are workload-specific; ``expect_sat`` says
    whether a result exists by construction."""

    label: str
    args: tuple
    expect_sat: bool


@dataclass
class Inputs:
    files: dict[str, str]
    menu: list[Request]
    short: list[Request] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for req in self.menu + self.short:
            h.update(repr((req.label, req.args, req.expect_sat)).encode())
        return h.hexdigest()


def _budget_constraint(budget: int) -> str:
    return f"state_specific(cardinality([insert,delete],{budget}))\n"


def inputs_align_budget(seed: int) -> Inputs:
    rng = _sub_rng(seed, "align-budget")
    files = {
        "pair.model": pair_model_text(rng),
        "budget8.cons": _budget_constraint(8),
        "budget16.cons": _budget_constraint(16),
    }
    menu, records = [], []
    # Two budget-8 requests per budget-16 one: a 1:1 mix would put the
    # median latency in the gap between the two budgets' cost ranges.
    for k in range(24):
        budget = 16 if k % 3 == 2 else 8
        n = 48 + round(_spread(k, 24) * 32)
        x = _dna(rng, n)
        y = _homolog(rng, x, budget // 2)
        records += [(f"x{k}", x), (f"y{k}", y)]
        menu.append(Request(f"n{n}-L{budget}", (budget, k), True))
    files["pairs.fa"] = _fasta(records)
    return Inputs(files, menu)


def inputs_align_open(seed: int) -> Inputs:
    rng = _sub_rng(seed, "align-open")
    files = {"pair.model": pair_model_text(rng), "none.cons": "# no constraints\n"}
    menu, records = [], []
    for k in range(15):
        n = 100 + round(_spread(k, 15) * 60)
        x = _dna(rng, n)
        y = _homolog(rng, x, 2 + 2 * (k % 4))
        records += [(f"x{k}", x), (f"y{k}", y)]
        menu.append(Request(f"n{n}", (k,), True))
    files["pairs.fa"] = _fasta(records)
    return Inputs(files, menu)


def inputs_decode_mixed(seed: int) -> Inputs:
    rng = _sub_rng(seed, "decode-mixed")
    files = {"hmm.model": hmm_model_text(rng)}
    menu, short, records = [], [], []
    for k in range(2 * len(DECODE_KINDS)):
        name, kind, low, high = DECODE_KINDS[k % len(DECODE_KINDS)]
        n = low + round(_spread(k, 2 * len(DECODE_KINDS)) * (high - low))
        obs = "".join(rng.choice(DNA) for _ in range(n))
        lines, sat = kind(rng, obs)
        files[f"c{k}.cons"] = "\n".join(lines) + "\n"
        records.append((f"obs{k}", obs))
        menu.append(Request(f"{name}-n{n}", (f"c{k}.cons", k), sat))
    for name, kind, _low, _high in DECODE_KINDS:
        obs = "".join(rng.choice(DNA) for _ in range(SHORT_DECODE_LENGTH))
        lines, sat = kind(rng, obs)
        short.append(Request(f"short-{name}", (tuple(lines), obs), sat))
    files["obs.fa"] = _fasta(records)
    return Inputs(files, menu, short)


def inputs_cli_small(seed: int) -> Inputs:
    rng = _sub_rng(seed, "cli-small")
    files = {
        "hmm.model": hmm_model_text(rng),
        "pair.model": pair_model_text(rng),
        "budget4.cons": _budget_constraint(4),
    }
    menu = []
    for k in range(48):
        n = 8 + round(_spread(k, 48) * 8)
        if k % 2 == 0:
            obs = "".join(rng.choice(DNA) for _ in range(n))
            kind = CLI_DECODE_KINDS[(k // 2) % len(CLI_DECODE_KINDS)]
            lines, sat = kind(rng, obs)
            files[f"c{k}.cons"] = "\n".join(lines) + "\n"
            argv = ("decode", "--model", "hmm.model", "--constraints", f"c{k}.cons", "--obs", obs)
            menu.append(Request(f"decode-{kind.__name__[3:]}-n{n}", argv, sat))
        else:
            x = _dna(rng, n)
            # Every sixth align request drops 6 symbols from y: more gaps
            # than the budget of 4 allows, so it must exit with code 2.
            sat = (k // 2) % 6 != 5
            y = _homolog(rng, x, 2) if sat else x[: n - 6]
            files[f"x{k}.fa"] = _fasta([(f"x{k}", x)])
            files[f"y{k}.fa"] = _fasta([(f"y{k}", y)])
            argv = (
                "align", "--model", "pair.model", "--constraints", "budget4.cons",
                "--x", f"x{k}.fa", "--y", f"y{k}.fa",
            )
            menu.append(Request(f"align-n{n}", argv, sat))
    return Inputs(files, menu)


# ---------------------------------------------------------------------------
# Set-up, requests and checks. ``lib`` is the freshly imported ``chmm``
# package; every call into it goes through a module attribute looked up at
# call time (``lib.pairhmm.align``), so the tracer can wrap it.


def write_files(inputs: Inputs, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text)


class Workload:
    name = ""

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self._bounds: dict[int, Optional[float]] = {}

    def setup(self, lib) -> None:
        raise NotImplementedError

    def call(self, lib, index: int):
        raise NotImplementedError

    def check(self, lib, index: int, result, expected, sabotage: bool) -> Optional[str]:
        raise NotImplementedError

    def score(self, result) -> Optional[float]:
        """The optimal log-probability a result reports, or None."""
        raise NotImplementedError

    def extra_checks(self, lib, sabotage: bool) -> list[Optional[str]]:
        """Checks beyond the timed requests, one entry (an error or None) per
        attempted instance."""
        return []

    def plain_pairs(self, lib):
        """(model, params, x, y) per menu entry, for the align/align_plain
        overhead ratio; empty for workloads without alignment requests."""
        return []

    def path(self, name: str) -> str:
        return str(self.workdir / name)


# Stands for "no committed table for this seed" in the checks below.
NO_TABLE = object()


def _score_error(reported: float, recomputed: float, what: str) -> Optional[str]:
    if not abs(reported - recomputed) <= LOG_TOL:
        return f"reported {reported!r} but {what} gives {recomputed!r}"
    return None


def _expected_error(reported: Optional[float], expected) -> Optional[str]:
    if expected is NO_TABLE:
        return None
    if (reported is None) != (expected is None):
        return f"expected {expected!r} from the committed table, got {reported!r}"
    if reported is not None and not abs(reported - expected) <= LOG_TOL:
        return f"expected optimum {expected!r} from the committed table, got {reported!r}"
    return None


class _AlignLibrary(Workload):
    """Shared by the two library alignment workloads."""

    def _load_pairs(self, lib):
        records = lib.modelio.read_fasta(self.path("pairs.fa"))
        self.seqs = {name: tuple(seq) for name, seq in records}
        self.params = lib.modelio.parse_model(self.path("pair.model"))

    def _pair(self, k: int):
        return self.seqs[f"x{k}"], self.seqs[f"y{k}"]

    def score(self, result):
        return None if result is None else result.log_prob

    def _plain_bound(self, lib, index: int, x, y) -> float:
        if index not in self._bounds:
            self._bounds[index] = lib.pairhmm.align_plain(self.params, x, y).log_prob
        return self._bounds[index]

    def _check_alignment(self, lib, model, index, x, y, result, expected, sabotage, exact):
        if result is None:
            return "no alignment returned, but one exists by construction"
        reported = result.log_prob + (SABOTAGE_DELTA if sabotage else 0.0)
        # alignment_log_probability re-scores the operations and returns
        # -inf if the declared constraints reject the history.
        rescored = lib.pairhmm.alignment_log_probability(model, x, y, result)
        err = _score_error(reported, rescored, "alignment_log_probability")
        if err:
            return err
        plain = self._plain_bound(lib, index, x, y)
        if exact:
            err = _score_error(reported, plain, "align_plain")
        elif reported > plain + LOG_TOL:
            err = f"reported {reported!r} beats the unconstrained optimum {plain!r}"
        return err or _expected_error(reported, expected)


class AlignBudget(_AlignLibrary):
    name = "align-budget"

    def setup(self, lib):
        self._load_pairs(lib)
        self.models = {}
        for budget in (8, 16):
            specs = lib.modelio.parse_constraints(self.path(f"budget{budget}.cons"))
            self.models[budget] = lib.pairhmm.build_pair_chmm(self.params, specs)

    def call(self, lib, index):
        budget, k = self.inputs.menu[index].args
        x, y = self._pair(k)
        return lib.pairhmm.align(self.models[budget], x, y)

    def check(self, lib, index, result, expected, sabotage):
        budget, k = self.inputs.menu[index].args
        x, y = self._pair(k)
        return self._check_alignment(
            lib, self.models[budget], index, x, y, result, expected, sabotage, exact=False
        )

    def plain_pairs(self, lib):
        return [
            (self.models[req.args[0]], self.params) + self._pair(req.args[1])
            for req in self.inputs.menu
        ]


class AlignOpen(_AlignLibrary):
    name = "align-open"

    def setup(self, lib):
        self._load_pairs(lib)
        specs = lib.modelio.parse_constraints(self.path("none.cons"))
        self.model = lib.pairhmm.build_pair_chmm(self.params, specs)

    def call(self, lib, index):
        x, y = self._pair(self.inputs.menu[index].args[0])
        return lib.pairhmm.align(self.model, x, y)

    def check(self, lib, index, result, expected, sabotage):
        x, y = self._pair(self.inputs.menu[index].args[0])
        return self._check_alignment(
            lib, self.model, index, x, y, result, expected, sabotage, exact=True
        )

    def plain_pairs(self, lib):
        return [(self.model, self.params) + self._pair(req.args[0]) for req in self.inputs.menu]


def _check_decode(lib, hmm, specs, obs, result, expect_sat, bound, expected, sabotage):
    if result is None:
        if expect_sat:
            return "no path returned, but one exists by construction"
        return _expected_error(None, expected)
    if not expect_sat:
        return f"returned a path for an unsatisfiable instance: {result!r}"
    path, lp = result
    reported = lp + (SABOTAGE_DELTA if sabotage else 0.0)
    obs = tuple(obs)
    rescored = lib.hmm.run_log_probability(hmm, lib.hmm.Run(tuple(path), obs))
    err = _score_error(reported, rescored, "run_log_probability")
    if err:
        return err
    history = [lib.constraints.StateUpdate(s, (e,)) for s, e in zip(path[1:], obs)]
    for spec in specs:
        if not lib.constraints.declarative_satisfies(spec, history):
            return f"path violates {lib.constraints.format_constraint(spec)}"
    if reported > bound + LOG_TOL:
        return f"reported {reported!r} beats the unconstrained Viterbi optimum {bound!r}"
    return _expected_error(reported, expected)


class DecodeMixed(Workload):
    name = "decode-mixed"

    def setup(self, lib):
        self.hmm = lib.modelio.parse_model(self.path("hmm.model"))
        self.obs = {name: tuple(seq) for name, seq in lib.modelio.read_fasta(self.path("obs.fa"))}
        self.models = {}
        for req in self.inputs.menu:
            cons, _k = req.args
            specs = lib.modelio.parse_constraints(self.path(cons))
            self.models[cons] = lib.decoder.Chmm(self.hmm, specs)

    def call(self, lib, index):
        cons, k = self.inputs.menu[index].args
        return lib.decoder.constrained_viterbi(self.models[cons], self.obs[f"obs{k}"])

    def check(self, lib, index, result, expected, sabotage):
        req = self.inputs.menu[index]
        cons, k = req.args
        obs = self.obs[f"obs{k}"]
        if index not in self._bounds:
            self._bounds[index] = lib.hmm.viterbi(self.hmm, obs)[1]
        return _check_decode(
            lib, self.hmm, self.models[cons].constraints, obs, result,
            req.expect_sat, self._bounds[index], expected, sabotage,
        )

    def score(self, result):
        return None if result is None else result[1]

    def extra_checks(self, lib, sabotage):
        """Short instances of every constraint kind, decoded and compared
        with brute-force enumeration."""
        errors = []
        for req in self.inputs.short:
            lines, obs = req.args
            chmm = lib.decoder.Chmm(self.hmm, tuple(lib.constraints.parse_constraint(t) for t in lines))
            truth = lib.decoder.brute_force_constrained(chmm, obs)
            got = lib.decoder.constrained_viterbi(chmm, obs)
            if (truth is None) != (got is None) or (truth is None) == req.expect_sat:
                errors.append(f"{req.label}: brute force {truth!r}, decoder {got!r}")
                continue
            if got is None:
                errors.append(None)
                continue
            err = _score_error(
                got[1] + (SABOTAGE_DELTA if sabotage else 0.0), truth[1], "brute_force_constrained"
            )
            errors.append(f"{req.label}: {err}" if err else None)
        return errors


def _parse_field(stdout: str, label: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith(label + ": "):
            return line[len(label) + 2 :]
    return None


class CliSmall(Workload):
    name = "cli-small"

    def setup(self, lib):
        # The CLI parses the files itself on every request; these parsed
        # copies serve only the output checks.
        self.hmm = lib.modelio.parse_model(self.path("hmm.model"))
        self.params = lib.modelio.parse_model(self.path("pair.model"))
        self.specs = {
            name: tuple(lib.modelio.parse_constraints(self.path(name)))
            for name in self.inputs.files
            if name.endswith(".cons")
        }
        self.seqs = {
            name: tuple(lib.modelio.read_fasta(self.path(name))[0][1])
            for name in self.inputs.files
            if name.endswith(".fa")
        }
        self.argvs = [self._argv(req) for req in self.inputs.menu]

    def _argv(self, req: Request) -> list[str]:
        out = list(req.args)
        for flag in ("--model", "--constraints", "--x", "--y"):
            if flag in out:
                i = out.index(flag) + 1
                out[i] = self.path(out[i])
        return out

    def call(self, lib, index):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = lib.cli.main(self.argvs[index])
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, lib, index, result, expected, sabotage):
        req = self.inputs.menu[index]
        code, stdout, stderr = result
        want = 0 if req.expect_sat else 2
        if code != want:
            return f"exit code {code}, expected {want}; stderr {stderr.strip()!r}"
        args = dict(zip(req.args[1::2], req.args[2::2]))
        specs = self.specs[args["--constraints"]]
        if req.args[0] == "decode":
            obs = tuple(args["--obs"])
            if index not in self._bounds:
                self._bounds[index] = lib.hmm.viterbi(self.hmm, obs)[1]
            result = None
            if code == 0:
                result = (tuple(_parse_field(stdout, "path").split()),
                          float(_parse_field(stdout, "log-probability")))
            return _check_decode(
                lib, self.hmm, specs, obs, result, req.expect_sat,
                self._bounds[index], expected, sabotage,
            )
        x, y = self.seqs[args["--x"]], self.seqs[args["--y"]]
        if code == 2:
            return _expected_error(None, expected)
        lp = float(_parse_field(stdout, "log-probability"))
        reported = lp + (SABOTAGE_DELTA if sabotage else 0.0)
        ops = lib.pairhmm.ops_from_letters(_parse_field(stdout, "alignment"))
        model = lib.pairhmm.PairChmm(self.params, specs)
        rescored = lib.pairhmm.alignment_log_probability(
            model, x, y, lib.pairhmm.Alignment(ops, lp)
        )
        err = _score_error(reported, rescored, "alignment_log_probability")
        if err:
            return err
        if index not in self._bounds:
            self._bounds[index] = lib.pairhmm.align_plain(self.params, x, y).log_prob
        if reported > self._bounds[index] + LOG_TOL:
            return f"reported {reported!r} beats the unconstrained optimum {self._bounds[index]!r}"
        return _expected_error(reported, expected)

    def score(self, result):
        code, stdout, _stderr = result
        return None if code == 2 else float(_parse_field(stdout, "log-probability"))

    def plain_pairs(self, lib):
        pairs = []
        for req in self.inputs.menu:
            if req.args[0] == "align" and req.expect_sat:
                args = dict(zip(req.args[1::2], req.args[2::2]))
                model = lib.pairhmm.PairChmm(self.params, self.specs[args["--constraints"]])
                pairs.append((model, self.params, self.seqs[args["--x"]], self.seqs[args["--y"]]))
        return pairs


WORKLOADS = {
    "align-budget": (inputs_align_budget, AlignBudget),
    "align-open": (inputs_align_open, AlignOpen),
    "decode-mixed": (inputs_decode_mixed, DecodeMixed),
    "cli-small": (inputs_cli_small, CliSmall),
}
