"""Seeded random generation of small decoding instances, and the self-check
that compares the table decoder against brute-force enumeration on them.

Everything here is deterministic given the seed, so a failing instance can be
reproduced from its fixture dump alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .constraints import (
    AllDiff,
    Cardinality,
    ConstraintSpec,
    ForRange,
    ForallSubseq,
    LockToSequence,
    LockToSet,
    StateSpecific,
    StateUpdate,
    UpdatePattern,
    declarative_satisfies,
    format_constraint,
)
from .decoder import Chmm, brute_force_constrained, constrained_viterbi
from .hmm import Hmm, Run, run_log_probability
from .modelio import format_model
from .pairhmm import PairHmmParams

LOG_TOL = 1e-9


def _random_row(rng: random.Random, width: int, zero_fraction: float) -> tuple[float, ...]:
    weights = [rng.random() for _ in range(width)]
    for i in range(width):
        if rng.random() < zero_fraction:
            weights[i] = 0.0
    if not any(weights):
        weights[rng.randrange(width)] = rng.random() + 0.1
    # fsum rounds once on every interpreter; sum is compensated from 3.12 only.
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def random_hmm(rng: random.Random, zero_fraction: float = 0.25) -> Hmm:
    """A small random model of 1-3 emitting states over 1-3 symbols; some
    entries are zeroed to exercise structurally absent edges."""
    m = rng.randint(1, 3)
    k = rng.randint(1, 3)
    states = ("s0",) + tuple(f"s{i}" for i in range(1, m + 1))
    alphabet = tuple("abc"[:k])
    transitions = tuple(_random_row(rng, m, zero_fraction) for _ in range(m + 1))
    emissions = tuple(_random_row(rng, k, zero_fraction) for _ in range(m))
    return Hmm(states, alphabet, transitions, emissions)


def random_observation(rng: random.Random, hmm: Hmm, max_len: int = 8) -> tuple[str, ...]:
    n = rng.randint(0, max_len)
    return tuple(rng.choice(hmm.alphabet) for _ in range(n))


def random_pattern(
    rng: random.Random, states: Sequence[str], symbols: Sequence[str], emit_arity: int = 1
) -> UpdatePattern:
    state = None if rng.random() < 0.2 else rng.choice(list(states))
    if rng.random() < 0.5:
        emitted = None
    else:
        emitted = tuple(rng.choice(list(symbols)) for _ in range(emit_arity))
    if state is None and emitted is None:
        state = rng.choice(list(states))
    return UpdatePattern(state, emitted)


def random_spec(
    rng: random.Random,
    states: Sequence[str],
    symbols: Sequence[str],
    n: int,
    depth: int = 2,
    emit_arity: int = 1,
) -> ConstraintSpec:
    """Draw one constraint from all seven forms, nesting combinators up to
    ``depth`` levels."""
    forms = ["cardinality", "alldiff", "lock_to_sequence", "lock_to_set"]
    if depth > 0:
        forms += ["for_range", "forall_subseq", "state_specific"]
    form = rng.choice(forms)
    if form == "cardinality":
        pats = tuple(
            random_pattern(rng, states, symbols, emit_arity)
            for _ in range(rng.randint(1, 2))
        )
        return Cardinality(pats, rng.randint(0, 3))
    if form == "alldiff":
        return AllDiff()
    if form == "lock_to_sequence":
        length = rng.randint(0, n + 1)
        return LockToSequence(
            tuple(random_pattern(rng, states, symbols, emit_arity) for _ in range(length))
        )
    if form == "lock_to_set":
        pats = tuple(
            random_pattern(rng, states, symbols, emit_arity)
            for _ in range(rng.randint(1, 3))
        )
        return LockToSet(pats)
    child = random_spec(rng, states, symbols, n, depth - 1, emit_arity)
    if form == "for_range":
        first = rng.randint(1, max(n, 1))
        last = rng.randint(first, max(n, 1) + 1)
        return ForRange(first, last, child)
    if form == "forall_subseq":
        return ForallSubseq(rng.randint(1, 4), child)
    return StateSpecific(child)


def random_constraint_set(
    rng: random.Random,
    states: Sequence[str],
    symbols: Sequence[str],
    n: int,
    emit_arity: int = 1,
) -> tuple[ConstraintSpec, ...]:
    """Zero to two constraints from ``random_spec``."""
    return tuple(
        random_spec(rng, states, symbols, n, emit_arity=emit_arity)
        for _ in range(rng.randint(0, 2))
    )


def random_chmm_instance(rng: random.Random, max_len: int = 8) -> tuple[Chmm, tuple[str, ...]]:
    hmm = random_hmm(rng)
    obs = random_observation(rng, hmm, max_len)
    constraints = random_constraint_set(rng, hmm.states[1:], hmm.alphabet, len(obs))
    return Chmm(hmm, constraints), obs


def random_update_sequence(
    rng: random.Random, states: Sequence[str], symbols: Sequence[str], max_len: int = 12
) -> list[StateUpdate]:
    return [
        StateUpdate(rng.choice(list(states)), (rng.choice(list(symbols)),))
        for _ in range(rng.randint(0, max_len))
    ]


def random_pair_params(rng: random.Random) -> PairHmmParams:
    """Random valid parameters over 2-4 symbols."""
    k = rng.randint(2, 4)
    alphabet = tuple("abcd"[:k])
    match_flat = _random_row(rng, k * k, zero_fraction=0.1)
    return PairHmmParams(
        alphabet=alphabet,
        gap_open=rng.uniform(0.0, 0.45),
        gap_extend=rng.uniform(0.0, 0.9),
        match_emission=tuple(match_flat[i * k : (i + 1) * k] for i in range(k)),
        gap_emission=_random_row(rng, k, zero_fraction=0.1),
    )


@dataclass
class OracleReport:
    """Outcome of a decode-vs-enumeration sweep."""

    total: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _fixture_dump(chmm: Chmm, obs, expected, got) -> str:
    lines = ["--- failing instance ---"]
    lines.append(format_model(chmm.hmm).rstrip())
    if chmm.constraints:
        lines.append("constraints:")
        lines.extend("  " + format_constraint(c) for c in chmm.constraints)
    else:
        lines.append("constraints: (none)")
    lines.append("observation: " + (" ".join(obs) if obs else "(empty)"))
    lines.append(f"brute force: {expected!r}")
    lines.append(f"decoder:     {got!r}")
    return "\n".join(lines)


def check_one_instance(chmm: Chmm, obs: Sequence[str]) -> Optional[str]:
    """Compare ``constrained_viterbi`` against brute force on one instance.

    Returns ``None`` on agreement, otherwise a reproducible fixture dump.
    Agreement covers presence, log-probability within 1e-9, and that the
    decoded path is itself a valid constraint-satisfying run whose reported
    score is exact.
    """
    expected = brute_force_constrained(chmm, obs)
    got = constrained_viterbi(chmm, obs)
    if (expected is None) != (got is None):
        return _fixture_dump(chmm, obs, expected, got)
    if expected is None:
        return None
    path, lp = got
    if abs(lp - expected[1]) > LOG_TOL:
        return _fixture_dump(chmm, obs, expected, got)
    if run_log_probability(chmm.hmm, Run(path, tuple(obs))) != lp:
        return _fixture_dump(chmm, obs, expected, got)
    history = [StateUpdate(s, (e,)) for s, e in zip(path[1:], obs)]
    if not all(declarative_satisfies(c, history) for c in chmm.constraints):
        return _fixture_dump(chmm, obs, expected, got)
    return None


def oracle_check(seed: int, count: int) -> OracleReport:
    """Run ``count`` random instances of up to 8 observations through
    ``check_one_instance``."""
    if count < 0:
        raise ValueError(f"instance count must be non-negative, got {count}")
    rng = random.Random(seed)
    report = OracleReport()
    for _ in range(count):
        chmm, obs = random_chmm_instance(rng)
        report.total += 1
        failure = check_one_instance(chmm, obs)
        if failure is None:
            report.passed += 1
        else:
            report.failures.append(failure)
    return report
