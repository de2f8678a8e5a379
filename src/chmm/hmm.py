"""Discrete hidden Markov models with a silent initial state.

The initial state is ``states[0]``; it emits nothing and nothing transitions
back into it, so transition rows cover every state while transition columns
and emission rows cover only the emitting states ``states[1:]``. All
probability arithmetic is done in log space; a zero probability is treated as
a structurally absent edge rather than as ``log(0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

ROW_SUM_TOL = 1e-9

NEG_INF = float("-inf")


def _as_rows(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(p) for p in row) for row in rows)


@dataclass(frozen=True)
class Hmm:
    """A discrete HMM over named states and emission symbols.

    ``transitions[i][j-1]`` is the probability of moving from ``states[i]``
    to ``states[j]`` (j >= 1); ``emissions[j-1][k]`` is the probability that
    ``states[j]`` emits ``alphabet[k]``. Instances are immutable and safe to
    share between threads; well-formedness is checked by ``validate_model``,
    not by the constructor.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[float, ...], ...]
    emissions: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", _as_rows(self.transitions))
        object.__setattr__(self, "emissions", _as_rows(self.emissions))

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {e: k for k, e in enumerate(self.alphabet)}

    @property
    def initial_state(self) -> str:
        return self.states[0]


@dataclass(frozen=True)
class Run:
    """A state path paired with the symbols emitted along it.

    ``path`` has one more element than ``observation``: the leading silent
    initial state emits nothing.
    """

    path: tuple[str, ...]
    observation: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        object.__setattr__(self, "observation", tuple(self.observation))


def validate_model(hmm: Hmm) -> list[str]:
    """Check every model invariant; returns a list of violations (empty = ok).

    Violations are descriptive strings naming the offending row or entry.
    """
    problems: list[str] = []
    states, alphabet = hmm.states, hmm.alphabet
    if not states:
        return ["model has no states"]
    m = len(states) - 1
    k = len(alphabet)
    seen: set[str] = set()
    for s in states:
        if s in seen:
            problems.append(f"duplicate state identifier {s!r}")
        seen.add(s)
    seen = set()
    for e in alphabet:
        if e in seen:
            problems.append(f"duplicate emission symbol {e!r}")
        seen.add(e)

    if len(hmm.transitions) != m + 1:
        problems.append(
            f"expected {m + 1} transition rows (one per state), got {len(hmm.transitions)}"
        )
    for i, row in enumerate(hmm.transitions[: m + 1]):
        label = states[i]
        if len(row) == m + 1:
            problems.append(
                f"transition row for {label!r} has {m + 1} entries; transitions into "
                f"the initial state {states[0]!r} are not allowed (expected {m} columns)"
            )
            continue
        if len(row) != m:
            problems.append(
                f"transition row for {label!r} has {len(row)} entries, expected {m}"
            )
            continue
        for j, p in enumerate(row):
            if not 0.0 <= p <= 1.0:
                problems.append(
                    f"transition probability {p!r} from {label!r} to {states[j + 1]!r} "
                    f"is outside [0, 1]"
                )
        total = math.fsum(row)
        if abs(total - 1.0) > ROW_SUM_TOL:
            problems.append(f"transition row for {label!r} sums to {total!r}, expected 1")

    if len(hmm.emissions) != m:
        problems.append(
            f"expected {m} emission rows (one per emitting state), got {len(hmm.emissions)}"
        )
    for i, row in enumerate(hmm.emissions[:m]):
        label = states[i + 1]
        if len(row) != k:
            problems.append(
                f"emission row for {label!r} has {len(row)} entries, expected {k}"
            )
            continue
        for j, p in enumerate(row):
            if not 0.0 <= p <= 1.0:
                problems.append(
                    f"emission probability {p!r} of {alphabet[j]!r} from {label!r} "
                    f"is outside [0, 1]"
                )
        total = math.fsum(row)
        if abs(total - 1.0) > ROW_SUM_TOL:
            problems.append(f"emission row for {label!r} sums to {total!r}, expected 1")
    return problems


def _check_run_shape(hmm: Hmm, run: Run) -> None:
    if len(run.path) != len(run.observation) + 1:
        raise ValueError(
            f"path length {len(run.path)} does not match observation length "
            f"{len(run.observation)} + 1"
        )
    if not run.path or run.path[0] != hmm.initial_state:
        raise ValueError(f"path must start at the initial state {hmm.initial_state!r}")
    for s in run.path[1:]:
        if s not in hmm.state_index:
            raise ValueError(f"unknown state {s!r}")
        if hmm.state_index[s] == 0:
            raise ValueError("the initial state may only appear at the start of a path")
    for e in run.observation:
        if e not in hmm.symbol_index:
            raise ValueError(f"unknown symbol {e!r}")


def run_log_probability(hmm: Hmm, run: Run) -> float:
    """Log-probability of a run; -inf when any transition or emission is zero.

    The empty run (just the initial state) has probability 1, hence log 0.
    """
    _check_run_shape(hmm, run)
    total = 0.0
    prev = 0
    for step, state in enumerate(run.path[1:]):
        j = hmm.state_index[state]
        t = hmm.transitions[prev][j - 1]
        if t <= 0.0:
            return NEG_INF
        e = hmm.emissions[j - 1][hmm.symbol_index[run.observation[step]]]
        if e <= 0.0:
            return NEG_INF
        total += math.log(t)
        total += math.log(e)
        prev = j
    return total


def viterbi(
    hmm: Hmm, observation: Sequence[str]
) -> Optional[tuple[tuple[str, ...], float]]:
    """Most probable state path for an observation, with its log-probability.

    Returns ``None`` when no positive-probability path exists. Ties are broken
    toward the lowest state index at every step, so repeated calls return the
    identical path.
    """
    try:
        obs = [hmm.symbol_index[e] for e in observation]
    except KeyError as exc:
        raise ValueError(f"unknown symbol {exc.args[0]!r}") from None
    m = len(hmm.states) - 1
    if not obs:
        return (hmm.states[0],), 0.0

    trans_log = [
        [math.log(p) if p > 0.0 else None for p in row] for row in hmm.transitions
    ]
    emit_log = [
        [math.log(p) if p > 0.0 else None for p in row] for row in hmm.emissions
    ]

    # scores[j-1] is the best log-probability of a path ending in states[j]
    scores: list[Optional[float]] = [None] * m
    back: list[list[Optional[int]]] = []
    for j in range(1, m + 1):
        lt = trans_log[0][j - 1]
        le = emit_log[j - 1][obs[0]]
        if lt is not None and le is not None:
            scores[j - 1] = lt + le
    for t in range(1, len(obs)):
        nxt: list[Optional[float]] = [None] * m
        ptr: list[Optional[int]] = [None] * m
        for j in range(1, m + 1):
            le = emit_log[j - 1][obs[t]]
            if le is None:
                continue
            for i in range(1, m + 1):
                prev = scores[i - 1]
                if prev is None:
                    continue
                lt = trans_log[i][j - 1]
                if lt is None:
                    continue
                cand = prev + lt
                cand += le
                if nxt[j - 1] is None or cand > nxt[j - 1]:
                    nxt[j - 1] = cand
                    ptr[j - 1] = i
        scores = nxt
        back.append(ptr)

    best_j = None
    best = None
    for j in range(1, m + 1):
        v = scores[j - 1]
        if v is not None and (best is None or v > best):
            best, best_j = v, j
    if best_j is None:
        return None
    rev = [best_j]
    for ptr in reversed(back):
        rev.append(ptr[rev[-1] - 1])
    rev.append(0)
    path = tuple(hmm.states[j] for j in reversed(rev))
    return path, best
