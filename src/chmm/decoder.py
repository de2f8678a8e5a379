"""Constraint-pruned Viterbi decoding.

Every decoder in this package is one dynamic program, ``_lattice_viterbi``.
It walks a lattice of nodes in topological order and keeps, per node, one
best partial path per (state, constraint store) key. Expansion extends a path
only along positive-probability edges whose update every constraint checker
accepts. Equal stores behave identically forever, so dropping the
lower-probability member of a key can never discard the optimum. Paths are
kept as backpointers, so memory stays proportional to the table instead of
table x path length. ``constrained_viterbi`` has one lattice node per
observation level; ``pairhmm.align`` has one per (i, j) cell.

One tie rule holds everywhere: the candidate generated first wins a tie, and
a strict improvement deletes its key and re-inserts it, so every table
iterates in the order its winners were generated. Predecessors are expanded
in that order and the HMM generates successors in state-name order, so
``constrained_viterbi`` returns the lexicographically smallest optimal path,
the one ``brute_force_constrained`` returns. The limit of the rule: ties are
broken where partial paths merge. Two partial sums that are equal in exact
arithmetic can differ in the last bit, and the merge then keeps the larger
one even when a lexicographically smaller complete path ends with a
bit-identical log-probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .constraints import (
    ConstraintSpec,
    StateUpdate,
    check_constraints,
    declarative_satisfies,
    init_aggregate,
    validate_spec,
)
from .hmm import NEG_INF, Hmm, Run, run_log_probability, validate_model


@dataclass(frozen=True)
class Chmm:
    """An HMM together with its declared side-constraints."""

    hmm: Hmm
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def validate_chmm(chmm: Chmm) -> list[str]:
    problems = validate_model(chmm.hmm)
    for i, spec in enumerate(chmm.constraints):
        problems.extend(f"constraint {i}: {p}" for p in validate_spec(spec))
    return problems


@dataclass
class DecodeStats:
    """Counters for benchmarking: accepted expansions, domination drops, and
    the largest number of table entries held at once."""

    expansions: int = 0
    prunes: int = 0
    peak_entries: int = 0

    def _note_entries(self, total: int) -> None:
        if total > self.peak_entries:
            self.peak_entries = total


def _require_valid(chmm: Chmm) -> None:
    problems = validate_chmm(chmm)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))


def _lattice_viterbi(specs, trans_log, source, lattice, sink, prune, stats):
    """Best constraint-satisfying path from ``source`` to ``sink``.

    ``trans_log[s][t]`` is the log transition probability from state index s
    to t, or None where the transition is impossible. The source node holds
    state 0 with the initial stores. ``lattice`` yields ``(node, edges)`` in
    topological order after the source; each edge is ``(predecessor node,
    moves)`` and each move ``(t, emit_log, update, label)`` enters state t
    with emission log-probability ``emit_log`` and constraint update
    ``update``. Each node keeps one entry per (state, store) key, merged by
    the tie rule in the module docstring; with ``prune=False`` every
    candidate gets a key of its own, so nothing merges. Returns ``(log_prob,
    labels)``, the labels of the best path's moves in order, or None.
    """
    start = init_aggregate(specs)
    # A table maps a key to (log_prob, state, store, parent entry, label).
    tables = {source: {(0, start): (0.0, 0, start, None, None)}}
    total = 1
    if stats:
        stats._note_entries(total)
    for node, edges in lattice:
        table: dict = {}
        for pred, moves in edges:
            for parent in tables.get(pred, {}).values():
                plp, s, store, _parent, _label = parent
                row = trans_log[s]
                for t, le, update, label in moves:
                    lt = row[t]
                    if lt is None:
                        continue
                    nstore = check_constraints(specs, update, store)
                    if nstore is None:
                        continue
                    if stats:
                        stats.expansions += 1
                    nlp = plp + lt
                    nlp += le
                    if not prune:
                        table[len(table)] = (nlp, t, nstore, parent, label)
                        continue
                    key = (t, nstore)
                    old = table.get(key)
                    if old is None:
                        table[key] = (nlp, t, nstore, parent, label)
                    else:
                        if stats:
                            stats.prunes += 1
                        if nlp > old[0]:
                            del table[key]
                            table[key] = (nlp, t, nstore, parent, label)
        if table:
            tables[node] = table
            total += len(table)
            if stats:
                stats._note_entries(total)

    final = tables.get(sink)
    if final is None:
        return None
    best = None
    for entry in final.values():
        if best is None or entry[0] > best[0]:
            best = entry
    labels = []
    entry = best
    while entry[3] is not None:
        labels.append(entry[4])
        entry = entry[3]
    labels.reverse()
    return best[0], labels


def constrained_viterbi(
    chmm: Chmm,
    observation: Sequence[str],
    *,
    prune: bool = True,
    stats: Optional[DecodeStats] = None,
) -> Optional[tuple[tuple[str, ...], float]]:
    """Most probable constraint-satisfying path for an observation.

    Returns ``(path, log_probability)`` or ``None`` when the constraints
    eliminate every positive-probability path; unsatisfiability is a result,
    not an error. Among optimal paths the lexicographically smallest wins,
    up to the last-bit limit described in the module docstring. With
    ``prune=False`` the search keeps every accepted partial path instead of
    merging (state, store) keys; this is only tractable on small instances
    and exists to measure what the pruning buys.
    """
    _require_valid(chmm)
    hmm = chmm.hmm
    try:
        obs = [hmm.symbol_index[e] for e in observation]
    except KeyError as exc:
        raise ValueError(f"unknown symbol {exc.args[0]!r}") from None
    names = hmm.states
    # Column 0 is the initial state, which no transition enters.
    trans_log = [
        [None] + [math.log(p) if p > 0.0 else None for p in row]
        for row in hmm.transitions
    ]
    by_name = sorted(range(1, len(names)), key=names.__getitem__)
    moves = [
        [
            (j, math.log(hmm.emissions[j - 1][e]), StateUpdate(names[j], (symbol,)), j)
            for j in by_name
            if hmm.emissions[j - 1][e] > 0.0
        ]
        for e, symbol in enumerate(hmm.alphabet)
    ]
    lattice = ((k, ((k - 1, moves[e]),)) for k, e in enumerate(obs, 1))
    result = _lattice_viterbi(
        chmm.constraints, trans_log, 0, lattice, len(obs), prune, stats
    )
    if result is None:
        return None
    log_prob, states = result
    return (names[0],) + tuple(names[j] for j in states), log_prob


def brute_force_constrained(
    chmm: Chmm, observation: Sequence[str]
) -> Optional[tuple[tuple[str, ...], float]]:
    """Exact reference decoder: enumerate every state sequence, keep those
    with positive probability whose full update history satisfies every
    constraint declaratively, and return the best.

    Independent of the incremental machinery on purpose; intended for small
    instances only (roughly states <= 5 and observations of length <= 10).
    """
    _require_valid(chmm)
    hmm = chmm.hmm
    specs = chmm.constraints
    for e in observation:
        if e not in hmm.symbol_index:
            raise ValueError(f"unknown symbol {e!r}")
    obs = tuple(observation)
    names = hmm.states
    m = len(names) - 1
    n = len(obs)
    best: Optional[tuple[tuple[str, ...], float]] = None

    def consider(path_states: tuple[str, ...]) -> None:
        nonlocal best
        run = Run((names[0],) + path_states, obs)
        lp = run_log_probability(hmm, run)
        if lp == NEG_INF:
            return
        history = [StateUpdate(s, (e,)) for s, e in zip(path_states, obs)]
        if not all(declarative_satisfies(spec, history) for spec in specs):
            return
        path = run.path
        if best is None or lp > best[1] or (lp == best[1] and path < best[0]):
            best = (path, lp)

    def walk(prefix: tuple[str, ...], depth: int) -> None:
        if depth == n:
            consider(prefix)
            return
        prev_ix = hmm.state_index[prefix[-1]] if prefix else 0
        e_ix = hmm.symbol_index[obs[depth]]
        for j in range(1, m + 1):
            if hmm.transitions[prev_ix][j - 1] <= 0.0:
                continue
            if hmm.emissions[j - 1][e_ix] <= 0.0:
                continue
            walk(prefix + (names[j],), depth + 1)

    walk((), 0)
    return best
