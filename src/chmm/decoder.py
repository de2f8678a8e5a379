"""Constraint-pruned Viterbi decoding.

Every constrained decoder in this package is one dynamic program,
``_lattice_viterbi``; the unconstrained baselines ``hmm.viterbi`` and
``pairhmm.align_plain`` stay separate on purpose. The kernel walks a lattice
of nodes in topological order and keeps, per node, one best partial path per
(state, constraint store) key. Expansion extends a path only along
positive-probability edges whose update every constraint checker accepts.
Equal stores behave identically forever, so dropping the lower-probability
member of a key can never discard the optimum. Paths are kept as
backpointers, so memory stays proportional to the table instead of table x
path length. ``constrained_viterbi`` has one lattice node per observation
level; ``pairhmm.align`` has one per (i, j) cell.

The same fact makes the declared constraints a deterministic automaton over
updates: a store is a state, and the store an update leads to depends on
nothing but the store and the update. ``_StoreAutomaton`` builds that
automaton lazily (Pesant's ``regular`` constraint, CP 2004, built on demand).
Stores are interned as small integer ids, id 0 being the initial store, and
each id carries a dict from update to the next id, or -1 for a rejection.
The kernel looks each arc up once, and a miss calls ``_StoreAutomaton.check``
(``check_constraints``, then interning) and records the arc. So each distinct
(store, update) pair is checked once per decode, and table keys are (state,
id) integers instead of nested store tuples. The automaton is exact because
an arc is only ever a recorded ``check_constraints`` result. With
``prune=False`` no arc is recorded and every candidate is checked again, so
that search stays the undeduplicated baseline.

Checkers ignore the updates the lattice forces, so ``align`` hands over
what is left with each cell and the kernel stores no new key whose store
has less ``store_limit`` room than any path to the sink needs (forward
checking, Haralick & Elliott 1980). No such entry or extension finishes, and
the test reads only store and node, so results and ties hold.

The caller's lattice holds the tables its later nodes read (the last level
in ``constrained_viterbi``, the last two anti-diagonals in ``align``) and
hands them to the kernel with each node. The winners of dropped tables stay
reachable through the parent references of the entries that extend them;
everything else is freed as the walk goes.

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
    store_limit,
    validate_spec,
)
from .hmm import NEG_INF, Hmm, Run, run_log_probability, validate_model


@dataclass(frozen=True)
class Chmm:
    """An HMM together with its declared side-constraints, validated when
    built (``ValueError("invalid model: ...")``). The HMM and the specs are
    frozen, so the decoders do not check the model again."""

    hmm: Hmm
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        problems = validate_chmm(self)
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))


def validate_chmm(chmm: Chmm) -> list[str]:
    problems = validate_model(chmm.hmm)
    for i, spec in enumerate(chmm.constraints):
        problems.extend(f"constraint {i}: {p}" for p in validate_spec(spec))
    return problems


@dataclass
class DecodeStats:
    """Counters for benchmarking.

    ``expansions`` counts accepted expansions and ``prunes`` the expansions
    merged into an existing entry with an equal (state, store) key; the
    candidates the lookahead drops are neither stored nor counted.
    ``peak_entries`` is the number of entries stored over the whole lattice
    walk, an upper bound on those held at once, as finished tables are
    released; over several decodes it keeps the largest walk's count.
    ``stores`` is the number of interned constraint stores and ``checks``
    the number of ``check_constraints`` calls, i.e. the automaton's misses.
    """

    expansions: int = 0
    prunes: int = 0
    peak_entries: int = 0
    stores: int = 0
    checks: int = 0


class _StoreAutomaton:
    """The declared constraints as a lazily built automaton over updates.

    ``stores[i]`` is the store with id i (0 is the initial store), ``ids``
    the reverse map, and ``arcs[i]`` maps an update to the id it leads to
    from store i, or -1 where a checker rejects it; the kernel records them.
    """

    def __init__(self, specs, lookahead=False):
        start = init_aggregate(specs)
        self.specs = specs
        self.stores = [start]
        self.ids = {start: 0}
        self.arcs: list[dict] = [{}]
        self.checks = 0
        # Lookahead: limited state set (None: all) -> (its specs, least room by id).
        self.limits: dict = {}
        for k, part in enumerate(start):
            if limit := lookahead and store_limit(specs[k], part):
                self.limits.setdefault(limit[0], ([], []))[0].append(k)
        self._add_rooms(start)

    def _add_rooms(self, store):
        for ks, rooms in self.limits.values():
            rooms.append(min(store_limit(self.specs[k], store[k])[1] for k in ks))

    def check(self, sid: int, update: StateUpdate) -> int:
        """Id of the store ``update`` leads to from store ``sid``, or -1,
        computed by ``check_constraints`` without consulting or recording
        the arcs."""
        self.checks += 1
        store = check_constraints(self.specs, update, self.stores[sid])
        if store is None:
            return -1
        nid = self.ids.get(store)
        if nid is None:
            nid = self.ids[store] = len(self.stores)
            self.stores.append(store)
            self.arcs.append({})
            self._add_rooms(store)
        return nid


def _lattice_viterbi(specs, trans_log, lattice, prune, stats, fewest=None):
    """Best constraint-satisfying path through a lattice, source to sink.

    ``trans_log[s][t]`` is the log transition probability from state index s
    to t, or None where the transition is impossible. The source table holds
    state 0 with the initial stores. ``lattice(source_table)`` yields the
    further nodes in topological order as ``(table, edges, left)``: a fresh
    dict for the kernel to fill, edges ``(predecessor's table, moves)``, each
    move ``(t, emit_log, update)`` entering state t with emission
    log-probability ``emit_log`` and constraint update ``update``, and what
    is left after the node, which only ``fewest`` reads. The last node
    yielded, or the source if none is, is the sink. Each node keeps one
    entry per (state, store) key, merged by the tie rule in the module
    docstring; with ``prune=False`` every candidate gets a key of its own
    and its own ``check_constraints`` call, so nothing merges and nothing is
    cached. Returns ``(log_prob, states)``, the states the best path enters
    after the source, in order, or None. For the lookahead (only with
    ``prune``), ``fewest(states)`` is None or a function of ``left``: the
    fewest updates into ``states`` (names; None for all) after the node.
    """
    automaton = _StoreAutomaton(specs, prune and fewest is not None)
    ahead = [(r, f) for states, (_, r) in automaton.limits.items() if (f := fewest(states))]
    arcs = automaton.arcs
    check = automaton.check
    width = len(trans_log)
    # A table maps a key to (log_prob, state, store id, parent entry); the
    # key of state t with store id i is i * width + t.
    table = {0: (0.0, 0, 0, None)}
    total = 1
    merges = 0
    for table, edges, left in lattice(table):
        needs = ahead and [(rooms, f(left)) for rooms, f in ahead]
        for parents, moves in edges:
            for parent in parents.values():
                plp, s, sid, _parent = parent
                row = trans_log[s]
                arc = arcs[sid]
                for t, le, update in moves:
                    lt = row[t]
                    if lt is None:
                        continue
                    nid = arc.get(update)
                    if nid is None:
                        nid = check(sid, update)
                        if prune:  # else every lookup misses
                            arc[update] = nid
                    if nid < 0:
                        continue
                    nlp = plp + lt
                    nlp += le
                    if not prune:
                        table[len(table)] = (nlp, t, nid, parent)
                        continue
                    key = nid * width + t
                    old = table.get(key)
                    if old is None:
                        for rooms, need in needs:
                            if rooms[nid] < need:
                                break  # the store cannot finish from this node
                        else:
                            table[key] = (nlp, t, nid, parent)
                    else:
                        merges += 1
                        if nlp > old[0]:
                            del table[key]
                            table[key] = (nlp, t, nid, parent)
        total += len(table)
    if stats:
        # Every accepted expansion stored an entry or merged into one; only
        # the source entry was stored without one.
        stats.expansions += total - 1 + merges
        stats.prunes += merges
        stats.peak_entries = max(stats.peak_entries, total)
        stats.stores += len(automaton.stores)
        stats.checks += automaton.checks

    best = None
    for entry in table.values():
        if best is None or entry[0] > best[0]:
            best = entry
    if best is None:
        return None
    states = []
    entry = best
    while entry[3] is not None:
        states.append(entry[1])
        entry = entry[3]
    states.reverse()
    return best[0], states


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
    merging (state, store) keys and passes every candidate through
    ``check_constraints`` without the automaton's cached arcs. It is only
    tractable on small instances and exists to measure what the use of store
    equality buys: acceptance criterion 6 asks the default search to be at
    least 10x faster than this undeduplicated one. ``Chmm`` validated the
    model when it was built; only the observation is checked here.
    """
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
            (j, math.log(hmm.emissions[j - 1][e]), StateUpdate(names[j], (symbol,)))
            for j in by_name
            if hmm.emissions[j - 1][e] > 0.0
        ]
        for e, symbol in enumerate(hmm.alphabet)
    ]

    def levels(table):
        for e in obs:
            pred, table = table, {}
            yield table, ((pred, moves[e]),), None

    result = _lattice_viterbi(chmm.constraints, trans_log, levels, prune, stats)
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
