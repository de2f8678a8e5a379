"""Global pairwise alignment with a constrained pair HMM.

The model has four states: a silent begin state plus match, insert and
delete. Match consumes one symbol of each sequence and emits the pair;
insert consumes the next symbol of x, delete the next symbol of y. Gaps open
with probability ``gap_open`` (from begin or match) and extend with
``gap_extend``; direct insert<->delete transitions do not exist. There is no
end state: an alignment is complete exactly when both sequences are
consumed.

Constraint checking sees one update per alignment operation, carrying the
state name and the emitted symbol(s), so constraints can be written against
states, symbols or both.

``_PAIR_OPS`` is the one definition of the three operations: every function
that builds, checks, scores, enumerates or prints operations reads it, except
``align``'s per-cell predecessor reads and the ``align_plain`` baseline.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .constraints import (
    ConstraintSpec,
    StateUpdate,
    check_constraints,  # unused here; the benchmark tracer wraps this name
    declarative_satisfies,
    validate_spec,
)
from .decoder import DecodeStats, _lattice_viterbi
from .hmm import NEG_INF, ROW_SUM_TOL

# The operations in tie order: state name, symbols of x and of y consumed, and
# what a step past the end consumes beyond. An operation is the tuple
# (name,) + (i,) * dx + (j,) * dy at the positions i, j reached, written as
# the letter name[0], and it emits x[i - dx:i] + y[j - dy:j].
_PAIR_OPS = (
    ("match", 1, 1, "the sequences"),
    ("insert", 1, 0, "sequence x"),
    ("delete", 0, 1, "sequence y"),
)
PAIR_STATES = ("begin",) + tuple(op[0] for op in _PAIR_OPS)
# Ops shared by ops_from_letters, emptied once it holds over _SHARED_OPS_MAX.
# One pass over perfbench's align-budget or align-open menu makes at most 379
# or 693 distinct ops (seeds 1-3), so the cap holds either with room.
_SHARED_OPS: dict[tuple, tuple] = {}
_SHARED_OPS_MAX = 1 << 10

# 20 standard amino acids plus selenocysteine.
AMINO_ACIDS = tuple("ACDEFGHIKLMNPQRSTUVWY")


@dataclass(frozen=True)
class PairHmmParams:
    """Transition and emission parameters of the pair HMM.

    ``match_emission[i][j]`` is the joint probability of emitting the pair
    (alphabet[i], alphabet[j]) from match; ``gap_emission[i]`` the probability
    of emitting alphabet[i] from insert or delete. The match row of the
    transition matrix is (1 - 2*gap_open, gap_open, gap_open) and is shared
    by begin; insert and delete rows are (1 - gap_extend, gap_extend, 0)
    toward (match, self, other gap state).
    """

    alphabet: tuple[str, ...]
    gap_open: float
    gap_extend: float
    match_emission: tuple[tuple[float, ...], ...]
    gap_emission: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(
            self,
            "match_emission",
            tuple(tuple(float(p) for p in row) for row in self.match_emission),
        )
        object.__setattr__(
            self, "gap_emission", tuple(float(p) for p in self.gap_emission)
        )

    @cached_property
    def transition_log(self) -> dict[tuple[str, str], float]:
        """Log-probabilities of the positive transitions only."""
        go, ge = self.gap_open, self.gap_extend
        rows = {
            "begin": (1.0 - 2 * go, go, go),
            "match": (1.0 - 2 * go, go, go),
            "insert": (1.0 - ge, ge, 0.0),
            "delete": (1.0 - ge, 0.0, ge),
        }
        out: dict[tuple[str, str], float] = {}
        for src, row in rows.items():
            for dst, prob in zip(PAIR_STATES[1:], row):
                if prob > 0.0:
                    out[(src, dst)] = math.log(prob)
        return out

    @cached_property
    def emission_log(self) -> dict[tuple[str, ...], float]:
        """Log-probabilities of the positive emissions, keyed by the emitted
        symbols: ``(a, b)`` from match, ``(a,)`` from insert or delete."""
        out = {(a,): math.log(q) for a, q in zip(self.alphabet, self.gap_emission) if q > 0.0}
        for i, a in enumerate(self.alphabet):
            for j, b in enumerate(self.alphabet):
                q = self.match_emission[i][j]
                if q > 0.0:
                    out[a, b] = math.log(q)
        return out


def uniform_pair_params(
    alphabet: Sequence[str] = AMINO_ACIDS,
    gap_open: float = 0.2,
    gap_extend: float = 0.2,
) -> PairHmmParams:
    """Permissive parameters: uniform pair and gap emissions, every factor
    positive. Handy as a defaults baseline and in fixtures."""
    k = len(alphabet)
    return PairHmmParams(
        alphabet=tuple(alphabet),
        gap_open=gap_open,
        gap_extend=gap_extend,
        match_emission=tuple(tuple(1.0 / (k * k) for _ in range(k)) for _ in range(k)),
        gap_emission=tuple(1.0 / k for _ in range(k)),
    )


def validate_pair_params(params: PairHmmParams) -> list[str]:
    problems: list[str] = []
    k = len(params.alphabet)
    if k == 0:
        problems.append("alphabet is empty")
    if len(set(params.alphabet)) != k:
        problems.append("alphabet contains duplicate symbols")
    if not 0.0 <= params.gap_open <= 1.0:
        problems.append(f"gap_open {params.gap_open!r} is outside [0, 1]")
    elif 2 * params.gap_open > 1.0:
        problems.append(
            f"gap_open {params.gap_open!r} makes the match row negative (2*gap_open > 1)"
        )
    if not 0.0 <= params.gap_extend <= 1.0:
        problems.append(f"gap_extend {params.gap_extend!r} is outside [0, 1]")
    if len(params.match_emission) != k or any(
        len(row) != k for row in params.match_emission
    ):
        problems.append(f"match emission table is not {k}x{k}")
    else:
        entries = [p for row in params.match_emission for p in row]
        if any(not 0.0 <= p <= 1.0 for p in entries):
            problems.append("match emission entries must lie in [0, 1]")
        total = math.fsum(entries)
        if abs(total - 1.0) > ROW_SUM_TOL:
            problems.append(f"match emission table sums to {total!r}, expected 1")
    if len(params.gap_emission) != k:
        problems.append(f"gap emission row has {len(params.gap_emission)} entries for {k} symbols")
    else:
        if any(not 0.0 <= p <= 1.0 for p in params.gap_emission):
            problems.append("gap emission entries must lie in [0, 1]")
        total = math.fsum(params.gap_emission)
        if abs(total - 1.0) > ROW_SUM_TOL:
            problems.append(f"gap emission row sums to {total!r}, expected 1")
    return problems


@dataclass(frozen=True)
class PairChmm:
    """A pair HMM plus its declared side-constraints, validated when built
    (``ValueError("invalid pair model: ...")``)."""

    params: PairHmmParams
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        problems = validate_pair_params(self.params)
        for i, spec in enumerate(self.constraints):
            problems.extend(f"constraint {i}: {p}" for p in validate_spec(spec))
        if problems:
            raise ValueError("invalid pair model: " + "; ".join(problems))


def build_pair_chmm(
    params: PairHmmParams, constraints: Sequence[ConstraintSpec] = ()
) -> PairChmm:
    """Assemble a decodable model; ``PairChmm`` validates it."""
    return PairChmm(params, tuple(constraints))


@dataclass(frozen=True)
class Alignment:
    """A global alignment as a sequence of operations plus its score.

    Operations are ``("match", i, j)``, ``("insert", i)`` and
    ``("delete", j)`` with 1-based positions into x and y; together they must
    consume both sequences completely and in order.
    """

    ops: tuple[tuple, ...]
    log_prob: float

    @property
    def state_string(self) -> str:
        """Begin marker plus one letter per operation, e.g. ``"biimmd"``."""
        return "b" + "".join(op[0][0] for op in self.ops)


def ops_from_letters(letters: str) -> tuple[tuple, ...]:
    """Build an operation list from a state annotation such as
    ``"b i i m m d"`` or ``"biimmd"`` (the begin marker is optional). Equal
    operations are shared between calls, so kept alignments hold each once."""
    if len(_SHARED_OPS) > _SHARED_OPS_MAX:
        _SHARED_OPS.clear()
    seq = letters.replace(" ", "")
    if seq.startswith("b"):
        seq = seq[1:]
    kinds = {name[0]: (name, dx, dy) for name, dx, dy, _ in _PAIR_OPS}
    ops: list[tuple] = []
    i = j = 0
    for ch in seq:
        if ch not in kinds:
            raise ValueError(f"unknown alignment letter {ch!r}")
        name, dx, dy = kinds[ch]
        i += dx
        j += dy
        op = (name,) + (i,) * dx + (j,) * dy
        ops.append(_SHARED_OPS.setdefault(op, op))
    return tuple(ops)


def _op_kind(op) -> tuple:
    """The ``_PAIR_OPS`` entry that op names; compared, not hashed, so an
    unhashable kind is unknown too."""
    for kind in _PAIR_OPS:
        if op[0] == kind[0]:
            return kind
    raise ValueError(f"unknown alignment operation {op!r}")


def _walk_ops(x: Sequence[str], y: Sequence[str], ops) -> list[StateUpdate]:
    """Check that ops consume x and y exactly, returning the update history."""
    i = j = 0
    history: list[StateUpdate] = []
    for op in ops:
        name, dx, dy, beyond = _op_kind(op)
        i += dx
        j += dy
        expected = (name,) + (i,) * dx + (j,) * dy
        if op != expected:
            raise ValueError(f"operation {op!r} out of order (expected {expected!r})")
        if i > len(x) or j > len(y):
            raise ValueError(f"operation {op!r} consumes beyond {beyond}")
        history.append(StateUpdate(name, tuple(x[i - dx:i]) + tuple(y[j - dy:j])))
    if i != len(x) or j != len(y):
        raise ValueError(
            f"alignment consumes {i} of {len(x)} x-symbols and {j} of {len(y)} y-symbols"
        )
    return history


def _check_symbols(model_alphabet, x, y) -> None:
    known = set(model_alphabet)
    for name, seq in (("x", x), ("y", y)):
        for sym in seq:
            if sym not in known:
                raise ValueError(f"unknown symbol {sym!r} in sequence {name}")


def alignment_log_probability(
    model: PairChmm, x: Sequence[str], y: Sequence[str], alignment: Alignment
) -> float:
    """Score an explicit alignment under the model.

    Returns -inf when any transition or emission factor is zero or the
    declared constraints reject the operation history; malformed alignments
    (wrong consumption or unknown symbols) raise instead.
    """
    _check_symbols(model.params.alphabet, x, y)
    history = _walk_ops(x, y, alignment.ops)
    total = 0.0
    prev = "begin"
    for update in history:
        lt = model.params.transition_log.get((prev, update.state))
        le = model.params.emission_log.get(update.emitted)
        if lt is None or le is None:
            return NEG_INF
        total += lt
        total += le
        prev = update.state
    for spec in model.constraints:
        if not declarative_satisfies(spec, history):
            return NEG_INF
    return total


def align(
    model: PairChmm,
    x: Sequence[str],
    y: Sequence[str],
    *,
    stats: Optional[DecodeStats] = None,
) -> Optional[Alignment]:
    """Best constraint-satisfying global alignment of x and y, or ``None``.

    Runs the decoder's lattice kernel along anti-diagonals, one node per
    (consumed x, consumed y) cell and one best entry per (state, constraint
    store) key in each. Only the last two anti-diagonals' tables are held, by
    i, so predecessors are found by index; a cell none of whose predecessors
    holds an entry is skipped, unless it is the last. Ties follow the
    kernel's rule: the candidate generated first wins, and a cell's
    candidates come from its match, insert and delete predecessors in that
    order. Ties are broken where partial alignments merge, so alignments with
    bit-identical scores can still lose by a last-bit partial-sum difference.
    Under a constraint with a ``store_limit`` the kernel looks ahead; with no
    constraint at all a backward pass bounds it (``decoder`` docstring).
    """
    _check_symbols(model.params.alphabet, x, y)
    x = tuple(x)
    y = tuple(y)
    nx, ny = len(x), len(y)
    w = ny + 1  # cell (i, j) is index i * w + j
    params = model.params
    trans = [[params.transition_log.get((a, b)) for b in PAIR_STATES] for a in PAIR_STATES]
    elog = params.emission_log
    # Every cell that emits the same symbols shares one move, so no cell
    # allocates an update. Moves are keyed by what a cell reads: the symbol
    # pair for match, the symbol for a gap. State s is PAIR_STATES[s].
    sx, sy = {(a,) for a in x}, {(b,) for b in y}
    match_moves, insert_moves, delete_moves = (
        {
            e if len(e) > 1 else e[0]: ((s, elog[e], StateUpdate(name, e)),)
            for e in {a + b for a in (sx if dx else [()]) for b in (sy if dy else [()])}
            if e in elog
        }
        for s, (name, dx, dy, _) in enumerate(_PAIR_OPS, 1)
    )

    def fewest(states):
        # Left after cell c: rx = nx - i and ry = ny - j, from m <= min(rx, ry)
        # matches, rx - m inserts and ry - m deletes.
        wm, wi, wd = (states is None or op[0] in states for op in _PAIR_OPS)
        if wi or wd:
            k = min(0, wm - wi - wd)
            def need(c):
                rx, ry = nx - c // w, ny - c % w
                return wi * rx + wd * ry + k * min(rx, ry)
            return need

    def diagonals(source):
        # The tables of anti-diagonals i + j = t - 2 and t - 1, by i, or None for
        # a cell not yielded: one with no edge from a non-empty table, bar the sink.
        before, last = [None] * (nx + 1), [None] * (nx + 1)
        last[0] = source
        for t in range(1, nx + ny + 1):
            row = [None] * (nx + 1)
            for i in range(max(0, t - ny), min(t, nx) + 1):
                j = t - i
                edges = []
                if i and j and (pred := before[i - 1]):
                    moves = match_moves.get((x[i - 1], y[j - 1]))
                    if moves:
                        edges.append((pred, moves))
                if i and (pred := last[i - 1]):
                    moves = insert_moves.get(x[i - 1])
                    if moves:
                        edges.append((pred, moves))
                if j and (pred := last[i]):
                    moves = delete_moves.get(y[j - 1])
                    if moves:
                        edges.append((pred, moves))
                if edges or t == nx + ny:
                    row[i] = table = {}
                    yield table, edges, i * w + j
            before, last = last, row

    bound = None
    if not model.constraints:
        # Backward Viterbi: hm, hi, hd[c] are the best log-probs of finishing
        # from cell c in match, insert, delete (or -inf). Emissions past the
        # last row and column are -inf; w cells of padding follow.
        tl = [[NEG_INF if lt is None else lt for lt in row[1:]] for row in trans[1:]]
        (mm, mi, md), (im, ii, id_), (dm, di, dd) = tl
        hm, hi, hd = [array("d", [NEG_INF]) * ((nx + 2) * w) for _ in _PAIR_OPS]
        hm[-w - 1] = hi[-w - 1] = hd[-w - 1] = 0.0  # the last cell
        ld = [delete_moves[b][0][1] if b in delete_moves else NEG_INF for b in y] + [NEG_INF]
        for i in range(nx, -1, -1):
            a = x[i] if i < nx else None
            li = insert_moves[a][0][1] if a in insert_moves else NEG_INF
            lm = [m[0][1] if (m := match_moves.get((a, b))) else NEG_INF for b in y] + [NEG_INF]
            base, up = i * w, (i + 1) * w
            for j in range(ny - (i == nx), -1, -1):
                c = base + j
                vm = lm[j] + hm[up + j + 1]
                vi = li + hi[up + j]
                vd = ld[j] + hd[c + 1]
                hm[c] = max(mm + vm, mi + vi, md + vd)
                hi[c] = max(im + vm, ii + vi, id_ + vd)
                hd[c] = max(dm + vm, di + vi, dd + vd)
        # Begin shares match's transition row, so it finishes as match does.
        bound = (hm[0], (hm, hm, hi, hd))

    result = _lattice_viterbi(model.constraints, trans, diagonals, stats, fewest, bound)
    if result is None:
        return None
    log_prob, states = result
    letters = "".join(PAIR_STATES[s][0] for s in states)
    return Alignment(ops_from_letters(letters), log_prob)


def align_plain(
    params: PairHmmParams,
    x: Sequence[str],
    y: Sequence[str],
    *,
    stats: Optional[DecodeStats] = None,
) -> Optional[Alignment]:
    """Classical pair-HMM alignment with no constraint machinery at all.

    The textbook three-score Viterbi recursion (Durbin et al., *Biological
    Sequence Analysis*, 1998, ch. 4): per cell, a match, an insert and a
    delete score and the state each came from; a tie goes to the first of
    match, insert and delete. As the benchmark baseline and the independent
    reference for the empty-constraint case, it stays apart from the
    decoder's lattice kernel on purpose. Invalid params raise
    ``ValueError("invalid pair model: ...")``, as ``PairChmm`` does.
    """
    PairChmm(params)  # validates the params
    _check_symbols(params.alphabet, x, y)
    x = tuple(x)
    y = tuple(y)
    nx, ny = len(x), len(y)
    trans = params.transition_log
    elog = params.emission_log
    names = PAIR_STATES[1:]  # state s is names[s]: 0 match, 1 insert, 2 delete
    # into[t] holds (s, log transition s -> t) for each existing transition;
    # begin shares match's row, so it is the match score of cell (0, 0).
    into = [[(s, trans[a, b]) for s, a in enumerate(names) if (a, b) in trans] for b in names]
    # Cell (i, j) is index i * (ny + 1) + j; state s steps back[s] to its
    # predecessor cell. None marks an unreachable score.
    back = (ny + 2, ny + 1, 1)
    size = (nx + 1) * (ny + 1)
    score = [[None] * size for _ in names]
    came = [[None] * size for _ in names]
    score[0][0] = 0.0
    total = 1
    merges = 0
    for t in range(1, nx + ny + 1):
        for i in range(max(0, t - ny), min(t, nx) + 1):
            j = t - i
            c = i * (ny + 1) + j
            emits = (
                elog.get((x[i - 1], y[j - 1])) if i and j else None,
                elog.get((x[i - 1],)) if i else None,
                elog.get((y[j - 1],)) if j else None,
            )
            for dst, le in enumerate(emits):
                if le is None:
                    continue
                pred = c - back[dst]
                best = None
                for s, lt in into[dst]:
                    plp = score[s][pred]
                    if plp is None:
                        continue
                    nlp = plp + lt
                    nlp += le
                    if best is None:
                        total += 1
                    else:
                        merges += 1
                        if not nlp > best:
                            continue
                    best = nlp
                    came[dst][c] = s
                score[dst][c] = best
    if stats:
        # Each expansion stored a score or merged; begin was stored without one.
        stats.expansions += total - 1 + merges
        stats.prunes += merges
        stats.peak_entries = max(stats.peak_entries, total)

    c = size - 1
    s = None  # the first of match, insert, delete with the best final score
    for t in range(3):
        if score[t][c] is not None and (s is None or score[t][c] > score[s][c]):
            s = t
    if s is None:
        return None
    log_prob = score[s][c]
    letters = []
    while c:
        letters.append("mid"[s])
        s, c = came[s][c], c - back[s]
    return Alignment(ops_from_letters("".join(reversed(letters))), log_prob)


def brute_force_align(
    model: PairChmm, x: Sequence[str], y: Sequence[str]
) -> Optional[Alignment]:
    """Exact reference aligner: enumerate every monotone alignment, filter by
    positive probability and declarative constraint satisfaction, maximize.

    Intended for sequences of length <= 5 or so.
    """
    _check_symbols(model.params.alphabet, x, y)
    x = tuple(x)
    y = tuple(y)
    nx, ny = len(x), len(y)
    specs = model.constraints
    trans = model.params.transition_log
    elog = model.params.emission_log
    best: Optional[Alignment] = None

    def leaf(ops: list[tuple], lp: float, history: list[StateUpdate]) -> None:
        nonlocal best
        if not all(declarative_satisfies(spec, history) for spec in specs):
            return
        if best is None or lp > best.log_prob:
            best = Alignment(tuple(ops), lp)

    def walk(i, j, prev, lp, ops, history):
        if i == nx and j == ny:
            leaf(ops, lp, history)
            return
        for name, dx, dy, _ in _PAIR_OPS:
            ni, nj = i + dx, j + dy
            if ni > nx or nj > ny:
                continue
            emitted = x[i:ni] + y[j:nj]
            lt = trans.get((prev, name))
            le = elog.get(emitted)
            if lt is not None and le is not None:
                nlp = lp + lt
                nlp += le
                ops.append((name,) + (ni,) * dx + (nj,) * dy)
                history.append(StateUpdate(name, emitted))
                walk(ni, nj, name, nlp, ops, history)
                ops.pop()
                history.pop()

    walk(0, 0, "begin", 0.0, [], [])
    return best


def gapped_strings(
    x: Sequence[str], y: Sequence[str], alignment: Alignment, gap: str = "-"
) -> tuple[str, str]:
    """Render the two sequences with gap characters for display. Operations
    that are unknown, out of order, past either end, or that leave a symbol
    unconsumed raise ``ValueError``, as in ``alignment_log_probability``."""
    sep = "" if all(len(s) == 1 for s in tuple(x) + tuple(y)) else " "
    row_x: list[str] = []
    row_y: list[str] = []
    for op, update in zip(alignment.ops, _walk_ops(x, y, alignment.ops)):
        _, dx, dy, _ = _op_kind(op)
        row_x.append(update.emitted[0] if dx else gap)
        row_y.append(update.emitted[-1] if dy else gap)
    return sep.join(row_x), sep.join(row_y)
