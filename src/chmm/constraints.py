"""Incremental side-constraint checkers over (state, emissions) updates.

A constraint restricts the sequence of per-step updates a decoder may take.
Each constraint form pairs a declarative reading (``declarative_satisfies``,
evaluated on a complete history) with an incremental checker: ``init_store``
builds the empty-history checker state and ``check_sat`` folds one update
into it, answering accept (a new store) or reject (``None``). A checker may
only reject once no extension of the history can satisfy the constraint,
which is what makes rejection safe for pruning partial decoder paths.

Stores are immutable canonical values built from ints, strings, tuples and
``None``: equal histories produce identical stores, equal stores serialize
identically, and equal stores behave identically on any future updates. That
last property is what lets a decoder merge partial paths that reach the same
store.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

WILDCARD = "_"


class StateUpdate(NamedTuple):
    """One decoder step: the state entered and the symbols it emitted.

    Plain HMM steps emit one symbol; pair-HMM steps emit two (match) or one
    (insert/delete). Projected updates (see ``state_specific``) emit none.
    """

    state: str
    emitted: tuple[str, ...]


@dataclass(frozen=True)
class UpdatePattern:
    """Matches updates by state and/or exact emission tuple.

    ``None`` in a position is a wildcard: ``UpdatePattern("insert", None)``
    matches every update entering the insert state, regardless of emission.
    """

    state: Optional[str]
    emitted: Optional[tuple[str, ...]]

    def matches(self, update: StateUpdate) -> bool:
        if self.state is not None and self.state != update.state:
            return False
        return self.emitted is None or self.emitted == update.emitted


def as_pattern(value) -> UpdatePattern:
    """Coerce shorthand into an UpdatePattern.

    A bare string is a state pattern with any emission (``"_"`` matches
    everything); a tuple ``(state, sym...)`` pins the emission exactly, with
    ``"_"`` allowed in the state slot.
    """
    if isinstance(value, UpdatePattern):
        return value
    if isinstance(value, str):
        return UpdatePattern(None if value == WILDCARD else value, None)
    if isinstance(value, tuple) and value and all(isinstance(v, str) for v in value):
        state = None if value[0] == WILDCARD else value[0]
        if WILDCARD in value[1:]:
            raise ValueError("emission symbols in a pattern tuple cannot be wildcards")
        return UpdatePattern(state, tuple(value[1:]))
    raise ValueError(f"cannot interpret {value!r} as an update pattern")


def _patterns(values) -> tuple[UpdatePattern, ...]:
    return tuple(as_pattern(v) for v in values)


@dataclass(frozen=True)
class Cardinality:
    """At most ``max_count`` updates matching any of ``patterns``."""

    patterns: tuple[UpdatePattern, ...]
    max_count: int

    def __post_init__(self):
        object.__setattr__(self, "patterns", _patterns(self.patterns))


@dataclass(frozen=True)
class AllDiff:
    """All updates in the history are pairwise distinct."""


@dataclass(frozen=True)
class LockToSequence:
    """The history must follow ``sequence`` position by position.

    Histories longer than the sequence are rejected; shorter ones are
    accepted as long as every consumed position matched.
    """

    sequence: tuple[UpdatePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequence", _patterns(self.sequence))


@dataclass(frozen=True)
class LockToSet:
    """Every update must match at least one of ``allowed``."""

    allowed: tuple[UpdatePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "allowed", _patterns(self.allowed))


@dataclass(frozen=True)
class ForRange:
    """Apply ``child`` only to positions first..last (1-based, inclusive)."""

    first: int
    last: int
    child: "ConstraintSpec"


@dataclass(frozen=True)
class ForallSubseq:
    """Apply ``child`` to every full window of ``window`` consecutive updates.

    Trailing windows shorter than ``window`` are never checked.
    """

    window: int
    child: "ConstraintSpec"


@dataclass(frozen=True)
class StateSpecific:
    """Apply ``child`` to the state part of each update only."""

    child: "ConstraintSpec"


ConstraintSpec = Union[
    Cardinality,
    AllDiff,
    LockToSequence,
    LockToSet,
    ForRange,
    ForallSubseq,
    StateSpecific,
]


def validate_spec(spec) -> list[str]:
    """Structural checks for one constraint; returns violations (empty = ok)."""
    problems: list[str] = []
    if isinstance(spec, Cardinality):
        if not isinstance(spec.max_count, int) or isinstance(spec.max_count, bool):
            problems.append(f"cardinality bound {spec.max_count!r} is not an integer")
        elif spec.max_count < 0:
            problems.append(f"cardinality bound {spec.max_count} is negative")
    elif isinstance(spec, (AllDiff, LockToSequence, LockToSet)):
        pass
    elif isinstance(spec, ForRange):
        if not (1 <= spec.first <= spec.last):
            problems.append(
                f"for_range requires 1 <= first <= last, got ({spec.first}, {spec.last})"
            )
        problems.extend(validate_spec(spec.child))
    elif isinstance(spec, ForallSubseq):
        if spec.window < 1:
            problems.append(f"forall_subseq window must be >= 1, got {spec.window}")
        problems.extend(validate_spec(spec.child))
    elif isinstance(spec, StateSpecific):
        problems.extend(validate_spec(spec.child))
    else:
        problems.append(f"unknown constraint form: {spec!r}")
    return problems


def _require_valid(spec) -> None:
    problems = validate_spec(spec)
    if problems:
        raise ValueError("; ".join(problems))


def project_to_state(update: StateUpdate) -> StateUpdate:
    """Drop the emission part of an update, keeping only the state."""
    return StateUpdate(update.state, ())


def init_store(spec: ConstraintSpec):
    """Empty-history checker state for one constraint."""
    _require_valid(spec)
    return _init(spec)


def _init(spec):
    if isinstance(spec, Cardinality):
        return 0
    if isinstance(spec, AllDiff):
        return ()
    if isinstance(spec, LockToSequence):
        return 1
    if isinstance(spec, LockToSet):
        return ()
    if isinstance(spec, ForRange):
        return (1, _init(spec.child))
    if isinstance(spec, ForallSubseq):
        return ()
    if isinstance(spec, StateSpecific):
        return _init(spec.child)
    raise ValueError(f"unknown constraint form: {spec!r}")


def check_sat(spec: ConstraintSpec, update: StateUpdate, store):
    """Fold one update into a checker store.

    Returns the updated store on accept, ``None`` on reject. The input store
    is never mutated, so many branches of a search can share it.
    """
    if isinstance(spec, Cardinality):
        if any(p.matches(update) for p in spec.patterns):
            count = store + 1
            return count if count <= spec.max_count else None
        return store
    if isinstance(spec, AllDiff):
        # store is the sorted tuple of updates seen so far
        i = bisect_left(store, update)
        if i < len(store) and store[i] == update:
            return None
        return store[:i] + (update,) + store[i:]
    if isinstance(spec, LockToSequence):
        pos = store
        if pos > len(spec.sequence) or not spec.sequence[pos - 1].matches(update):
            return None
        return pos + 1
    if isinstance(spec, LockToSet):
        return store if any(p.matches(update) for p in spec.allowed) else None
    if isinstance(spec, ForRange):
        pos, child = store
        if spec.first <= pos <= spec.last:
            child = check_sat(spec.child, update, child)
            if child is None:
                return None
        return (pos + 1, child)
    if isinstance(spec, ForallSubseq):
        # Windows stay open until they have consumed `window` updates; a
        # violated window must not reject before completing, because the run
        # may end first and partial windows are unchecked.
        windows = store + ((0, _init(spec.child)),)
        kept = []
        for consumed, child in windows:
            if child is not None:
                child = check_sat(spec.child, update, child)
            consumed += 1
            if consumed == spec.window:
                if child is None:
                    return None
                continue
            kept.append((consumed, child))
        return tuple(kept)
    if isinstance(spec, StateSpecific):
        return check_sat(spec.child, project_to_state(update), store)
    raise ValueError(f"unknown constraint form: {spec!r}")


def declarative_satisfies(spec: ConstraintSpec, history: Sequence[StateUpdate]) -> bool:
    """Ground-truth semantics on a complete history, with no incrementality.

    This is the reference the incremental checkers are tested against and the
    filter used by the brute-force decoders.
    """
    history = tuple(history)
    if isinstance(spec, Cardinality):
        hits = sum(1 for u in history if any(p.matches(u) for p in spec.patterns))
        return hits <= spec.max_count
    if isinstance(spec, AllDiff):
        return len(set(history)) == len(history)
    if isinstance(spec, LockToSequence):
        if len(history) > len(spec.sequence):
            return False
        return all(p.matches(u) for p, u in zip(spec.sequence, history))
    if isinstance(spec, LockToSet):
        return all(any(p.matches(u) for p in spec.allowed) for u in history)
    if isinstance(spec, ForRange):
        return declarative_satisfies(spec.child, history[spec.first - 1 : spec.last])
    if isinstance(spec, ForallSubseq):
        return all(
            declarative_satisfies(spec.child, history[i : i + spec.window])
            for i in range(len(history) - spec.window + 1)
        )
    if isinstance(spec, StateSpecific):
        return declarative_satisfies(spec.child, [project_to_state(u) for u in history])
    raise ValueError(f"unknown constraint form: {spec!r}")


def _canon(value) -> str:
    # Canonical text of a store component; the property tests use it to
    # check that equal stores serialize identically.
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return repr(value)
    raise TypeError(f"non-canonical store component: {value!r}")


def init_aggregate(specs: Sequence[ConstraintSpec]) -> tuple:
    """Initial aggregate store for a list of declared constraints: a tuple of
    per-constraint stores in declaration order.

    Stores are canonical: two aggregates compare equal exactly when their
    serializations are byte-identical, and equal aggregates accept/reject any
    future update suffix identically.
    """
    return tuple(init_store(spec) for spec in specs)


def check_constraints(
    specs: Sequence[ConstraintSpec], update: StateUpdate, store: tuple
) -> Optional[tuple]:
    """Check one update against every declared constraint, in order.

    Checkers are consulted in declaration order and the first rejection wins;
    on accept, the returned aggregate carries every updated component.
    """
    if len(specs) != len(store):
        raise ValueError(
            f"store has {len(store)} components for {len(specs)} constraints"
        )
    parts = list(store)
    for i, spec in enumerate(specs):
        part = check_sat(spec, update, parts[i])
        if part is None:
            return None
        parts[i] = part
    return tuple(parts)


# ---------------------------------------------------------------------------
# Textual constraint syntax, e.g. state_specific(cardinality([insert,delete],4))


class ConstraintSyntaxError(ValueError):
    pass


# Combinators may nest at most this deep; the parser, the checkers and the
# declarative semantics all recurse once per level.
MAX_NESTING_DEPTH = 64


def parse_constraint(text: str) -> ConstraintSpec:
    """Parse one constraint written in functional syntax.

    Examples: ``alldiff``, ``cardinality([insert],20)``,
    ``for_range(1,50,lock_to_set([match]))``, ``lock_to_set([(match,a,a)])``.
    """
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.expect_end()
    _require_valid(spec)
    return spec


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()[],":
                self.tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(text[i:j])
                i = j
            else:
                raise ConstraintSyntaxError(f"unexpected character {ch!r} in constraint")
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ConstraintSyntaxError("constraint text ended unexpectedly")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ConstraintSyntaxError(f"expected {tok!r}, got {got!r}")

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise ConstraintSyntaxError(f"trailing input from {self.peek()!r}")

    def parse_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ConstraintSyntaxError(f"expected an integer, got {tok!r}")
        return int(tok)

    def parse_spec(self, depth: int = 0) -> ConstraintSpec:
        if depth > MAX_NESTING_DEPTH:
            raise ConstraintSyntaxError(
                f"constraint nests deeper than {MAX_NESTING_DEPTH} levels"
            )
        name = self.take()
        if name == "alldiff":
            if self.peek() == "(":
                self.take()
                self.expect(")")
            return AllDiff()
        if name == "cardinality":
            self.expect("(")
            patterns = self.parse_pattern_list()
            self.expect(",")
            bound = self.parse_int()
            self.expect(")")
            return Cardinality(patterns, bound)
        if name == "lock_to_sequence":
            self.expect("(")
            patterns = self.parse_pattern_list()
            self.expect(")")
            return LockToSequence(patterns)
        if name == "lock_to_set":
            self.expect("(")
            patterns = self.parse_pattern_list()
            self.expect(")")
            return LockToSet(patterns)
        if name == "for_range":
            self.expect("(")
            first = self.parse_int()
            self.expect(",")
            last = self.parse_int()
            self.expect(",")
            child = self.parse_spec(depth + 1)
            self.expect(")")
            return ForRange(first, last, child)
        if name == "forall_subseq":
            self.expect("(")
            window = self.parse_int()
            self.expect(",")
            child = self.parse_spec(depth + 1)
            self.expect(")")
            return ForallSubseq(window, child)
        if name == "state_specific":
            self.expect("(")
            child = self.parse_spec(depth + 1)
            self.expect(")")
            return StateSpecific(child)
        raise ConstraintSyntaxError(f"unknown constraint name {name!r}")

    def parse_pattern_list(self) -> tuple[UpdatePattern, ...]:
        self.expect("[")
        patterns: list[UpdatePattern] = []
        if self.peek() == "]":
            self.take()
            return tuple(patterns)
        while True:
            patterns.append(self.parse_pattern())
            tok = self.take()
            if tok == "]":
                return tuple(patterns)
            if tok != ",":
                raise ConstraintSyntaxError(f"expected ',' or ']', got {tok!r}")

    def parse_pattern(self) -> UpdatePattern:
        tok = self.take()
        if tok == "(":
            head = self.take()
            if not _is_name(head):
                raise ConstraintSyntaxError(f"bad state {head!r} in pattern")
            emitted: list[str] = []
            while True:
                nxt = self.take()
                if nxt == ")":
                    break
                if nxt != ",":
                    raise ConstraintSyntaxError(f"expected ',' or ')', got {nxt!r}")
                sym = self.take()
                if sym == WILDCARD or not _is_name(sym):
                    raise ConstraintSyntaxError(f"bad emission symbol {sym!r} in pattern")
                emitted.append(sym)
            state = None if head == WILDCARD else head
            return UpdatePattern(state, tuple(emitted))
        if _is_name(tok):
            return as_pattern(tok)
        raise ConstraintSyntaxError(f"bad pattern {tok!r}")


def _is_name(tok: str) -> bool:
    return bool(tok) and tok not in "()[]," and not tok[0].isdigit()


def format_pattern(pattern: UpdatePattern) -> str:
    if pattern.emitted is None:
        return pattern.state if pattern.state is not None else WILDCARD
    head = pattern.state if pattern.state is not None else WILDCARD
    return "(" + ",".join((head,) + pattern.emitted) + ")"


def format_constraint(spec: ConstraintSpec) -> str:
    """Render a constraint back into the functional syntax."""
    if isinstance(spec, Cardinality):
        pats = ",".join(format_pattern(p) for p in spec.patterns)
        return f"cardinality([{pats}],{spec.max_count})"
    if isinstance(spec, AllDiff):
        return "alldiff"
    if isinstance(spec, LockToSequence):
        pats = ",".join(format_pattern(p) for p in spec.sequence)
        return f"lock_to_sequence([{pats}])"
    if isinstance(spec, LockToSet):
        pats = ",".join(format_pattern(p) for p in spec.allowed)
        return f"lock_to_set([{pats}])"
    if isinstance(spec, ForRange):
        return f"for_range({spec.first},{spec.last},{format_constraint(spec.child)})"
    if isinstance(spec, ForallSubseq):
        return f"forall_subseq({spec.window},{format_constraint(spec.child)})"
    if isinstance(spec, StateSpecific):
        return f"state_specific({format_constraint(spec.child)})"
    raise ValueError(f"unknown constraint form: {spec!r}")
