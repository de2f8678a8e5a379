"""Incremental side-constraint checkers over (state, emissions) updates.

A constraint restricts the sequence of per-step updates a decoder may take.
Each constraint form pairs a declarative reading (``declarative_satisfies``,
evaluated on a complete history) with an incremental checker: ``init_store``
builds the empty-history checker state and ``check_sat`` folds one update
into it, answering accept (a new store) or reject (``None``). A checker may
only reject once no extension of the history can satisfy the constraint,
which is what makes rejection safe for pruning partial decoder paths.

Each spec object is compiled once, on first use, into its initial store and
a step function ``(store, update) -> store | None``, and keeps both (see
``_compile``, the one definition of every form). Compiling checks the
form's fields and raises ``ValueError`` at the first fault, so a spec object
is checked once in its lifetime (a failed compile is not kept);
``validate_spec`` reports that first fault. Combinators close over their
child's compiled step, so stepping a nested constraint never dispatches on
its form again. A step is a pure function of its arguments, so nothing of one
decode reaches the next.

Stores are immutable values built from ints, tuples and ``None``, canonical
within one process: equal histories produce identical stores, equal stores
serialize identically, and equal stores behave identically on any future
updates. That last property is what lets a decoder merge partial paths that
reach the same store. An ``alldiff`` store is an int with one bit per update
seen. Every checker takes the bits from one process-wide numbering, which
grows by one bit per distinct update the process sees, so a store means the
same to every spec in the process but not to another process. A store holds
nothing that follows from the history's length: a ``forall_subseq`` store is
the tuple of its open windows' child stores, oldest first, and each window's
fill follows from its place in that tuple.

The textual syntax, e.g. ``state_specific(cardinality([insert,delete],4))``,
is one table, ``_SYNTAX``: each form's name, its class and the kinds of its
fields in field order. ``parse_constraint`` and ``format_constraint`` both
read it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import count
from typing import Callable, NamedTuple, Optional, Sequence, Union

WILDCARD = "_"
# The bit of each update that any alldiff checker has seen. One table for the
# process, so that equal specs agree on each other's stores.
_UPDATE_BITS: dict = {}
_BIT_NUMBERS = count()


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


class _Form:
    """Base of the constraint forms: each spec object compiles its checker
    on first use and keeps it, the way ``Hmm.state_index`` is kept."""

    @cached_property
    def _compiled(self) -> "_Checker":
        return _compile(self)

    def __getstate__(self):
        # The compiled checker is made of closures, which do not pickle; a
        # copy compiles its own.
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


@dataclass(frozen=True)
class Cardinality(_Form):
    """At most ``max_count`` updates matching any of ``patterns``."""

    patterns: tuple[UpdatePattern, ...]
    max_count: int

    def __post_init__(self):
        object.__setattr__(self, "patterns", _patterns(self.patterns))


@dataclass(frozen=True)
class AllDiff(_Form):
    """All updates in the history are pairwise distinct."""


@dataclass(frozen=True)
class LockToSequence(_Form):
    """The history must follow ``sequence`` position by position.

    Histories longer than the sequence are rejected; shorter ones are
    accepted as long as every consumed position matched.
    """

    sequence: tuple[UpdatePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequence", _patterns(self.sequence))


@dataclass(frozen=True)
class LockToSet(_Form):
    """Every update must match at least one of ``allowed``."""

    allowed: tuple[UpdatePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "allowed", _patterns(self.allowed))


@dataclass(frozen=True)
class ForRange(_Form):
    """Apply ``child`` only to positions first..last (1-based, inclusive)."""

    first: int
    last: int
    child: "ConstraintSpec"


@dataclass(frozen=True)
class ForallSubseq(_Form):
    """Apply ``child`` to every full window of ``window`` consecutive updates.

    Trailing windows shorter than ``window`` are never checked.
    """

    window: int
    child: "ConstraintSpec"


@dataclass(frozen=True)
class StateSpecific(_Form):
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
    """Structural checks for one constraint: the first fault found, or an
    empty list when the spec compiles."""
    try:
        _checker(spec)
    except ValueError as exc:
        return [str(exc)]
    return []


def project_to_state(update: StateUpdate) -> StateUpdate:
    """Drop the emission part of an update, keeping only the state."""
    return StateUpdate(update.state, ())


def init_store(spec: ConstraintSpec):
    """Empty-history checker state for one constraint."""
    return _checker(spec).init


def check_sat(spec: ConstraintSpec, update: StateUpdate, store):
    """Fold one update into a checker store.

    Returns the updated store on accept, ``None`` on reject. The input store
    is never mutated, so many branches of a search can share it.
    """
    return _checker(spec).step(store, update)


class _Checker(NamedTuple):
    """One constraint compiled: its empty-history store and its step
    function ``(store, update) -> store | None``."""

    init: object
    step: Callable


def _checker(spec) -> _Checker:
    try:
        return spec._compiled
    except AttributeError:
        raise ValueError(f"unknown constraint form: {spec!r}") from None


def _int_field(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _compile(spec) -> _Checker:
    """Each constraint form: its field checks (its own before its child's),
    initial store and step."""
    if isinstance(spec, Cardinality):
        patterns, bound = spec.patterns, _int_field(spec.max_count, "cardinality bound")
        if bound < 0:
            raise ValueError(f"cardinality bound {bound} is negative")

        def cardinality(count, update):
            if any(p.matches(update) for p in patterns):
                count += 1
                return count if count <= bound else None
            return count

        return _Checker(0, cardinality)
    if isinstance(spec, AllDiff):

        def alldiff(seen, update):
            # seen has the bits of the updates so far
            bit = _UPDATE_BITS.get(update)
            if bit is None:
                # setdefault and next() each run under the interpreter lock, so
                # threads racing on a new update all get the bit that was stored.
                bit = _UPDATE_BITS.setdefault(update, 1 << next(_BIT_NUMBERS))
            return None if seen & bit else seen | bit

        return _Checker(0, alldiff)
    if isinstance(spec, LockToSequence):
        sequence = spec.sequence
        size = len(sequence)

        def lock_to_sequence(pos, update):
            if pos > size or not sequence[pos - 1].matches(update):
                return None
            return pos + 1

        return _Checker(1, lock_to_sequence)
    if isinstance(spec, LockToSet):
        allowed = spec.allowed

        def lock_to_set(store, update):
            return store if any(p.matches(update) for p in allowed) else None

        return _Checker((), lock_to_set)
    if isinstance(spec, ForRange):
        first = _int_field(spec.first, "for_range first")
        last = _int_field(spec.last, "for_range last")
        if not 1 <= first <= last:
            raise ValueError(
                f"for_range requires 1 <= first <= last, got ({first}, {last})"
            )
        child_init, child_step = _checker(spec.child)

        def for_range(store, update):
            pos, child = store
            if first <= pos <= last:
                child = child_step(child, update)
                if child is None:
                    return None
            return (pos + 1, child)

        return _Checker((1, child_init), for_range)
    if isinstance(spec, ForallSubseq):
        window = _int_field(spec.window, "forall_subseq window")
        if window < 1:
            raise ValueError(f"forall_subseq window must be >= 1, got {window}")
        full = window - 1
        child_init, child_step = _checker(spec.child)

        def forall_subseq(windows, update):
            # The store holds the child stores of the open windows, oldest
            # first, with None for a violated one; how many updates each has
            # consumed follows from its place. A violated window must not
            # reject before completing, because the run may end first and
            # partial windows are unchecked. After h updates min(h, window-1)
            # windows are open, so the oldest completes when all are open.
            if not full:
                return windows if child_step(child_init, update) is not None else None
            if len(windows) == full:
                oldest, windows = windows[0], windows[1:]
                if oldest is None or child_step(oldest, update) is None:
                    return None
            kept = [None if child is None else child_step(child, update) for child in windows]
            kept.append(child_step(child_init, update))
            return tuple(kept)

        return _Checker((), forall_subseq)
    if isinstance(spec, StateSpecific):
        child_init, child_step = _checker(spec.child)

        def state_specific(store, update):
            return child_step(store, project_to_state(update))

        return _Checker(child_init, state_specific)
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


def init_aggregate(specs: Sequence[ConstraintSpec]) -> tuple:
    """Initial aggregate store for a list of declared constraints: a tuple of
    per-constraint stores in declaration order.

    Stores are canonical: two aggregates compare equal exactly when their
    serializations are byte-identical, and equal aggregates accept/reject any
    future update suffix identically.
    """
    return tuple(_checker(spec).init for spec in specs)


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
    parts = []
    for spec, part in zip(specs, store):
        part = _checker(spec).step(part, update)
        if part is None:
            return None
        parts.append(part)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Textual constraint syntax, e.g. state_specific(cardinality([insert,delete],4))


class ConstraintSyntaxError(ValueError):
    pass


# Combinators may nest at most this deep; the parser, the checkers and the
# declarative semantics all recurse once per level.
MAX_NESTING_DEPTH = 64


# Each form's name, class and the kinds of its fields in field order: a
# pattern list, an int or a child spec. The parser reads its fields from this
# table and format_constraint prints them from it.
_SYNTAX = {
    "cardinality": (Cardinality, ("patterns", "int")),
    "alldiff": (AllDiff, ()),
    "lock_to_sequence": (LockToSequence, ("patterns",)),
    "lock_to_set": (LockToSet, ("patterns",)),
    "for_range": (ForRange, ("int", "int", "spec")),
    "forall_subseq": (ForallSubseq, ("int", "spec")),
    "state_specific": (StateSpecific, ("spec",)),
}
_NAMES = {form: name for name, (form, _kinds) in _SYNTAX.items()}


def parse_constraint(text: str) -> ConstraintSpec:
    """Parse one constraint written in functional syntax.

    Examples: ``alldiff``, ``cardinality([insert],20)``,
    ``for_range(1,50,lock_to_set([match]))``, ``lock_to_set([(match,a,a)])``.
    """
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.expect_end()
    _checker(spec)
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
            elif "0" <= ch <= "9":  # str.isdigit() admits every Unicode digit
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
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
        if not (tok.isascii() and tok.isdigit()):
            raise ConstraintSyntaxError(f"expected an integer, got {tok!r}")
        return int(tok)

    def parse_spec(self, depth: int = 0) -> ConstraintSpec:
        if depth > MAX_NESTING_DEPTH:
            raise ConstraintSyntaxError(
                f"constraint nests deeper than {MAX_NESTING_DEPTH} levels"
            )
        name = self.take()
        try:
            form, kinds = _SYNTAX[name]
        except KeyError:
            raise ConstraintSyntaxError(f"unknown constraint name {name!r}") from None
        values = []
        # Only a form without fields may omit its parentheses: alldiff, alldiff().
        if kinds or self.peek() == "(":
            self.expect("(")
            for i, kind in enumerate(kinds):
                if i:
                    self.expect(",")
                if kind == "patterns":
                    values.append(self.parse_pattern_list())
                elif kind == "int":
                    values.append(self.parse_int())
                else:
                    values.append(self.parse_spec(depth + 1))
            self.expect(")")
        return form(*values)

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
    return bool(tok) and tok not in "()[]," and not "0" <= tok[0] <= "9"


def format_pattern(pattern: UpdatePattern) -> str:
    if pattern.emitted is None:
        return pattern.state if pattern.state is not None else WILDCARD
    head = pattern.state if pattern.state is not None else WILDCARD
    return "(" + ",".join((head,) + pattern.emitted) + ")"


def format_constraint(spec: ConstraintSpec) -> str:
    """Render a constraint back into the functional syntax."""
    name = _NAMES.get(type(spec))
    if name is None:
        raise ValueError(f"unknown constraint form: {spec!r}")
    kinds = _SYNTAX[name][1]
    if not kinds:
        return name
    parts = []
    for kind, field in zip(kinds, fields(spec)):
        value = getattr(spec, field.name)
        if kind == "patterns":
            parts.append("[" + ",".join(format_pattern(p) for p in value) + "]")
        elif kind == "int":
            parts.append(str(value))
        else:
            parts.append(format_constraint(value))
    return f"{name}({','.join(parts)})"
