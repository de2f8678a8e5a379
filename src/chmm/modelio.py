"""File formats: model files, constraint files and FASTA sequences.

A model file is line-oriented text. Blank lines and ``#`` comments are
ignored; the first significant line names the kind (``hmm`` or ``pair``) and
the rest are labelled rows::

    hmm                          pair
    states: s0 s1 s2             alphabet: A C G T
    alphabet: a b                gap_open: 0.1
    transitions s0: 0.6 0.4      gap_extend: 0.3
    transitions s1: 0.7 0.3      match A: 0.2 0.02 0.02 0.01
    transitions s2: 0.4 0.6      ...
    emissions s1: 0.9 0.1        gap: 0.25 0.25 0.25 0.25
    emissions s2: 0.2 0.8

Transition columns cover the non-initial states in declaration order; match
rows are keyed by the first symbol of the emitted pair.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .constraints import ConstraintSpec, ConstraintSyntaxError, parse_constraint
from .hmm import Hmm, validate_model
from .pairhmm import PairHmmParams, validate_pair_params


class ModelParseError(ValueError):
    pass


Model = Union[Hmm, PairHmmParams]


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _labelled(lines, scalars: tuple[str, ...]):
    """Yield ``(lineno, label, values)`` per line; a field named in
    ``scalars`` may appear only once."""
    seen: set[str] = set()
    for lineno, line in lines:
        if ":" not in line:
            raise ModelParseError(f"line {lineno}: expected 'label: values', got {line!r}")
        label, _, rest = line.partition(":")
        label = label.strip()
        if label in scalars:
            if label in seen:
                raise ModelParseError(f"line {lineno}: duplicate field {label!r}")
            seen.add(label)
        yield lineno, label, rest.strip()


def _floats(lineno: int, label: str, text: str) -> tuple[float, ...]:
    values = []
    for tok in text.split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ModelParseError(
                f"line {lineno}: field {label!r}: {tok!r} is not a number"
            ) from None
    return tuple(values)


def parse_model_text(text: str) -> Model:
    """Parse and validate a model document; raises ModelParseError."""
    lines = _significant_lines(text)
    if not lines:
        raise ModelParseError("empty model file")
    kind_line, kind = lines[0]
    if kind == "hmm":
        return _parse_hmm(lines[1:])
    if kind == "pair":
        return _parse_pair(lines[1:])
    raise ModelParseError(
        f"line {kind_line}: unknown model kind {kind!r} (expected 'hmm' or 'pair')"
    )


def _parse_hmm(lines) -> Hmm:
    states: tuple[str, ...] = ()
    alphabet: tuple[str, ...] = ()
    trans: dict[str, tuple[float, ...]] = {}
    emit: dict[str, tuple[float, ...]] = {}
    for lineno, label, rest in _labelled(lines, ("states", "alphabet")):
        if label == "states":
            states = tuple(rest.split())
        elif label == "alphabet":
            alphabet = tuple(rest.split())
        elif label.startswith("transitions "):
            state = label.split(None, 1)[1]
            if state in trans:
                raise ModelParseError(f"line {lineno}: duplicate transition row for {state!r}")
            trans[state] = _floats(lineno, label, rest)
        elif label.startswith("emissions "):
            state = label.split(None, 1)[1]
            if state in emit:
                raise ModelParseError(f"line {lineno}: duplicate emission row for {state!r}")
            emit[state] = _floats(lineno, label, rest)
        else:
            raise ModelParseError(f"line {lineno}: unknown field {label!r}")
    if not states:
        raise ModelParseError("missing 'states:' line")
    if not alphabet:
        raise ModelParseError("missing 'alphabet:' line")
    for s in states:
        if s not in trans:
            raise ModelParseError(f"missing transition row for state {s!r}")
    for s in states[1:]:
        if s not in emit:
            raise ModelParseError(f"missing emission row for state {s!r}")
    for s in trans:
        if s not in states:
            raise ModelParseError(f"transition row for unknown state {s!r}")
    for s in emit:
        if s not in states[1:]:
            raise ModelParseError(f"emission row for unknown or initial state {s!r}")
    hmm = Hmm(
        states=states,
        alphabet=alphabet,
        transitions=tuple(trans[s] for s in states),
        emissions=tuple(emit[s] for s in states[1:]),
    )
    problems = validate_model(hmm)
    if problems:
        raise ModelParseError("model validation failed: " + "; ".join(problems))
    return hmm


def _parse_pair(lines) -> PairHmmParams:
    alphabet: tuple[str, ...] = ()
    gap_open = gap_extend = None
    match_rows: dict[str, tuple[float, ...]] = {}
    gap_row = None
    for lineno, label, rest in _labelled(
        lines, ("alphabet", "gap_open", "gap_extend", "gap")
    ):
        if label == "alphabet":
            alphabet = tuple(rest.split())
        elif label == "gap_open":
            gap_open = _floats(lineno, label, rest)
            if len(gap_open) != 1:
                raise ModelParseError(f"line {lineno}: gap_open takes one number")
            gap_open = gap_open[0]
        elif label == "gap_extend":
            gap_extend = _floats(lineno, label, rest)
            if len(gap_extend) != 1:
                raise ModelParseError(f"line {lineno}: gap_extend takes one number")
            gap_extend = gap_extend[0]
        elif label.startswith("match "):
            sym = label.split(None, 1)[1]
            if sym in match_rows:
                raise ModelParseError(f"line {lineno}: duplicate match row for {sym!r}")
            match_rows[sym] = _floats(lineno, label, rest)
        elif label == "gap":
            gap_row = _floats(lineno, label, rest)
        else:
            raise ModelParseError(f"line {lineno}: unknown field {label!r}")
    if not alphabet:
        raise ModelParseError("missing 'alphabet:' line")
    if gap_open is None:
        raise ModelParseError("missing 'gap_open:' line")
    if gap_extend is None:
        raise ModelParseError("missing 'gap_extend:' line")
    if gap_row is None:
        raise ModelParseError("missing 'gap:' line")
    for sym in alphabet:
        if sym not in match_rows:
            raise ModelParseError(f"missing match row for symbol {sym!r}")
    for sym in match_rows:
        if sym not in alphabet:
            raise ModelParseError(f"match row for unknown symbol {sym!r}")
    params = PairHmmParams(
        alphabet=alphabet,
        gap_open=gap_open,
        gap_extend=gap_extend,
        match_emission=tuple(match_rows[s] for s in alphabet),
        gap_emission=gap_row,
    )
    problems = validate_pair_params(params)
    if problems:
        raise ModelParseError("model validation failed: " + "; ".join(problems))
    return params


def parse_model(path) -> Model:
    """Read and validate a model file."""
    return parse_model_text(Path(path).read_text())


def format_model(model: Model) -> str:
    """Render a model as a document that parses back to an identical model."""
    lines: list[str] = []
    if isinstance(model, Hmm):
        lines.append("hmm")
        lines.append("states: " + " ".join(model.states))
        lines.append("alphabet: " + " ".join(model.alphabet))
        for state, row in zip(model.states, model.transitions):
            lines.append(f"transitions {state}: " + " ".join(repr(p) for p in row))
        for state, row in zip(model.states[1:], model.emissions):
            lines.append(f"emissions {state}: " + " ".join(repr(p) for p in row))
    elif isinstance(model, PairHmmParams):
        lines.append("pair")
        lines.append("alphabet: " + " ".join(model.alphabet))
        lines.append(f"gap_open: {model.gap_open!r}")
        lines.append(f"gap_extend: {model.gap_extend!r}")
        for sym, row in zip(model.alphabet, model.match_emission):
            lines.append(f"match {sym}: " + " ".join(repr(p) for p in row))
        lines.append("gap: " + " ".join(repr(p) for p in model.gap_emission))
    else:
        raise TypeError(f"not a model: {model!r}")
    return "\n".join(lines) + "\n"


def parse_constraints_text(text: str) -> list[ConstraintSpec]:
    """One constraint per significant line, in functional syntax."""
    specs = []
    for lineno, line in _significant_lines(text):
        try:
            specs.append(parse_constraint(line))
        except ConstraintSyntaxError as exc:
            raise ConstraintSyntaxError(f"line {lineno}: {exc}") from None
    return specs


def parse_constraints(path) -> list[ConstraintSpec]:
    """Read a constraint declaration file."""
    return parse_constraints_text(Path(path).read_text())


def read_fasta(path) -> list[tuple[str, str]]:
    """Read FASTA records as (header, sequence) pairs; sequences uppercased."""
    records: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].strip(), []))
        else:
            if not records:
                raise ValueError(
                    f"line {lineno}: sequence data before the first '>' header"
                )
            records[-1][1].append(line.upper())
    if not records:
        raise ValueError("no FASTA records found")
    return [(header, "".join(parts)) for header, parts in records]
