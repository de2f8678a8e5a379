"""File formats: model files, constraint files and FASTA sequences.

A model file is line-oriented text. Blank lines and ``#`` comments are
ignored; the first significant line names the kind (``hmm`` or ``pair``) and
the rest are labelled lines, in any order::

    hmm                          pair
    states: s0 s1 s2             alphabet: A C G T
    alphabet: a b                gap_open: 0.1
    transitions s0: 0.6 0.4      gap_extend: 0.3
    transitions s1: 0.7 0.3      match A: 0.2 0.02 0.02 0.01
    transitions s2: 0.4 0.6      ...
    emissions s1: 0.9 0.1        gap: 0.25 0.25 0.25 0.25
    emissions s2: 0.2 0.8

Transition columns cover the non-initial states in declaration order; match
rows are keyed by the first symbol of the emitted pair. The table ``_FORMAT``
is the single definition of this format: ``parse_model_text`` reads
documents from it and ``format_model`` writes them.

Every file is read through ``_read_text``, which refuses one longer than
``MAX_INPUT_CHARS`` characters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .constraints import ConstraintSpec, parse_constraint
from .hmm import Hmm, validate_model
from .pairhmm import PairHmmParams, validate_pair_params


class ModelParseError(ValueError):
    pass


Model = Union[Hmm, PairHmmParams]

MAX_INPUT_CHARS = 16 * 1024 * 1024  # longest model, constraint or FASTA file read


def _read_text(path) -> str:
    """The file's text; ValueError if it holds more than MAX_INPUT_CHARS
    characters, so an endless input such as /dev/zero ends in one message.
    Read in chunks below the allocator's mmap threshold: one read sized to
    the cap allocates 16 MiB per file, which raises that threshold for good."""
    parts, size = [], 0
    with Path(path).open() as fh:
        while part := fh.read(1 << 16):
            size += len(part)
            if size > MAX_INPUT_CHARS:
                raise ValueError(f"{path}: more than {MAX_INPUT_CHARS} characters")
            parts.append(part)
    return "".join(parts)


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


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


def _number(lineno: int, label: str, text: str) -> float:
    values = _floats(lineno, label, text)
    if len(values) != 1:
        raise ModelParseError(f"line {lineno}: {label} takes one number")
    return values[0]


def _names(lineno: int, label: str, text: str) -> tuple[str, ...] | None:
    return tuple(text.split()) or None  # an empty list of names counts as missing


# The model-file format: per kind, the model class and its fields in file
# order, each as ``label: (read, attribute, rows)``. ``read`` turns one line's
# values into the attribute's value (or into one row of it). ``rows`` is None
# for a field given once; a field with one row per key, whose label ends in the
# space before the key (``transitions s1:``), gives the names field
# holding its keys, how many leading keys have no row, and the words of its
# messages: the row's noun, the key's noun, and what a stray key is called.
_FORMAT = {
    "hmm": (Hmm, {
        "states": (_names, "states", None),
        "alphabet": (_names, "alphabet", None),
        "transitions ": (_floats, "transitions",
                        ("states", 0, "transition", "state", "unknown state")),
        "emissions ": (_floats, "emissions",
                      ("states", 1, "emission", "state", "unknown or initial state")),
    }),
    "pair": (PairHmmParams, {
        "alphabet": (_names, "alphabet", None),
        "gap_open": (_number, "gap_open", None),
        "gap_extend": (_number, "gap_extend", None),
        "match ": (_floats, "match_emission",
                  ("alphabet", 0, "match", "symbol", "unknown symbol")),
        "gap": (_floats, "gap_emission", None),
    }),
}


def parse_model_text(text: str) -> Model:
    """Parse and validate a model document; raises ModelParseError."""
    lines = _significant_lines(text)
    if not lines:
        raise ModelParseError("empty model file")
    kind_line, kind = lines[0]
    if kind not in _FORMAT:
        raise ModelParseError(
            f"line {kind_line}: unknown model kind {kind!r} (expected 'hmm' or 'pair')"
        )
    cls, fields = _FORMAT[kind]
    found: dict = {}  # attribute -> value; rows are a dict key -> row until all are read
    for lineno, line in lines[1:]:
        label, colon, rest = line.partition(":")
        if not colon:
            raise ModelParseError(f"line {lineno}: expected 'label: values', got {line!r}")
        label = label.strip()
        head, space, key = label.partition(" ")
        field = fields.get(head + space)
        if field is None:
            raise ModelParseError(f"line {lineno}: unknown field {label!r}")
        read, attr, rows = field
        if rows:
            got = found.setdefault(attr, {})
            key = key.lstrip()
            if key in got:
                raise ModelParseError(f"line {lineno}: duplicate {rows[2]} row for {key!r}")
            got[key] = read(lineno, label, rest)
        elif attr in found:
            raise ModelParseError(f"line {lineno}: duplicate field {label!r}")
        else:
            found[attr] = read(lineno, label, rest)
    # Names fields precede the rows they key, so a missing one is reported first.
    keyed = []  # per row field: attribute, words, rows read, keys that need a row
    for label, (_, attr, rows) in fields.items():
        if rows:
            keyed.append((attr, rows[2:], found.setdefault(attr, {}), found[rows[0]][rows[1]:]))
        elif found.get(attr) is None:
            raise ModelParseError(f"missing '{label}:' line")
    for _, (noun, word, _), got, keys in keyed:
        for key in keys:
            if key not in got:
                raise ModelParseError(f"missing {noun} row for {word} {key!r}")
    for attr, (noun, _, stray), got, keys in keyed:
        for key in got:
            if key not in keys:
                raise ModelParseError(f"{noun} row for {stray} {key!r}")
        found[attr] = tuple(got[key] for key in keys)
    model = cls(**found)
    # looked up at call time, not kept in _FORMAT, so a wrapper on the module global is called
    problems = (validate_model if cls is Hmm else validate_pair_params)(model)
    if problems:
        raise ModelParseError("model validation failed: " + "; ".join(problems))
    return model


def parse_model(path) -> Model:
    """Read and validate a model file."""
    return parse_model_text(_read_text(path))


def format_model(model: Model) -> str:
    """Render a model as a document that parses back to an identical model."""
    for kind, (cls, fields) in _FORMAT.items():
        if isinstance(model, cls):
            break
    else:
        raise TypeError(f"not a model: {model!r}")
    lines = [kind]
    for label, (read, attr, rows) in fields.items():
        value = getattr(model, attr)
        if rows:
            keys = getattr(model, rows[0])[rows[1]:]
            lines.extend(
                f"{label}{key}: " + " ".join(map(repr, row)) for key, row in zip(keys, value)
            )
        elif read is _names:
            lines.append(f"{label}: " + " ".join(value))
        elif read is _number:
            lines.append(f"{label}: {value!r}")
        else:
            lines.append(f"{label}: " + " ".join(map(repr, value)))
    return "\n".join(lines) + "\n"


def parse_constraints_text(text: str) -> list[ConstraintSpec]:
    """One constraint per significant line, in functional syntax; every
    error names its line."""
    specs = []
    for lineno, line in _significant_lines(text):
        try:
            specs.append(parse_constraint(line))
        except ValueError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return specs


def parse_constraints(path) -> list[ConstraintSpec]:
    """Read a constraint declaration file."""
    return parse_constraints_text(_read_text(path))


def read_fasta(path) -> list[tuple[str, str]]:
    """Read FASTA records as (header, sequence) pairs; sequences uppercased.
    Format errors start with the path."""
    records: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].strip(), []))
        else:
            if not records:
                raise ValueError(
                    f"{path}: line {lineno}: sequence data before the first '>' header"
                )
            records[-1][1].append(line.upper())
    if not records:
        raise ValueError(f"{path}: no FASTA records found")
    return [(header, "".join(parts)) for header, parts in records]
