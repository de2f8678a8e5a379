"""Shared fixtures and independent reference helpers for the test suite."""

from __future__ import annotations

import itertools

from chmm import Hmm, StateUpdate

# Small two-emitting-state model used across modules.
HMM_A = Hmm(
    states=("s0", "s1", "s2"),
    alphabet=("a", "b"),
    transitions=((0.6, 0.4), (0.7, 0.3), (0.4, 0.6)),
    emissions=((0.9, 0.1), (0.2, 0.8)),
)


def upd(state: str, *emitted: str) -> StateUpdate:
    return StateUpdate(state, emitted)


def direct_run_probability(hmm: Hmm, path, observation) -> float:
    """Plain product of transition and emission factors, no log tricks."""
    prob = 1.0
    prev = path[0]
    for state, symbol in zip(path[1:], observation):
        prob *= hmm.transitions[hmm.state_index[prev]][hmm.state_index[state] - 1]
        prob *= hmm.emissions[hmm.state_index[state] - 1][hmm.symbol_index[symbol]]
        prev = state
    return prob


def enumerate_paths(hmm: Hmm, length: int):
    """All state sequences of the given length over the emitting states."""
    emitting = hmm.states[1:]
    for tail in itertools.product(emitting, repeat=length):
        yield (hmm.states[0],) + tail


def exhaustive_best(hmm: Hmm, observation):
    """Independent maximum over every path, by direct multiplication."""
    best = None
    for path in enumerate_paths(hmm, len(observation)):
        prob = direct_run_probability(hmm, path, observation)
        if prob > 0.0 and (best is None or prob > best[1]):
            best = (path, prob)
    return best
