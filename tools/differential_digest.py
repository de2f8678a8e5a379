"""Print one sha256 over a fixed set of decoder and aligner results.

Two trees that print the same digest decode and align every instance below
to the same path or operations, the same log-probability bit for bit, and
the same ``DecodeStats`` counters. The instances are:

- 3,000 ``random_chmm_instance(random.Random(7), max_len=9)`` instances,
  each decoded with ``prune=True`` and with ``prune=False``;
- 2,000 ``align`` calls drawn from ``random.Random(8)``: parameters from
  ``random_pair_params``, x and y of 0-7 symbols. The first 1,500 carry an
  indel budget drawn from (None, 0, 1, 2); the last 500 carry
  ``random_constraint_set(..., emit_arity=2)`` over the match, insert and
  delete states.

Run from the repository root: ``python tools/differential_digest.py``. It
prints the expected and the computed digest and exits 1 when they differ.
The random parameters are normalized with ``math.fsum``, so every supported
Python version computes the same digest. A change that alters any result
updates ``EXPECTED`` and says why.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from chmm.constraints import Cardinality, StateSpecific  # noqa: E402
from chmm.decoder import DecodeStats, constrained_viterbi  # noqa: E402
from chmm.pairhmm import align, build_pair_chmm  # noqa: E402
from chmm.random_instances import (  # noqa: E402
    random_chmm_instance,
    random_constraint_set,
    random_pair_params,
)

EXPECTED = "1fe9315ef46e5b53bc31baf3f9c1488ba40557f4778a345f0d34a00700c0215d"
DECODE_INSTANCES = 3000
BUDGET_ALIGNS = 1500
CONSTRAINED_ALIGNS = 500


def _record(digest, result, stats: DecodeStats) -> None:
    if result is None:
        text = "None"
    else:
        path, log_prob = result
        text = repr(path) + " " + float.hex(log_prob)
    counters = (stats.expansions, stats.prunes, stats.peak_entries, stats.stores, stats.checks)
    digest.update((text + " " + repr(counters) + "\n").encode())


def digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(7)
    for _ in range(DECODE_INSTANCES):
        chmm, obs = random_chmm_instance(rng, max_len=9)
        for prune in (True, False):
            stats = DecodeStats()
            _record(h, constrained_viterbi(chmm, obs, prune=prune, stats=stats), stats)
    rng = random.Random(8)
    for i in range(BUDGET_ALIGNS + CONSTRAINED_ALIGNS):
        params = random_pair_params(rng)
        x = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 7)))
        y = tuple(rng.choice(params.alphabet) for _ in range(rng.randint(0, 7)))
        if i < BUDGET_ALIGNS:
            budget = rng.choice((None, 0, 1, 2))
            specs = (
                ()
                if budget is None
                else (StateSpecific(Cardinality(("insert", "delete"), budget)),)
            )
        else:
            specs = random_constraint_set(
                rng, ("match", "insert", "delete"), params.alphabet, len(x) + len(y),
                emit_arity=2,
            )
        stats = DecodeStats()
        alignment = align(build_pair_chmm(params, specs), x, y, stats=stats)
        result = None if alignment is None else (alignment.ops, alignment.log_prob)
        _record(h, result, stats)
    return h.hexdigest()


if __name__ == "__main__":
    computed = digest()
    print(f"expected {EXPECTED}\ncomputed {computed}")
    sys.exit(0 if computed == EXPECTED else 1)
