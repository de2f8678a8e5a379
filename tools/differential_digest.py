"""Print two sha256 digests over a fixed set of decoder and aligner runs.

The results digest covers each path or operation list and its
log-probability bit for bit (``float.hex``); the counters digest covers the
``DecodeStats`` counters of the same runs. Two trees that print the same
results digest decode and align every instance below alike; a change that
alters only the search (which entries merge, how many checks run) moves the
counters digest alone. The instances are:

- 3,000 ``random_chmm_instance(random.Random(7), max_len=9)`` instances,
  each decoded with ``prune=True`` and with ``prune=False``;
- 2,000 ``align`` calls drawn from ``random.Random(8)``: parameters from
  ``random_pair_params``, x and y of 0-7 symbols. The first 1,500 carry an
  indel budget drawn from (None, 0, 1, 2); the last 500 carry
  ``random_constraint_set(..., emit_arity=2)`` over the match, insert and
  delete states.

Run from the repository root: ``python tools/differential_digest.py``. It
prints the expected and the computed value of each digest and exits 1 when
either differs. The random parameters are normalized with ``math.fsum``, so
every supported Python version computes the same digests. A change that
alters results updates ``RESULTS_EXPECTED``, one that alters counters updates
``COUNTERS_EXPECTED``, and either says why.
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

RESULTS_EXPECTED = "8e25a0e90b280907534e53e709722a178855f40fa5091d27efbbef045626fde2"
COUNTERS_EXPECTED = "aff4f4b07e4cc76ef0ee55eb78a2a4ded78393fafc5919242fde55919c3b20bd"
DECODE_INSTANCES = 3000
BUDGET_ALIGNS = 1500
CONSTRAINED_ALIGNS = 500


def _record(results, counters, result, stats: DecodeStats) -> None:
    if result is None:
        text = "None"
    else:
        path, log_prob = result
        text = repr(path) + " " + float.hex(log_prob)
    results.update((text + "\n").encode())
    fields = (stats.expansions, stats.prunes, stats.peak_entries, stats.stores, stats.checks)
    counters.update((repr(fields) + "\n").encode())


def digests() -> tuple[str, str]:
    """The results digest and the counters digest."""
    results, counters = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(7)
    for _ in range(DECODE_INSTANCES):
        chmm, obs = random_chmm_instance(rng, max_len=9)
        for prune in (True, False):
            stats = DecodeStats()
            result = constrained_viterbi(chmm, obs, prune=prune, stats=stats)
            _record(results, counters, result, stats)
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
        _record(results, counters, result, stats)
    return results.hexdigest(), counters.hexdigest()


if __name__ == "__main__":
    ok = True
    for name, expected, computed in zip(
        ("results", "counters"), (RESULTS_EXPECTED, COUNTERS_EXPECTED), digests()
    ):
        print(f"{name} expected {expected}\n{name} computed {computed}")
        ok = ok and computed == expected
    sys.exit(0 if ok else 1)
