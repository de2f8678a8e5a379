"""Regenerate perfbench/expected.json: the optimal log-probability (or null
when no path or alignment exists) of every menu request of every workload at
the default seed, as computed by this checkout's chmm.

    python3 perfbench/make_expected.py

Runs at the default seed compare every result with this table at 1e-9, so
a later change that returns a valid but sub-optimal answer is caught.
Regenerate it only when the inputs change, never to absorb a new result.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as W


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for name, (make_inputs, _cls) in W.WORKLOADS.items():
        inputs = make_inputs(W.DEFAULT_SEED)
        workdir = run.HERE / "out" / f"expected-{os.getpid()}"
        try:
            lib, wl, _tracer, _seconds = run.set_up(name, inputs, workdir)
            table[name] = [wl.score(wl.call(lib, i)) for i in range(len(inputs.menu))]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
