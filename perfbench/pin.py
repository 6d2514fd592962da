"""Measure the pins: every point's simulated statistics per workload seed.

Usage (from the repository root)::

    python3 perfbench/pin.py fig4-sweep paper16-low faults-sat ccl-ring

Runs one untraced pass per (workload, seed) on the default backend and
writes the pinned keys of each point into ``pins.json``, keeping the
pins of workloads not named.  Pins are measured once, at the commit that
defines the benchmark; re-pinning after a change to the program would
hide the change.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import N_SEEDS, PINS, PassServer, pin


def one_pass(workload: str, seed: int) -> dict | None:
    server = PassServer(workload, seed, "default")
    try:
        return server.run_pass(False)
    finally:
        server.close()


def main(workloads: list[str]) -> int:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    cells = [(w, s) for w in workloads for s in range(N_SEEDS)]
    # Two passes at a time: each is a single-threaded process.
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda c: one_pass(*c), cells))
    for (workload, seed), result in zip(cells, results):
        if result is None:
            print(f"{workload} seed {seed} failed", file=sys.stderr)
            return 1
        pins.setdefault(workload, {})[str(seed)] = [pin(r) for r in result["records"]]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
