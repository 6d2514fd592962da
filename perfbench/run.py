"""The simulator benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones,
each ``{"value", "unit"}``.  The line before it records the host
(``nproc``, Python and numpy versions, git commit), the backend and every
pass.  See README.md for the workloads and metrics.

A run repeats *passes* for as long as another fits in ``--seconds``
(at least one).
A pass is one fresh process, forked by the run's pass server
(:mod:`one_pass`), that simulates the whole workload once through
``SerialExecutor().run``, with no result cache.
The time metrics are floors: each segment of a pass (the set-up around
each point, each ``step()``, its phases and the allocation on each
switch) is timed, and a metric adds up every segment's fastest time over
the run's passes, scaled by the host's speed as a probe timed among the
segments saw it (see :func:`end_to_end` and :mod:`calibrate`).  Peak
memory and the per-layer metrics are medians over passes.
With ``--trace 1`` the run alternates untraced and traced passes and
writes every traced pass's spans to ``perfbench/out/``.

Every pass is checked: each point's simulated statistics must equal the
pins in ``pins.json`` (measured at the commit that introduced the
benchmark), and a traced pass must produce exactly the records of the
untraced pass before it.  A point that raises or differs counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

#: Pins exist for workload seeds 0..N_SEEDS-1; ``--seed n`` runs workload
#: seed ``n % N_SEEDS``, so any seed is checkable.
N_SEEDS = 16

#: The record keys a pin holds: the point's identity and every simulated
#: statistic (the last four exist only on some workloads' records).
PIN_KEYS = (
    "mechanism", "traffic", "offered", "faults",
    "accepted", "latency_cycles", "jain", "deadlocked", "stalled",
    "escape_fraction", "avg_hops",
    "dropped", "jct_cycles", "completion_slot", "retransmitted",
)

#: A pass taking longer than this fails its points and ends the run.
#: The slowest pass, a traced ``faults-sat``, takes about 6 s.
PASS_TIMEOUT_S = 80

# Single-threaded passes: numpy's BLAS pools would otherwise compete with
# the simulator for the host's cores.  A fixed hash seed makes every pass
# of a run execute the same way, garbage collections included, so their
# segments line up.
PASS_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin(record: dict) -> dict:
    return {k: record[k] for k in PIN_KEYS if k in record}


class PassServer:
    """A pass server (:mod:`one_pass`) for one workload, seed and backend.

    It runs in its own process group, so that a hung pass can be killed
    together with the server.
    """

    def __init__(self, workload: str, seed: int, backend: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), backend],
            cwd=ROOT, env=PASS_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def run_pass(self, trace: bool) -> dict | None:
        """One pass; ``None`` when it failed, hung or the server is gone."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write("1\n" if trace else "0\n")
            self.proc.stdin.flush()
            line = self.lines.get(timeout=PASS_TIMEOUT_S)
        except BrokenPipeError:
            return None
        except queue.Empty:
            print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
            os.killpg(self.proc.pid, signal.SIGKILL)
            return None
        return None if line is None else json.loads(line)

    def close(self) -> None:
        """End the server and wait for it."""
        try:
            self.proc.stdin.close()  # type: ignore[union-attr]
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.reader.join()


def count_failed(records: list[dict], expected: list[dict], key) -> int:
    """Points of ``records`` whose ``key`` view differs from ``expected``."""
    if len(records) != len(expected):
        return len(expected)
    return sum(
        json.dumps(key(r), sort_keys=True) != json.dumps(key(e), sort_keys=True)
        for r, e in zip(records, expected)
    )


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_hop")):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload of pins.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--backend", default="default",
        help="engine backend (slot, event, array); for diagnosis only — "
        "the benchmark's metrics are defined on the program's default",
    )
    return p.parse_args(argv)


def probe_floor(plain: list[dict]) -> float:
    """The host-speed probe's floor at each of its places in a pass (the
    fastest over the passes), averaged over the places."""
    return statistics.fmean(min(col) for col in zip(*(p["probes"] for p in plain)))


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """The end-to-end metrics over the untraced passes.

    Every pass of a run does the same work in the same segments, so other
    tenants of a shared host can only add time to a segment.  On a host
    whose speed dips for tens of milliseconds to seconds at a time, that
    added time spread a median over passes by up to half its value from
    one run to the next.  The time metrics therefore add up each
    segment's fastest time over the run's passes: the floor the program
    reaches on this host, with every segment it runs counted once.

    A stretch of slow host that lasts the whole run raises every floor;
    it raises the floors of the host-speed probe, timed among the same
    segments of the same passes, alike.  Each floor is scaled by
    ``calibrate.REFERENCE_S`` over the mean probe floor, which states it
    in seconds at the host's full speed.  Peak memory does not depend on
    host load and is the median.
    """
    scale = calibrate.REFERENCE_S / probe_floor(plain)
    kinds = plain[0]["segment_kinds"]
    floors = [min(col) for col in zip(*(p["segments"] for p in plain))]
    setup = sum(f for k, f in zip(kinds, floors) if k == "u")
    return {
        "wall_s": sum(floors) * scale,
        "setup_s": setup * scale,
        "slots_per_s": plain[0]["slots"] / ((sum(floors) - setup) * scale),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """The per-layer metrics: medians over the traced passes, plus the
    tracing overhead: the fastest traced pass against the fastest
    untraced pass of the same run, less the untraced pass's probes."""
    med = statistics.median
    values = {n: med(p["layers"][n] for p in traced) for n in traced[0]["layers"]}
    values["trace.overhead_s"] = min(p["wall_s"] for p in traced) - min(
        p["wall_s"] - p["probe_total_s"] for p in plain
    )
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % N_SEEDS
    try:
        pins = json.loads(PINS.read_text())[args.workload][str(seed)]
    except (OSError, ValueError, KeyError) as exc:
        print(f"no pins for {args.workload} seed {seed}: {exc!r}", file=sys.stderr)
        return 2

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    server = PassServer(args.workload, seed, args.backend)
    try:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced = None
            for trace in (False, True) if args.trace else (False,):
                result = server.run_pass(trace)
                attempted += len(pins)
                if result is None:
                    failed += len(pins)
                    continue
                bad = count_failed(result["records"], pins, pin)
                if trace and untraced is not None:
                    # The traced records must be the untraced ones, byte
                    # for byte.
                    bad = max(bad, count_failed(
                        result["records"], untraced["records"], lambda r: r
                    ))
                if not trace and plain and (
                    result["segment_kinds"] != plain[0]["segment_kinds"]
                ):
                    # A pass that stepped differently did different work,
                    # so its segments cannot be set beside the others'.
                    failed += len(pins)
                    continue
                failed += bad
                (traced if trace else plain).append(result)
                if not trace:
                    untraced = result
            # Stop unless another round like this one fits in the time
            # left, and the server still runs.
            now = time.perf_counter()
            if (now - start) + (now - round_start) > args.seconds:
                break
            if server.proc.poll() is not None:
                break
    finally:
        server.close()

    if not plain or (args.trace and not traced):
        print("every pass failed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(traced, plain)
        units = {n: layer_unit(n) for n in values}
    else:
        values = end_to_end(plain)
        units = {"wall_s": "s", "setup_s": "s", "slots_per_s": "1/s", "peak_rss_mb": "MB"}

    env = {
        "nproc": os.cpu_count(),
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "commit": git_commit(),
        "backend": plain[0]["backend"],
        "workload": args.workload,
        "workload_seed": seed,
        "passes": [
            {k: p[k] for k in ("wall_s", "step_s", "slots", "peak_rss_mb")}
            for p in plain
        ],
    }
    if not args.trace:
        # The unscaled floors are the time metrics times this over
        # calibrate.REFERENCE_S.
        env["probe_floor_s"] = probe_floor(plain)
    if args.trace:
        env["traced_passes"] = [{"wall_s": p["wall_s"]} for p in traced]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "passes": [{"layers": p["layers"], "spans": p["spans"]} for p in traced],
        }))
        env["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
