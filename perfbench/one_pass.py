"""The pass server: runs passes of one workload, each in a fresh process.

Usage: ``python3 perfbench/one_pass.py WORKLOAD SEED BACKEND``
(``BACKEND`` is an engine backend name or ``default``).  The server
imports the program and builds the workload's job list once.  Then, for
each line ``0`` (untraced) or ``1`` (traced) it reads from standard
input, it forks a child that runs one pass and prints one line to
standard output: the pass's JSON object, or ``null`` if the child
failed.  It waits for each child before it reads the next line, and
ends at the end of its input.  Every child starts from the same state, so
every pass pays the program's full set-up with no state left by an
earlier pass, and no pass pays for the interpreter's start and imports.

Untraced, the only wrappers time each point's single stepping call
(``run`` / ``run_until_drained``), every ``step()`` it makes, the four
phases each step calls and the allocation phase's work on each switch.
They split the pass's wall time into *segments* that every pass of the
same job list repeats in the same order (see :class:`Timeline`), and
time the host-speed probe (:mod:`calibrate`) among them.  Traced, :mod:`tracer` wraps every layer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402


class Timeline:
    """A pass's wall time as a sequence of segments, with their kinds.

    Kinds, one letter each: ``u`` for set-up (between stepping calls:
    before each point's call, and after the last), ``a`` for the
    allocation phase's work on one switch (an item of
    ``sim.alloc_switches()``, which every arbiter iterates), ``p`` for
    the rest of one of the four phases a ``step()`` calls, ``s`` for the
    rest of a ``step()`` and ``r`` for the rest of a stepping call
    outside its steps.  The segments sum to the pass's wall time less
    the probes, and a deterministic job list gives every pass the same
    kinds in the same order, so ``run.py`` can compare passes segment by
    segment.

    After every ``probe_stride``-th segment of kind ``a``, ``p`` or ``s``
    the host-speed probe (:func:`calibrate.kernel`) runs; its time goes
    to ``probes`` and is taken out of every segment.  The probes, too,
    fall at the same places in every pass.
    """

    #: The phases ``step()`` calls, as the tracer also wraps them.
    PHASES = ("_eject", "_allocate", "_transmit", "_inject")

    def __init__(self, probe_stride: int) -> None:
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.slots = 0
        self.probes: list[float] = []
        self.probe_stride = probe_stride
        self._due = 0  # segments since the last probe
        self._excluded = 0.0  # probe seconds so far
        self._mark = 0.0

    def add(self, kind: str, seconds: float) -> None:
        self.kinds.append(kind)
        self.seconds.append(seconds)
        if kind in "aps":
            self._due += 1
            if self._due == self.probe_stride:
                self._due = 0
                self.probe()

    def probe(self) -> None:
        """Time the host-speed probe.  Its first run warms the caches the
        program just used, so that the timed second run does not depend
        on the program's working set."""
        start = time.perf_counter()
        calibrate.kernel()
        timed = time.perf_counter()
        calibrate.kernel()
        end = time.perf_counter()
        self.probes.append(end - timed)
        self._excluded += end - start

    def start(self) -> None:
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self.add("u", time.perf_counter() - self._mark)

    def timed(self, kind: str, fn):
        """``fn`` adding one ``kind`` segment per call: its time minus the
        segments its callees added."""
        clock = time.perf_counter
        seconds = self.seconds

        def call(*args, **kwargs):
            first, excluded = len(seconds), self._excluded
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inner = sum(seconds[first:]) + self._excluded - excluded
                self.add(kind, clock() - start - inner)

        return call

    def each(self, kind: str, items):
        """Iterate ``items``, adding one ``kind`` segment per item: the
        time the loop spends on it."""
        clock = time.perf_counter
        for item in items:
            start = clock()
            try:
                yield item
            finally:
                self.add(kind, clock() - start)

    def instrument(self) -> None:
        """Make every built simulator record its stepping call, steps,
        phases and per-switch allocation."""
        from repro.experiments.runner import ExperimentRunner

        build = ExperimentRunner.build_simulator
        timeline = self

        def timed_run(fn, sim):
            fn = timeline.timed("r", fn)

            def stepping_call(*args, **kwargs):
                slot = sim.slot
                timeline.add("u", time.perf_counter() - timeline._mark)
                try:
                    return fn(*args, **kwargs)
                finally:
                    timeline._mark = time.perf_counter()
                    timeline.slots += sim.slot - slot

            return stepping_call

        def build_simulator(self, *args, **kwargs):
            sim = build(self, *args, **kwargs)
            switches = sim.alloc_switches
            sim.alloc_switches = lambda: timeline.each("a", switches())
            for attr in Timeline.PHASES:
                setattr(sim, attr, timeline.timed("p", getattr(sim, attr)))
            sim.step = timeline.timed("s", sim.step)
            for attr in ("run", "run_until_drained"):
                setattr(sim, attr, timed_run(getattr(sim, attr), sim))
            return sim

        ExperimentRunner.build_simulator = build_simulator


def run_pass(jobs: list, trace: bool, probe_stride: int) -> dict:
    """Simulate ``jobs`` once, in this process."""
    import numpy

    from repro.experiments.executor import SerialExecutor, encode_json_safe
    from tracer import Tracer, instrument, layer_metrics

    timeline = Timeline(probe_stride)
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument(tracer)
    else:
        timeline.instrument()
    start = time.perf_counter()
    timeline.start()
    records = SerialExecutor().run(jobs)
    timeline.stop()
    wall = time.perf_counter() - start
    out = {
        "wall_s": wall,
        "step_s": sum(
            s for k, s in zip(timeline.kinds, timeline.seconds) if k != "u"
        ),
        "slots": timeline.slots,
        "segment_kinds": "".join(timeline.kinds),
        "segments": timeline.seconds,
        "probes": timeline.probes,
        "probe_total_s": timeline._excluded,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": jobs[0].config.backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "records": encode_json_safe(records),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.spans
    return out


def forked_pass(jobs: list, trace: bool, probe_stride: int) -> str:
    """One pass in a forked child; its JSON line, or ``null``."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the server's loop: whatever
        # happens, it reports the failure and leaves through os._exit.
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(run_pass(jobs, trace, probe_stride), out)
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as result:
        line = result.read()
    _, status = os.waitpid(pid, 0)
    return line if status == 0 and line else "null"


def main(argv: list[str]) -> int:
    workload, seed = argv[1], int(argv[2])
    backend = None if argv[3] == "default" else argv[3]

    import numpy  # noqa: F401  (imported once, before the first fork)

    from workloads import PROBE_STRIDE, build_jobs

    jobs = build_jobs(workload, seed, backend)
    for command in sys.stdin:
        trace = command.strip() == "1"
        sys.stdout.write(forked_pass(jobs, trace, PROBE_STRIDE[workload]) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
