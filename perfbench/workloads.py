"""The benchmark's four workloads, each a seeded list of ``PointJob``s.

Every workload goes through the program's public sweep path: the job
builders of :mod:`repro.experiments.sweeps` make the list and
``SerialExecutor().run`` simulates it.  Building the list (topologies,
fault sets, schedules) is input generation and is not timed.

Why each workload exists:

``fig4-sweep``
    The canonical Figure-4 sweep on a 4x4 HyperX: all six mechanisms x
    {uniform, randperm} x loads {0.3, 0.6, 0.9}, 36 short open-loop
    points.  The only workload where the mechanisms without a
    ``candidate_key`` (Minimal, Valiant) and the per-point executor and
    runner path do real work.
``paper16-low``
    The paper's own 2D size (16x16 HyperX, 4096 servers): one PolSP
    point, uniform traffic at load 0.3, a window of seven slots.
    Per-hop route generation dominates here and route situations repeat
    least, so a shared candidate memo is largely bypassed.
``faults-sat``
    The Figures 6/8 regime on an 8x8 HyperX: OmniSP and PolSP at load
    1.0, once under the Figure-8 ``cross`` fault shape (root inside the
    cross) and once on the healthy network with a mid-run fail-then-
    repair of random links.  Saturation (blocked heads re-scored by Q+P,
    full source queues), escape-VC traffic and writes to routing state
    (fault application, escape and table rebuilds).
``ccl-ring``
    A closed-loop ring all-reduce drained to completion on the 8x8
    HyperX of ``fig-collectives --scale small``, through that figure's
    fail-then-repair schedule.  The only closed-loop workload and the
    only one that runs ``simulator.collective`` and the drain path.
    It has 2 servers per switch (128 servers) where the figure has 8:
    with 512 servers one pass took over 20 s, 8 s of it building the
    collective policy, so a run held a single pass.  At 128 servers the
    drain still outlasts the repair slot.  The healthy twin of this run
    is left out: it doubles the pass for no layer the faulty run does
    not already exercise.

The seed picks the simulator seed of every point and the random links of
the fail-then-repair schedules; the same seed always gives the same job
list.
"""

from __future__ import annotations

from repro.experiments.executor import PointJob
from repro.experiments.figures import shape_parameters
from repro.experiments.sweeps import (
    collective_sweep_jobs,
    load_sweep_jobs,
    shape_fault_run_jobs,
    transient_run_jobs,
)
from repro.routing.catalog import MECHANISMS
from repro.simulator.config import PAPER_CONFIG, SimConfig
from repro.simulator.schedule import FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import (
    random_connected_fault_sequence,
    shape_faults,
    shape_root,
)
from repro.topology.hyperx import regular_hyperx
from repro.updown.roots import choose_root

# Window lengths (slots).  Each keeps one pass of its workload at about
# 1-2 s of simulation on a 2-core x86 host, so a 30 s run holds 10-20
# passes to take its time floors over (see run.py).
FIG4_WARMUP, FIG4_MEASURE = 8, 16
PAPER16_WARMUP, PAPER16_MEASURE = 3, 4
SAT_WARMUP, SAT_MEASURE = 6, 8
#: Servers per switch of the collective's 8x8 HyperX.
CCL_SERVERS_PER_SWITCH = 2
#: Drain budget of the collective; the ring finishes far below it.
CCL_MAX_SLOTS = 200_000

#: Segments (per-switch allocations, phases and steps) between two runs
#: of the host-speed probe (``calibrate.py``): about 45 probes per pass.
PROBE_STRIDE = {
    "fig4-sweep": 400,
    "paper16-low": 40,
    "faults-sat": 80,
    "ccl-ring": 600,
}


def fig4_sweep(seed: int, config: SimConfig) -> list[PointJob]:
    net = Network(regular_hyperx(2, 4))
    return load_sweep_jobs(
        net, MECHANISMS, ("uniform", "randperm"), (0.3, 0.6, 0.9),
        warmup=FIG4_WARMUP, measure=FIG4_MEASURE, seed=seed, config=config,
    )


def paper16_low(seed: int, config: SimConfig) -> list[PointJob]:
    net = Network(regular_hyperx(2, 16))
    return load_sweep_jobs(
        net, ("PolSP",), ("uniform",), (0.3,),
        warmup=PAPER16_WARMUP, measure=PAPER16_MEASURE, seed=seed,
        config=config,
    )


def faults_sat(seed: int, config: SimConfig) -> list[PointJob]:
    hx = regular_hyperx(2, 8)
    mechanisms = ("OmniSP", "PolSP")
    params = shape_parameters(hx)["cross"]
    cross = shape_fault_run_jobs(
        Network(hx, shape_faults(hx, "cross", **params)),
        mechanisms, ("uniform",), offered=1.0,
        warmup=SAT_WARMUP, measure=SAT_MEASURE, seed=seed, config=config,
        root=shape_root(hx, "cross", **params),
    )
    # fig-transient's schedule: random connected links fail a third of the
    # way into the window and come back at two thirds.
    links = random_connected_fault_sequence(hx, 2, rng=seed)
    schedule = FaultSchedule.down_then_up(
        SAT_WARMUP + SAT_MEASURE // 3,
        SAT_WARMUP + 2 * SAT_MEASURE // 3,
        links,
    )
    transient = transient_run_jobs(
        Network(hx), mechanisms, ("uniform",), schedule, offered=1.0,
        warmup=SAT_WARMUP, measure=SAT_MEASURE, series_interval=10,
        seed=seed, config=config,
    )
    return cross + transient


def ccl_ring(seed: int, config: SimConfig) -> list[PointJob]:
    # fig_collectives' defaults at --scale small: 8x8 HyperX, two random
    # links failing at slot 8 and repairing at slot 208.
    hx = regular_hyperx(2, 8, CCL_SERVERS_PER_SWITCH)
    net = Network(hx)
    links = random_connected_fault_sequence(hx, 2, rng=seed)
    jobs, _labels = collective_sweep_jobs(
        net, ("PolSP",), ("allreduce_ring",),
        schedules=(("downup", FaultSchedule.down_then_up(8, 208, links)),),
        max_slots=CCL_MAX_SLOTS, seed=seed, config=config,
        root=choose_root(net, "max_live_degree"),
    )
    return jobs


#: Workload builders, in the order BENCHMARK.json lists them.
BUILDERS = {
    "fig4-sweep": fig4_sweep,
    "paper16-low": paper16_low,
    "faults-sat": faults_sat,
    "ccl-ring": ccl_ring,
}


def build_jobs(
    workload: str, seed: int, backend: str | None = None
) -> list[PointJob]:
    """The job list of ``workload`` for ``seed`` on ``backend``.

    ``backend`` defaults to the program's default (``PAPER_CONFIG``).
    """
    config = PAPER_CONFIG if backend is None else PAPER_CONFIG.with_(
        backend=backend
    )
    return BUILDERS[workload](seed, config)
