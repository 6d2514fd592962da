"""Outside-in tracing of the simulator's layers, from the benchmark process.

:func:`instrument` wraps the public entry points of each layer (class
attributes for layers reached inside ``Executor.run``, instance
attributes of every simulator that ``ExperimentRunner.build_simulator``
returns) so that each call records a span: name, start, end and parent.
Nothing in the program's source changes and no wrapper draws from an RNG
or reorders a call, so a traced pass produces the records an untraced one
does.

Span totals are *inclusive* (a layer's time includes the layers it
calls); self time is a span minus the part its child spans cover.  Spans
of the per-call hot path (route candidates, destinations, metrics hooks,
...) are summed per name only; every coarser span (executor, job, runner,
topology, updown, routing tables, engine run, step and phases) is also
kept in full for the trace file.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from itertools import count

#: Hot-path span names: aggregated only, never kept span by span.
AGGREGATE_ONLY = frozenset({
    "routing.candidates",
    "routing.on_hop",
    "traffic.destination",
    "injection.attempts",
    "collective.on_delivered",
    "metrics.hooks",
})


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Kept spans: (id, name, start, end, parent id or -1).
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # frames: [child time, span id]
        self._ids = count()
        #: Seconds spent in before/after hooks so far (tracing's own work).
        self._hook_s = [0.0]

    def wrap(self, name: str, fn, *, before=None, after=None):
        """``fn`` recording a span ``name`` per call.

        ``before(*args)`` runs ahead of the call and ``after(result)``
        behind it.  Their time is tracing's own work: it is taken out of
        every enclosing span, so no layer is charged for it.
        """
        stack = self._stack
        clock = time.perf_counter
        total, self_time, calls = self.total, self.self_time, self.calls
        ids = self._ids
        hook_s = self._hook_s
        spans = None if name in AGGREGATE_ONLY else self.spans

        def traced(*args, **kwargs):
            if before is not None:
                hook_start = clock()
                before(*args)
                hook_s[0] += clock() - hook_start
            frame = [0.0, next(ids)]
            stack.append(frame)
            hooks_before = hook_s[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start - (hook_s[0] - hooks_before)
                total[name] += dur
                self_time[name] += dur - frame[0]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                if spans is not None:
                    spans.append((frame[1], name, start, end, parent))
            if after is not None:
                hook_start = clock()
                after(result)
                hook_s[0] += clock() - hook_start
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer entry point, for the rest of the process."""
    from repro.experiments import executor as executor_mod
    from repro.experiments import runner as runner_mod
    from repro.simulator import collective as collective_mod
    from repro.topology.base import Network
    from repro.updown.escape import EscapeSubnetwork

    t = tracer
    Executor = executor_mod.Executor
    ExperimentRunner = runner_mod.ExperimentRunner
    Executor.run = t.wrap("executor", Executor.run)
    executor_mod.run_job = t.wrap("executor.job", executor_mod.run_job)
    runner_mod.make_mechanism = t.wrap("routing.tables", runner_mod.make_mechanism)
    Network.__init__ = t.wrap("topology.network", Network.__init__)
    Network.apply_fault = t.wrap("topology.fault", Network.apply_fault)
    Network.restore_link = t.wrap("topology.fault", Network.restore_link)
    EscapeSubnetwork.__init__ = t.wrap("updown.escape_build", EscapeSubnetwork.__init__)
    EscapeSubnetwork.rebuild = t.wrap("updown.escape_rebuild", EscapeSubnetwork.rebuild)
    # The collective job imports make_collective at call time, so the
    # module patch reaches it.
    collective_mod.make_collective = t.wrap(
        "collective.setup", collective_mod.make_collective
    )
    injection_cls = collective_mod.CollectiveInjection
    injection_cls.__init__ = t.wrap("collective.setup", injection_cls.__init__)
    ExperimentRunner.build_simulator = t.wrap(
        "runner.build", ExperimentRunner.build_simulator,
        after=lambda sim: _instrument_sim(t, sim),
    )
    _time_gc(t)


def _time_gc(t: Tracer) -> None:
    """Count the interpreter's collections and their time, wherever they
    land: a full collection is the largest single cost in the set-up of
    the small workloads."""
    started = [0.0]

    def collection(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
            return
        t.total["gc"] += time.perf_counter() - started[0]
        if info["generation"] == 2:
            t.counts["gc.full_collections"] += 1

    gc.callbacks.append(collection)


def _instrument_sim(t: Tracer, sim) -> None:
    """Wrap the stepping calls, the four phases and the components of one
    freshly built simulator (instance attributes shadow the class's)."""
    counts = t.counts
    mech = sim.mechanism
    injection = sim.injection

    def ran(_result) -> None:
        retransmitted = getattr(injection, "retransmitted", None)
        if retransmitted is not None:
            counts["collective.retransmits"] += retransmitted

    sim.run = t.wrap("engine.run", sim.run, after=ran)
    sim.run_until_drained = t.wrap("engine.run", sim.run_until_drained, after=ran)
    sim.step = t.wrap("engine.step", sim.step)

    def idle_census() -> None:
        for sw in sim.alloc_switches():
            counts["engine.switch_visits"] += 1
            if not sw.active_sorted and not sw.port_load.any():
                counts["engine.idle_switch_visits"] += 1

    def granted(n: int) -> None:
        counts["arbiters.grants"] += n

    phases = {
        "_eject": ("engine.eject", idle_census, None),
        "_allocate": ("engine.allocate", None, granted),
        "_transmit": ("engine.transmit", None, None),
        "_inject": ("engine.inject", None, None),
    }
    for attr, (name, before, after) in phases.items():
        setattr(sim, attr, t.wrap(name, getattr(sim, attr), before=before, after=after))

    # Routing hot path, plus the route-situation key census.
    key_of = mech.candidate_key
    seen: defaultdict[int, set] = defaultdict(set)

    def key_census(pkt, current) -> None:
        key = key_of(pkt, current)
        if key is None:
            return
        counts["routing.keyed_calls"] += 1
        at = seen[current]
        if key in at:
            counts["routing.key_reuses"] += 1
        else:
            at.add(key)

    mech.candidates = t.wrap("routing.candidates", mech.candidates, before=key_census)
    mech.on_hop = t.wrap("routing.on_hop", mech.on_hop)
    mech.on_topology_change = t.wrap(
        "routing.topology_change", mech.on_topology_change,
        before=lambda: seen.clear(),
    )

    traffic = sim.traffic
    if "destination" not in vars(traffic):  # runners share patterns across points
        traffic.destination = t.wrap("traffic.destination", traffic.destination)
    injection.attempts = t.wrap("injection.attempts", injection.attempts)
    on_blocked = injection.on_blocked

    def blocked(server) -> None:
        counts["injection.blocked"] += 1
        on_blocked(server)

    injection.on_blocked = blocked
    if hasattr(injection, "retransmitted"):
        injection.on_delivered = t.wrap("collective.on_delivered", injection.on_delivered)

    def stalled_one(*_args) -> None:
        counts["arbiters.stalls"] += 1

    def stalled_many(items, *_args) -> None:
        counts["arbiters.stalls"] += len(items)

    stall_counters = {
        "on_stalled": stalled_one,
        "on_stalled_many": stalled_many,
        "on_stalled_pids": stalled_many,
    }
    metrics = sim.metrics
    for attr in dir(metrics):
        if attr.startswith("on_") and callable(hook := getattr(metrics, attr)):
            setattr(metrics, attr, t.wrap(
                "metrics.hooks", hook, before=stall_counters.get(attr)
            ))


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    total, calls, counts = t.total, t.calls, t.counts
    phases = ("eject", "allocate", "transmit", "inject")
    hops = calls["routing.on_hop"]
    keyed = counts["routing.keyed_calls"]
    visits = counts["engine.switch_visits"]
    return {
        "executor.self_s": t.self_time["executor"] + t.self_time["executor.job"],
        "executor.jobs": calls["executor.job"],
        "runner.build_s": total["runner.build"],
        "runner.builds": calls["runner.build"],
        "topology.network_s": total["topology.network"],
        "topology.fault_events": calls["topology.fault"],
        "topology.fault_s": total["topology.fault"],
        "updown.escape_builds": calls["updown.escape_build"],
        "updown.escape_build_s": total["updown.escape_build"],
        "updown.escape_rebuilds": calls["updown.escape_rebuild"],
        "updown.escape_rebuild_s": total["updown.escape_rebuild"],
        "routing.tables_builds": calls["routing.tables"],
        "routing.tables_s": total["routing.tables"],
        "routing.topology_change_s": total["routing.topology_change"],
        "routing.candidates_calls": calls["routing.candidates"],
        "routing.candidates_s": total["routing.candidates"],
        "routing.candidates_per_hop": (
            calls["routing.candidates"] / hops if hops else 0.0
        ),
        "routing.keyed_share": (
            keyed / calls["routing.candidates"] if calls["routing.candidates"] else 0.0
        ),
        "routing.key_reuse_share": (
            counts["routing.key_reuses"] / keyed if keyed else 0.0
        ),
        "traffic.destination_calls": calls["traffic.destination"],
        "traffic.destination_s": total["traffic.destination"],
        "injection.attempts_s": total["injection.attempts"],
        "injection.blocked": counts["injection.blocked"],
        "engine.steps": calls["engine.step"],
        "engine.step_s": total["engine.step"],
        **{f"engine.{p}_s": total[f"engine.{p}"] for p in phases},
        "engine.other_s": total["engine.step"] - sum(
            total[f"engine.{p}"] for p in phases
        ),
        "engine.idle_switch_share": (
            counts["engine.idle_switch_visits"] / visits if visits else 0.0
        ),
        "arbiters.grants": counts["arbiters.grants"],
        "arbiters.stalls": counts["arbiters.stalls"],
        "collective.setup_s": total["collective.setup"],
        "collective.deliveries": calls["collective.on_delivered"],
        "collective.on_delivered_s": total["collective.on_delivered"],
        "collective.retransmits": counts["collective.retransmits"],
        "metrics.hooks_s": total["metrics.hooks"],
        "gc.collect_s": total["gc"],
        "gc.full_collections": counts["gc.full_collections"],
    }
