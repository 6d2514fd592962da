"""Struct-of-arrays store of all mutable simulator state (``SimState``).

Historically every switch kept its numeric state in per-object Python
lists and every packet carried its fields as instance attributes.  That
layout is hostile to whole-array phase kernels: the ``"array"`` backend
(:mod:`repro.simulator.array_backend`) wants to scan *all* head-of-line
destinations, *all* port loads and *all* injection-queue occupancies in
single numpy operations.  ``SimState`` is the layout refactor that makes
this possible — the same separation of data layout from algorithms that
accelerator compilers apply (cf. C4CAM in PAPERS.md).

Layout
------
All per-switch numeric state lives in preallocated 2D arrays indexed
``[sid, ...]``, padded to the maximum per-switch width (padding entries
are never read — dead ports carry no packets):

======================  =========================  =======================
array                   shape                      meaning
======================  =========================  =======================
``credits``             ``[S, P*V]`` int32         free downstream slots
``load``                ``[S, P*V]`` int32         Q-rule load per out VC
``port_load``           ``[S, P]``   int32         per-port load sum
``rr``                  ``[S, P]``   int32         transmit round-robin
``out_occ``             ``[S, P*V]`` int32         output-FIFO occupancy
``in_occ``              ``[S, P*V+H]`` int32       input-FIFO occupancy
``hol_dst``             ``[S, P*V+H]`` int32       head packet's dst switch
                                                   (-1 when the FIFO is
                                                   empty)
``wire``                ``[S, P]``   int32         packets in flight on the
                                                   link out of (sid, port)
``link_tx``             ``[S, P]``   int64         packets transmitted
``link_escape_tx``      ``[S, P]``   int64         ... of those, escape-VC
======================  =========================  =======================

(``S`` switches, ``P`` max ports, ``V`` VCs, ``H`` servers per switch.)

Packet fields live in a parallel :class:`PacketStore`: one row per live
packet (rows are recycled through a free list, so unbounded pid growth
never grows the store), with columns for the immutable identity fields
(src/dst server and switch, birth slot = the packet's age reference) and
an engine-maintained *position* code locating the packet (input FIFO,
output FIFO or wire; the FIFO index encodes the VC).

Views vs arrays
---------------
:class:`~repro.simulator.switch.Switch` and
:class:`~repro.simulator.packet.Packet` stay the interface every
arbiter, routing mechanism, flow control and metrics hook programs
against — they are now thin views:

* A switch's ``credits`` / ``load`` / ``port_load`` / ``rr`` attributes
  *are* row views into these arrays (single-resident: mutating the view
  mutates the store, there is nothing to diverge).
* The FIFOs themselves stay plain lists, head first (the packets need
  an ordered container; buffers are a few packets deep, so ``pop(0)``
  is cheap), and the derived columns — ``in_occ``,
  ``out_occ``, ``hol_dst``, packet positions — are maintained by the
  switch's queue methods (``push_input`` / ``pop_input`` / ``grant`` /
  ``transmit`` / ``unqueue_output``).  All engine code mutates queues
  through those methods only.
* A packet's identity fields are dual-resident — written once into the
  store at registration, kept as plain attributes for the scalar hot
  paths — and its position is store-only.

:meth:`SimState.verify` recomputes every derived column from the queue
ground truth and checks the credit/load invariant of virtual cut-through
on every live link; the property suite drives it across fail-and-repair
cycles on multiple topology families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .packet import Packet

#: Position-code kinds (see :meth:`SimState.pos_code`).
POS_INPUT, POS_OUTPUT, POS_WIRE = 0, 1, 2


class PacketStore:
    """Row-recycled struct-of-arrays store of live packets.

    ``register`` assigns the packet a row (``pkt.row``) and writes its
    identity columns; ``release`` frees the row when the packet leaves
    the network (ejection or fault drop).  Positions are written by the
    switch/link methods that move packets.
    """

    _COLS = (
        ("src_server", np.int64),
        ("dst_server", np.int64),
        ("src_switch", np.int64),
        ("dst_switch", np.int64),
        ("birth", np.int64),
        ("pos", np.int64),
    )

    # The columns are created generically from ``_COLS`` in ``_grow``;
    # declaring them here keeps the attribute set statically visible.
    src_server: np.ndarray
    dst_server: np.ndarray
    src_switch: np.ndarray
    dst_switch: np.ndarray
    birth: np.ndarray
    pos: np.ndarray

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = 0
        self.live = 0
        for name, dtype in self._COLS:
            setattr(self, name, np.empty(0, dtype))
        self.free: list[int] = []
        self._grow(max(capacity, 1))

    def _grow(self, new_capacity: int) -> None:
        old = self.capacity
        for name, dtype in self._COLS:
            grown = np.full(new_capacity, -1, dtype)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        # Reversed so pop() hands out ascending rows first.
        self.free.extend(range(new_capacity - 1, old - 1, -1))
        self.capacity = new_capacity

    def register(self, pkt: Packet) -> int:
        if not self.free:
            self._grow(self.capacity * 2)
        row = self.free.pop()
        pkt.row = row
        self.src_server[row] = pkt.src_server
        self.dst_server[row] = pkt.dst_server
        self.src_switch[row] = pkt.src_switch
        self.dst_switch[row] = pkt.dst_switch
        self.birth[row] = pkt.birth_slot
        self.pos[row] = -1
        self.live += 1
        return row

    def release(self, pkt: Packet) -> None:
        row = pkt.row
        if row < 0:
            return
        self.pos[row] = -1
        pkt.row = -1
        self.free.append(row)
        self.live -= 1


class SimState:
    """The struct-of-arrays store one simulator (or one standalone
    :class:`~repro.simulator.switch.Switch`) owns.

    Parameters
    ----------
    degrees:
        Network-port count of each switch (``len(degrees)`` switches).
    n_vcs, servers_per_switch:
        Input layout per switch: ``degree * n_vcs`` network inputs, then
        one injection queue per server.
    cfg:
        Buffer sizes (``input_buffer_packets`` seeds ``credits``).
    """

    def __init__(
        self,
        degrees: list[int],
        n_vcs: int,
        servers_per_switch: int,
        cfg: SimConfig,
    ) -> None:
        S = len(degrees)
        self.n_switches = S
        self.n_vcs = n_vcs
        self.servers_per_switch = servers_per_switch
        self.degrees = list(degrees)
        self.max_ports = max(degrees, default=0)
        npv_max = self.max_ports * n_vcs
        self.max_inputs = npv_max + servers_per_switch

        self.credits = np.zeros((S, npv_max), np.int32)
        for s, deg in enumerate(degrees):
            self.credits[s, : deg * n_vcs] = cfg.input_buffer_packets
        self.load = np.zeros((S, npv_max), np.int32)
        self.port_load = np.zeros((S, self.max_ports), np.int32)
        self.rr = np.zeros((S, self.max_ports), np.int32)
        self.out_occ = np.zeros((S, npv_max), np.int32)
        self.in_occ = np.zeros((S, self.max_inputs), np.int32)
        self.hol_dst = np.full((S, self.max_inputs), -1, np.int32)
        self.wire = np.zeros((S, self.max_ports), np.int32)
        self.link_tx = np.zeros((S, self.max_ports), np.int64)
        self.link_escape_tx = np.zeros((S, self.max_ports), np.int64)
        #: Credit-feedback bitmask: ``grant_feedback[sid]`` is set by
        #: every upstream credit return (``Simulator._return_input_credit``)
        #: landing on ``sid``.  The array backend clears it at the start
        #: of each allocation phase and reads it per visited switch, so
        #: the set of switches whose scoring inputs were mutated by an
        #: *earlier switch's grants in the same phase* — the only
        #: cross-switch hazard of the allocation order — is known in
        #: O(S) per slot.  Other backends only ever write it (one scalar
        #: store per credit return); it is scratch, not physics, so
        #: :meth:`verify` ignores it.
        self.grant_feedback = np.zeros(S, bool)
        #: Flat input index of each switch's first injection queue.
        self.inj_base = np.asarray(
            [deg * n_vcs for deg in degrees], np.int64
        )
        #: Column of own switch ids — the vectorized ejection scan
        #: compares ``hol_dst`` against it row-wise.
        self.sid_col = np.arange(S, dtype=np.int32).reshape(-1, 1)
        self.packets = PacketStore()

    # ------------------------------------------------------------------
    @classmethod
    def for_switch(cls, n_ports: int, n_vcs: int, n_servers: int,
                   cfg: SimConfig) -> "SimState":
        """A single-switch store (standalone ``Switch(...)`` construction,
        used by component tests)."""
        return cls([n_ports], n_vcs, n_servers, cfg)

    def pos_code(self, kind: int, sid: int, idx: int) -> int:
        """Scalar position code: ``(kind, switch, flat index)`` packed
        into one int so a packet move costs a single array write.  For
        inputs/outputs the flat index encodes the VC; for wires it is
        the upstream port."""
        return (kind * self.n_switches + sid) * self.max_inputs + idx

    def decode_pos(self, code: int) -> tuple[int, int, int]:
        """Inverse of :meth:`pos_code` (consistency checks only)."""
        if code < 0:
            return (-1, -1, -1)
        kind_sid, idx = divmod(code, self.max_inputs)
        kind, sid = divmod(kind_sid, self.n_switches)
        return (kind, sid, idx)

    # ------------------------------------------------------------------
    # Ground-truth verification (property tests; O(everything), not for
    # the hot loop)
    # ------------------------------------------------------------------
    def verify(self, sim: Any) -> None:
        """Assert every derived array agrees with the queue ground truth.

        Covers FIFO occupancies, head-of-line destinations, per-packet
        positions, wire counts, the per-port load sums and — for every
        *live* link — the virtual-cut-through credit/load invariant
        ``credits = capacity - downstream occupancy - in flight -
        output occupancy``.  Call between steps (phase boundaries).
        """
        V = self.n_vcs
        cap = sim.cfg.input_buffer_packets
        expected_pos: dict[int, tuple[int, Any]] = {}
        for sw in sim.switches:
            s = sw.sid
            npv = sw.n_ports * V
            for idx, q in enumerate(sw.in_q):
                assert self.in_occ[s, idx] == len(q), (
                    f"in_occ[{s},{idx}]={self.in_occ[s, idx]} != {len(q)}"
                )
                head = q[0].dst_switch if q else -1
                assert self.hol_dst[s, idx] == head, (
                    f"hol_dst[{s},{idx}]={self.hol_dst[s, idx]} != {head}"
                )
                for pkt in q:
                    if pkt.row >= 0:
                        expected_pos[pkt.row] = (
                            self.pos_code(POS_INPUT, s, idx), pkt
                        )
            assert not self.in_occ[s, sw.n_inputs:].any(), "in_occ padding dirty"
            for pv, q in enumerate(sw.out_q):
                assert self.out_occ[s, pv] == len(q), (
                    f"out_occ[{s},{pv}]={self.out_occ[s, pv]} != {len(q)}"
                )
                for pkt in q:
                    if pkt.row >= 0:
                        expected_pos[pkt.row] = (
                            self.pos_code(POS_OUTPUT, s, pv), pkt
                        )
            assert not self.out_occ[s, npv:].any(), "out_occ padding dirty"
            for port in range(sw.n_ports):
                base = port * V
                assert self.port_load[s, port] == self.load[s, base:base + V].sum(), (
                    f"port_load[{s},{port}] out of sync with load"
                )
        # Wire counts + positions against the link model's ground truth.
        wire_truth = np.zeros_like(self.wire)
        for entry in getattr(sim.link, "_buckets", {}).values():
            for src, _dst, port, _vc, pkt in entry:
                wire_truth[src, port] += 1
                if pkt.row >= 0:
                    expected_pos[pkt.row] = (
                        self.pos_code(POS_WIRE, src, port), pkt
                    )
        assert (self.wire == wire_truth).all(), "wire counts out of sync"
        # VCT invariant on live links (dead links are reconciled only on
        # repair; their stale rows are never read).
        for s in range(sim.network.n_switches):
            sw = sim.switches[s]
            for port, t in sim.network.live_ports[s]:
                rev = sim.rev_port[s][port]
                tsw = sim.switches[t]
                for vc in range(V):
                    pv = port * V + vc
                    in_down = len(tsw.in_q[rev * V + vc])
                    in_wire = sim.link.in_flight_between(s, t, vc)
                    out_here = len(sw.out_q[pv])
                    assert sw.credits[pv] == cap - in_down - in_wire - out_here, (
                        f"credits[{s},{pv}] breaks the VCT invariant"
                    )
                    assert sw.load[pv] == 2 * out_here + in_wire + in_down, (
                        f"load[{s},{pv}] breaks the VCT invariant"
                    )
        # Packet store: live census and per-packet identity + position.
        pk = self.packets
        assert pk.live == len(expected_pos) == sim.in_flight, (
            f"live rows {pk.live} / located {len(expected_pos)} / "
            f"in_flight {sim.in_flight} disagree"
        )
        for row, (code, pkt) in expected_pos.items():
            assert pk.pos[row] == code, (
                f"packet row {row}: pos {pk.pos[row]} != expected {code} "
                f"{self.decode_pos(code)}"
            )
            assert (
                pk.src_server[row] == pkt.src_server
                and pk.dst_server[row] == pkt.dst_server
                and pk.src_switch[row] == pkt.src_switch
                and pk.dst_switch[row] == pkt.dst_switch
                and pk.birth[row] == pkt.birth_slot
            ), f"packet row {row}: identity columns diverged from {pkt!r}"
