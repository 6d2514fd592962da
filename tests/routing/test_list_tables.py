"""The per-hop route generators read plain-list copies of their BFS
matrices; these tests pin them to references computed straight from the
numpy matrices (the source of truth), across online fault events, and
pin SurePath's shared candidate triples to a fresh nested-loop build."""

from __future__ import annotations

import itertools

import pytest

from _helpers import make_packet
from repro.routing.polarized import PENALTY_BY_DELTA_MU
from repro.routing.surepath import OmniSPRouting, PolSPRouting
from repro.simulator.schedule import LINK_DOWN, FaultSchedule
from repro.topology.base import Network
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.updown.escape import (
    DOWN_PENALTY,
    PHASE_CLIMB,
    PHASE_DESCEND,
    UP_PENALTY,
    shortcut_penalty,
)


def polarized_reference(network, src, dst, closer, current):
    """Table 1 of the paper evaluated on ``network.distances`` columns."""
    dist = network.distances
    ds_c, dt_c = int(dist[current, src]), int(dist[current, dst])
    out = []
    for port, nbr in network.live_ports[current]:
        delta_s = int(dist[nbr, src]) - ds_c
        delta_t = int(dist[nbr, dst]) - dt_c
        dmu = delta_s - delta_t
        if dmu < 0:
            continue
        if dmu == 0 and not (
            (delta_s == 1 and closer) or (delta_s == -1 and not closer)
        ):
            continue
        out.append((port, nbr, PENALTY_BY_DELTA_MU[dmu]))
    return out


def escape_reference(esc, current, target, phase):
    """Escape candidates read from the ``dist_a``/``dist_b``/``udist``
    matrices; ``None`` stands for "no candidate" (the tables raise)."""
    if current == target:
        return []
    da, db, ud = esc.dist_a[:, target], esc.dist_b[:, target], esc.udist[:, target]
    kinds = esc.link_kind[current]
    out = []
    for port, nbr in esc.network.live_ports[current]:
        kind = kinds[port]
        if phase == PHASE_DESCEND:
            if kind < 0 and db[nbr] < db[current]:
                out.append((port, nbr, DOWN_PENALTY))
        elif kind > 0:
            if da[nbr] < da[current]:
                out.append((port, nbr, UP_PENALTY))
        elif kind < 0:
            if db[nbr] < da[current]:
                out.append((port, nbr, DOWN_PENALTY))
        elif esc.shortcuts and db[nbr] < da[current]:
            reduction = max(1, int(ud[current]) - int(ud[nbr]))
            out.append((port, nbr, shortcut_penalty(reduction)))
    return out or None


def escape_candidates_or_none(esc, current, target, phase):
    try:
        return esc.candidates(current, target, phase)
    except AssertionError:
        return None


def check_tables(mech, sources):
    """Every (switch, target, phase) of the escape, and every (switch,
    target, header bit) of the Polarized routes from ``sources``."""
    network = mech.network
    n = network.n_switches
    esc = mech.escape
    for current, target, phase in itertools.product(
        range(n), range(n), (PHASE_CLIMB, PHASE_DESCEND)
    ):
        assert escape_candidates_or_none(esc, current, target, phase) == (
            escape_reference(esc, current, target, phase)
        ), (current, target, phase)
    routes = mech.routes
    dist = network.distances
    for src, dst in itertools.product(sources, range(n)):
        pkt = make_packet(network, src, dst)
        for current in range(n):
            for closer in (True, False):
                pkt.closer = closer
                assert routes.ports(pkt, current) == polarized_reference(
                    network, src, dst, closer, current
                ), (src, dst, current, closer)
            expected = bool(dist[current, src] < dist[current, dst])
            pkt.closer = not expected
            routes.refresh_packet(pkt, current)
            assert pkt.closer is expected
            pkt.hops = 0
            routes.on_hop(pkt, current)
            assert pkt.closer is expected


class TestListTablesFollowTopologyChanges:
    def test_fail_then_repair_on_8x8(self):
        hx = HyperX((8, 8), 1)
        network = Network(hx)
        mech = PolSPRouting(network, n_vcs=4, root=0)
        links = random_connected_fault_sequence(hx, 3, rng=5)
        schedule = FaultSchedule.down_then_up(1, 2, links)
        # Sources at the failing links' endpoints (their distances move
        # most) plus the escape root.
        sources = sorted({0} | {s for link in links for s in link})
        check_tables(mech, sources)
        distances_seen = [network.distances.copy()]
        for event in schedule:
            if event.action == LINK_DOWN:
                network.apply_fault(event.link)
            else:
                network.restore_link(event.link)
            mech.on_topology_change()
            check_tables(mech, sources)
            distances_seen.append(network.distances.copy())
        # The schedule really moved the tables the lists copy.
        assert any((d != distances_seen[0]).any() for d in distances_seen[1:])


def nested_loop_candidates(mech, pkt, current):
    """SurePath's candidate rules, one fresh tuple per (port, vc, pen)."""
    out = []
    if not pkt.in_escape:
        for port, _nbr, pen in mech.routes.ports(pkt, current):
            for vc in mech.routing_vcs:
                out.append((port, vc, pen))
    phase = pkt.escape_phase if pkt.in_escape else PHASE_CLIMB
    for port, _nbr, pen in mech.escape.candidates(current, pkt.dst_switch, phase):
        out.append((port, mech.escape_vc, pen))
    return out


def packet_states(mech):
    """Route-set header states worth covering, as attribute dicts."""
    if isinstance(mech, PolSPRouting):
        return [{"closer": True}, {"closer": False}]
    return [{"deroutes": 0}, {"deroutes": mech.routes.max_deroutes}]


@pytest.mark.parametrize("cls", [OmniSPRouting, PolSPRouting])
@pytest.mark.parametrize("network", ["net2d", "faulty2d"])
def test_shared_triples_match_nested_loop(cls, network, request):
    network = request.getfixturevalue(network)
    mech = cls(network, n_vcs=4)
    n = network.n_switches
    for src, dst, current in itertools.product(range(n), range(n), range(n)):
        if current == dst:
            continue
        pkt = make_packet(network, src, dst)
        mech.init_packet(pkt)
        for state in packet_states(mech):
            for name, value in state.items():
                setattr(pkt, name, value)
            assert mech.candidates(pkt, current) == nested_loop_candidates(
                mech, pkt, current
            )
        pkt.in_escape = True
        for phase in (PHASE_CLIMB, PHASE_DESCEND):
            pkt.escape_phase = phase
            try:
                expected = nested_loop_candidates(mech, pkt, current)
            except AssertionError:
                with pytest.raises(AssertionError):
                    mech.candidates(pkt, current)
            else:
                assert mech.candidates(pkt, current) == expected
