"""Topology wirings and the hierarchical (cluster-head relay) TSU.

Covers, in order:

* path/hop structure of the three wirings and their pickling;
* the Network pricing per-hop latency and shared-uplink congestion
  (control and data planes) with the new ``net.hops`` /
  ``net.link_queue_cycles`` counters;
* FullMesh backward compatibility — the default Network is cycle-exact
  against the pre-topology arithmetic (also pinned by test_dist);
* HierDistTSUAdapter — degenerate cluster == flat adapter bit-identical,
  relayed runs stay functionally correct and count relayed messages,
  and the TFluxDist platform wires topology/cluster through (including
  into the RunRecord's new ``topology`` field).
"""

import pickle

import pytest

from repro.core import ProgramBuilder
from repro.net import (
    FatTree,
    FullMesh,
    MsgKind,
    NetParams,
    Network,
    OversubscribedSpine,
)
from repro.platforms.dist import TFluxDist
from repro.sim.capability import DirectoryCapacityError
from repro.sim.engine import Engine

NET = NetParams()  # latency 400, 16 B/cycle, NIC 120, header 64


# -- wiring structure ---------------------------------------------------------
def test_fullmesh_paths():
    t = FullMesh()
    assert t.control_path(0, 5) == ((0, 5),)
    assert t.data_path(0, 5) == ()
    assert t.hops(0, 5) == 1
    assert t.describe() == "fullmesh"


def test_fattree_paths():
    t = FatTree(pod_size=4)
    # Intra-pod: up at the source, down at the destination.
    assert t.control_path(0, 3) == (("up", 0), ("down", 3))
    assert t.data_path(0, 3) == ()
    assert t.hops(0, 3) == 2
    # Inter-pod: 4 hops through one of the pod's uplinks.
    path = t.control_path(0, 5)
    assert len(path) == 4 and t.hops(0, 5) == 4
    assert path[0] == ("up", 0) and path[-1] == ("down", 5)
    assert t.data_path(0, 5) == (path[1], path[2])
    # Full fat-tree: as many uplinks as pod members.
    assert t._uplinks == 4
    assert t.describe() == "fattree(pod=4,up=4)"


def test_spine_oversubscription_shares_uplinks():
    t = OversubscribedSpine(pod_size=8, oversubscription=4)
    assert t._uplinks == 2
    # Flows from 8 sources to one destination pod share 2 uplinks.
    uplinks = {t.control_path(s, 8)[1] for s in range(8)}
    assert len(uplinks) == 2
    assert t.describe() == "spine(pod=8,oversub=4)"
    with pytest.raises(ValueError):
        OversubscribedSpine(pod_size=8, oversubscription=0)


def test_topologies_pickle_and_validate():
    for t in (FullMesh(), FatTree(pod_size=8), OversubscribedSpine(pod_size=8)):
        assert pickle.loads(pickle.dumps(t)) == t
        t.validate(64)
        with pytest.raises(DirectoryCapacityError):
            t.validate(65)


# -- network pricing over a topology -----------------------------------------
def test_transmit_pays_per_hop_latency_on_fattree():
    eng = Engine()
    net = Network(eng, 8, NET, FatTree(pod_size=4))
    done = []
    net.transmit(MsgKind.READY_UPDATE, 0, 5, 16, done.append)
    eng.run()
    # 80 B = 5 cycles at line rate; NIC 120+5, then 4 hops of (5 + 400).
    assert eng.now == 125 + 4 * (5 + 400)
    assert net.hops == 4
    assert done and net.link_queue_cycles == 0


def test_intra_pod_is_two_hops():
    eng = Engine()
    net = Network(eng, 8, NET, FatTree(pod_size=4))
    net.transmit(MsgKind.READY_UPDATE, 0, 3, 16)
    eng.run()
    assert eng.now == 125 + 2 * (5 + 400)
    assert net.hops == 2


def test_data_pulls_queue_on_oversubscribed_uplinks():
    # pod_size 4, oversub 4 -> ONE uplink per pod: every inter-pod pull
    # from pod 0 to pod 1 serialises through the same spine link.
    eng = Engine()
    topo = OversubscribedSpine(pod_size=4, oversubscription=4)
    net = Network(eng, 8, NET, topo)
    ser = NET.serialize_cycles(1024)
    # Uncontended: store-and-forward re-serialisation on each of the two
    # shared spine segments, then 4 hops of propagation.
    first = net.pull(4, {0: 1024})
    assert first == 2 * ser + 4 * NET.link_latency_cycles
    # Same instant, different destination node in pod 1, same uplink:
    # the shared spine link has not drained yet.
    second = net.pull(5, {1: 1024})
    assert second > first
    assert net.link_queue_cycles > 0
    assert net.hops == 8  # two pulls x four hops each


def test_senders_queue_once_on_a_shared_uplink():
    # pod_size 2, oversub 2 -> one uplink per pod: nodes 0 and 1 send on
    # their own NICs at cycle 0, and the second message waits one
    # serialisation for the pod-0 uplink and nowhere else.
    eng = Engine()
    net = Network(eng, 4, NET, OversubscribedSpine(pod_size=2, oversubscription=2))
    for src, dst in ((0, 2), (1, 3)):
        net.transmit(MsgKind.READY_UPDATE, src, dst, 16)
    eng.run()
    assert net.link_queue_cycles == NET.serialize_cycles(NET.message_header_bytes + 16)


def test_fullmesh_pull_matches_pre_topology_arithmetic():
    eng = Engine()
    net = Network(eng, 3, NET)  # default FullMesh
    assert net.pull(0, {1: 1024}) == NET.serialize_cycles(1024) + 400
    assert net.link_queue_cycles == 0 and net.hops == 1


# -- hierarchical TSU ---------------------------------------------------------
def _program(n=24):
    b = ProgramBuilder("hier")
    b.env.alloc("out", n)
    t = b.thread(
        "w", body=lambda env, i: env.array("out").__setitem__(i, i + 1), contexts=n
    )
    red = b.thread(
        "r", body=lambda env, _: env.set("total", float(env.array("out").sum()))
    )
    b.depends(t, red, "all")
    return b.build()


def _run(nnodes, cluster_size=None, topology=None):
    platform = TFluxDist(
        nnodes=nnodes, topology=topology, cluster_size=cluster_size
    )
    return platform.execute(_program(), nkernels=6 * nnodes)


def test_degenerate_cluster_is_bit_identical_to_flat():
    flat = _run(4)
    hier = _run(4, cluster_size=8)  # one cluster spans all nodes
    assert hier.cycles == flat.cycles
    assert hier.env.get("total") == flat.env.get("total") == sum(range(1, 25))
    assert hier.counters.get("net.relayed_messages") == 0


def test_cluster_relay_correct_and_counted():
    flat = _run(8)
    hier = _run(8, cluster_size=2)
    assert hier.env.get("total") == flat.env.get("total")
    assert hier.counters.get("net.relayed_messages") > 0
    # Relaying can only reduce the messages the *source* NIC serialises;
    # totals include the head-to-member re-sends.
    assert hier.counters.get("net.messages") >= flat.counters.get("net.messages")


def test_platform_records_topology_and_pickles():
    platform = TFluxDist(
        nnodes=4, topology=FatTree(pod_size=2), cluster_size=2
    )
    assert pickle.loads(pickle.dumps(platform)).topology == FatTree(pod_size=2)
    res = platform.execute(_program(), nkernels=24)
    assert res.env.get("total") == sum(range(1, 25))
    record = res.to_record()
    assert record.topology == "fattree(pod=2,up=2)"
    assert record.counters.get("net.hops") > 0
    flat_record = _run(4).to_record()
    assert flat_record.topology == "fullmesh"
