"""Unit and behaviour tests for the repro.net subsystem and TFluxDist.

Three layers:

* the network model itself — serialisation arithmetic, NIC/link
  occupancy, the analytic RX ingest clock, message validation;
* the :class:`~repro.net.ownermap.RegionOwnerMap` forwarding rules
  (write-owns, first remote read pulls, cached copies stay free,
  remote writes invalidate);
* the platform — multi-node runs compute correct results, publish the
  ``net.*`` counters, close the termination barrier, and make the
  ISSUE's placement trade-off visible: contiguous placement minimises
  the remote-update fraction on neighbour-structured graphs while
  round-robin wins on skewed per-context cost (load balance).
"""

import pickle
import random

import pytest

from repro.core import ProgramBuilder
from repro.net import MsgKind, NetParams, Network, RegionOwnerMap
from repro.net.message import UPDATE_BYTES
from repro.platforms.dist import TFluxDist
from repro.runtime.simdriver import SimulatedRuntime
from repro.sim.accesses import AccessSummary, RegionSpace
from repro.sim.capability import DirectoryCapacityError
from repro.sim.engine import Engine
from repro.tsu.policy import contiguous_placement, round_robin_placement

NET = NetParams()  # defaults: latency 400, 16 B/cycle, NIC 120, header 64


# -- message / params ---------------------------------------------------------
def test_message_validation():
    net = Network(Engine(), 2, NET)
    with pytest.raises(ValueError):
        net.transmit(MsgKind.ACK, src=1, dst=1)
    with pytest.raises(ValueError):
        net.transmit(MsgKind.ACK, src=0, dst=1, payload_bytes=-1)


def test_serialize_cycles_is_ceil_at_line_rate():
    assert NET.serialize_cycles(0) == 0
    assert NET.serialize_cycles(1) == 1
    assert NET.serialize_cycles(16) == 1
    assert NET.serialize_cycles(17) == 2
    assert NetParams(bytes_per_cycle=0.5).serialize_cycles(3) == 6
    assert NetParams.zero_cost().serialize_cycles(10**9) == 0


def test_transmit_pays_nic_serialisation_and_latency():
    eng = Engine()
    net = Network(eng, 2, NET)
    delivered = []
    net.transmit(MsgKind.READY_UPDATE, 0, 1, 16, delivered.append, "at node 1")
    eng.run()
    # 80 B at 16 B/cycle = 5; NIC holds 120+5, link 5, then 400 latency.
    assert eng.now == 120 + 5 + 5 + 400
    assert delivered == ["at node 1"]
    assert net.messages == 1
    assert net.control_bytes == 80
    assert net.nic_busy_cycles == 125 and net.link_busy_cycles == 5


def test_sender_nic_serialises_messages():
    """Two messages from one node queue at its NIC TX port."""
    eng = Engine()
    net = Network(eng, 3, NET)
    times = {}
    for dst in (1, 2):
        net.transmit(
            MsgKind.READY_UPDATE, 0, dst, 16,
            lambda dst: times.__setitem__(dst, eng.now), dst,
        )
    eng.run()
    # Distinct links, shared NIC: second delivery is one NIC hold later.
    assert times[1] == 530
    assert times[2] == 530 + 125


def test_queued_cycles_of_concurrent_messages_add_up():
    """Three messages leave one NIC at cycle 0: the second waits one NIC
    hold (125 cycles), the third two, and the tally keeps both waits
    although the two wait at once."""
    eng = Engine()
    net = Network(eng, 4, NET)
    for dst in (1, 2, 3):
        net.transmit(MsgKind.READY_UPDATE, 0, dst, 16)
    eng.run()
    assert net.link_queue_cycles == 125 + 2 * 125


def test_pull_clocks_the_rx_ingest():
    eng = Engine()
    net = Network(eng, 3, NET)
    assert net.pull(0, {}) == 0
    first = net.pull(0, {1: 1024})
    assert first == NET.serialize_cycles(1024) + NET.link_latency_cycles
    # Back-to-back at the same instant: the second pull queues behind the
    # first at node 0's NIC RX.
    second = net.pull(0, {2: 1024})
    assert second == first + NET.serialize_cycles(1024)
    assert net.bytes_forwarded == 2048
    assert net.data_pulls == 2
    with pytest.raises(ValueError):
        net.pull(0, {0: 64})


def test_zero_cost_network_is_free():
    eng = Engine()
    net = Network(eng, 2, NetParams.zero_cost())
    got = []
    net.transmit(MsgKind.TERMINATE, 0, 1, 0, got.append)
    eng.run()
    assert eng.now == 0 and got
    assert net.pull(1, {0: 1 << 20}) == 0


# -- owner map ----------------------------------------------------------------
def _space():
    rs = RegionSpace()
    return rs, rs.region("A", 1024)


def test_ownermap_write_then_remote_read_forwards_once():
    rs, A = _space()
    om = RegionOwnerMap(rs, 64, 2)
    om.access(0, AccessSummary().write(A, 0, 64))  # lines 0..7
    assert om.access(1, AccessSummary().read(A)) == {0: 8 * 64}
    assert om.access(1, AccessSummary().read(A)) == {}  # copy cached
    assert om.access(0, AccessSummary().read(A)) == {}  # owner reads free


def test_ownermap_unwritten_lines_are_replicated_inputs():
    rs, A = _space()
    om = RegionOwnerMap(rs, 64, 4)
    assert om.access(3, AccessSummary().read(A)) == {}


def test_ownermap_remote_write_invalidates_copies():
    rs, A = _space()
    om = RegionOwnerMap(rs, 64, 3)
    om.access(0, AccessSummary().write(A))
    om.access(1, AccessSummary().read(A))
    om.access(2, AccessSummary().write(A, 0, 16))  # lines 0..1
    assert om.access(1, AccessSummary().read(A)) == {2: 2 * 64}


def test_ownermap_write_read_in_one_summary_is_local():
    rs, A = _space()
    om = RegionOwnerMap(rs, 64, 2)
    om.access(0, AccessSummary().write(A))
    summary = AccessSummary().write(A).read(A)  # rewrite then re-read
    assert om.access(1, summary) == {}


def _reference_access(owner, copies, node, summary, line_size):
    """The forwarding rules on Python dicts, line by line: a write owns
    its lines and drops every other copy; a read pulls each line a
    remote node owns and this node holds no copy of, then keeps one."""
    pulls = {}
    for op in summary:
        for line in op.line_indices(line_size):
            key = (op.region.name, line)
            if op.is_write:
                owner[key] = node
                copies[key] = {node}
            else:
                src = owner.get(key, -1)
                if src >= 0 and src != node and node not in copies[key]:
                    pulls[src] = pulls.get(src, 0) + line_size
                    copies[key].add(node)
    return pulls


@pytest.mark.parametrize("seed", range(6))
def test_ownermap_matches_line_by_line_rules(seed):
    """One-line ops (the scalar route) and longer or strided ones (the
    vector route), interleaved on up to 64 nodes, pull exactly what the
    line-by-line rules pull."""
    rng = random.Random(seed)
    rs = RegionSpace()
    regions = [rs.region("A", 4096), rs.region("B", 640)]
    nnodes = rng.choice([2, 5, 64])
    om = RegionOwnerMap(rs, 64, nnodes)
    owner, copies = {}, {}
    for _ in range(300):
        summary = AccessSummary()
        for _ in range(rng.randint(1, 3)):
            region = rng.choice(regions)
            add = summary.write if rng.random() < 0.4 else summary.read
            shape = rng.random()
            if shape < 0.5:  # one element: one line
                add(region, offset=8 * rng.randrange(region.size // 8), count=1)
            elif shape < 0.8:  # a dense run of lines
                first = 8 * rng.randrange(region.size // 8)
                add(region, offset=first,
                    count=rng.randint(1, (region.size - first) // 8))
            else:  # one element every two lines
                add(region, offset=8 * rng.randrange(16), count=4, stride=128)
        node = rng.randrange(nnodes)
        assert om.access(node, summary) == _reference_access(
            owner, copies, node, summary, 64
        )


def test_ownermap_caps_nodes_at_directory_width():
    rs, _ = _space()
    assert RegionOwnerMap(rs, 64, 64).nnodes == 64  # one presence word exactly
    with pytest.raises(DirectoryCapacityError):
        RegionOwnerMap(rs, 64, 65)


# -- platform validation ------------------------------------------------------
def test_dist_validates_composition():
    with pytest.raises(ValueError):
        TFluxDist(nnodes=0)
    # 8 nodes x 8 cores = 64 cores: over the old flat 63-core bitmask,
    # comfortably inside the two-level directory.
    assert TFluxDist(nnodes=8).machine.ncores == 64
    with pytest.raises(DirectoryCapacityError):
        TFluxDist(nnodes=65)  # over the presence word's 64 nodes
    assert TFluxDist(nnodes=4).max_kernels == 24
    assert TFluxDist(nnodes=2).machine.ncores == 16
    # A relay cluster needs at least one node; None keeps the flat fan-out.
    for bad in (0, -1):
        with pytest.raises(ValueError, match="cluster_size"):
            TFluxDist(nnodes=4, cluster_size=bad)
    assert TFluxDist(nnodes=4, cluster_size=1).cluster_size == 1


def _simple_program(n=24):
    b = ProgramBuilder("simple")
    b.env.alloc("out", n)
    t = b.thread(
        "w", body=lambda env, i: env.array("out").__setitem__(i, i + 1), contexts=n
    )
    red = b.thread(
        "r", body=lambda env, _: env.set("total", float(env.array("out").sum()))
    )
    b.depends(t, red, "all")
    return b.build()


def test_dist_rejects_bad_execute_args():
    with pytest.raises(ValueError):
        TFluxDist(nnodes=2).execute(_simple_program(), nkernels=2, allow_stealing=True)
    with pytest.raises(ValueError):
        TFluxDist(nnodes=4).execute(_simple_program(), nkernels=2)  # < 1/node
    with pytest.raises(ValueError):
        TFluxDist(nnodes=2).execute(_simple_program(), nkernels=13)  # > max
    # The adapter refuses before the program is claimed: it is still
    # runnable afterwards (a single-run object that never ran).
    for nnodes, kwargs in ((4, {}), (2, {"allow_stealing": True})):
        prog = _simple_program()
        with pytest.raises(ValueError):
            TFluxDist(nnodes=nnodes).execute(prog, nkernels=2, **kwargs)
        prog.run_sequential()
        assert prog.env.get("total") == float(sum(range(1, 25)))


def test_dist_platform_is_picklable():
    """TFluxDist rides EvalRequest through the repro.exec pool/cache."""
    p = pickle.loads(pickle.dumps(TFluxDist(nnodes=2)))
    assert p.nnodes == 2 and p.max_kernels == 12


def test_dist_runs_and_publishes_net_counters():
    result = TFluxDist(nnodes=2).execute(_simple_program(), nkernels=12)
    assert result.env.get("total") == float(sum(range(1, 25)))
    assert result.nnodes == 2
    c = result.counters
    assert c["net.remote_updates"] > 0
    assert c["net.messages"] > 0
    assert c["net.msg.ready_update"] > 0
    # Termination barrier: exactly one TERMINATE/ACK pair per remote node.
    assert c["net.msg.terminate"] == 1
    assert c["net.msg.ack"] == 1
    assert c["net.msg.inlet_bcast"] >= 1
    assert (
        c["net.remote_updates"] + c["net.local_updates"] == c["tsu.post_updates"]
    )
    assert result.to_record().nnodes == 2


def test_dist_adapter_prices_operands_under_a_bare_runtime():
    """attach_memory is the driver's call, not the platform's: a dist
    adapter handed straight to SimulatedRuntime forwards remote operand
    lines exactly as TFluxDist.execute does."""
    from repro.apps import get_benchmark, problem_sizes
    from repro.runtime.simdriver import SimulatedRuntime

    platform = TFluxDist(nnodes=2)
    bench = get_benchmark("fft")
    size = problem_sizes("fft", platform.target)["small"]
    via_platform = platform.execute(bench.build(size, unroll=4), nkernels=12)
    bare = SimulatedRuntime(
        bench.build(size, unroll=4),
        platform.machine,
        nkernels=12,
        adapter_factory=platform.adapter_factory(),
    ).run()
    assert bare.counters["net.bytes_forwarded"] > 0
    assert bare.counters.as_dict() == via_platform.counters.as_dict()
    assert bare.cycles == via_platform.cycles


def test_dist_network_cost_slows_the_run():
    fast = TFluxDist(nnodes=2, net=NetParams.zero_cost()).execute(
        _simple_program(), nkernels=12
    )
    slow = TFluxDist(
        nnodes=2, net=NetParams(link_latency_cycles=20000)
    ).execute(_simple_program(), nkernels=12)
    assert slow.env.get("total") == fast.env.get("total")
    assert slow.cycles > fast.cycles


# -- the placement trade-off (ISSUE acceptance) -------------------------------
def _neighbour_program(w=48):
    """A fan-in tree: consumer i sums producers 2i and 2i+1.  Neighbour
    producers feed one consumer, so contiguity keeps whole subtrees
    on-node while round-robin splits almost every pair across the wire."""
    b = ProgramBuilder("neigh")
    b.env.alloc("a", w)
    b.env.alloc("b", w // 2)
    t1 = b.thread(
        "s1", body=lambda env, i: env.array("a").__setitem__(i, i + 1), contexts=w
    )
    t2 = b.thread(
        "s2",
        body=lambda env, i: env.array("b").__setitem__(
            i, env.array("a")[2 * i] + env.array("a")[2 * i + 1]
        ),
        contexts=w // 2,
    )
    b.depends(t1, t2, lambda i: (i // 2,))
    return b.build()


def _skewed_program(w=48):
    """Single template whose compute cost grows with the context: a
    contiguous split gives the last node far more work."""
    b = ProgramBuilder("skew")
    b.env.alloc("out", w)
    b.thread(
        "w",
        body=lambda env, i: env.array("out").__setitem__(i, i),
        contexts=w,
        cost=lambda env, i: 100 + 400 * i,
    )
    return b.build()


def _placed(placement, program, nnodes=2, nkernels=12):
    """Run *program* on TFluxDist under *placement*: ``execute`` always
    places contiguously, so this builds its driver with a policy."""
    platform = TFluxDist(nnodes=nnodes)
    return SimulatedRuntime(
        program, platform.machine, nkernels=nkernels,
        adapter_factory=platform.adapter_factory(), placement=placement,
        platform_name=platform.name,
    ).run()


def _remote_fraction(result):
    c = result.counters
    total = c["net.remote_updates"] + c["net.local_updates"]
    return c["net.remote_updates"] / total if total else 0.0


def test_contiguous_minimises_remote_update_fraction():
    contig = _placed(contiguous_placement, _neighbour_program())
    rr = _placed(round_robin_placement, _neighbour_program())
    assert contig.env.get("b") is not None
    # Neighbour deps: contiguity keeps almost all updates on-node;
    # round-robin scatters a large fraction across the wire.
    assert _remote_fraction(contig) < 0.15
    assert _remote_fraction(rr) > 0.25
    assert _remote_fraction(rr) > 3 * _remote_fraction(contig)


def test_round_robin_balances_skewed_load():
    def spread(result):
        busy = [k.core.compute_cycles for k in result.kernels]
        return max(busy) / (sum(busy) / len(busy))

    contig = _placed(contiguous_placement, _skewed_program())
    rr = _placed(round_robin_placement, _skewed_program())
    # Round-robin deals the expensive tail contexts across all kernels.
    assert spread(rr) < spread(contig)
    # ... and that balance buys real time on the skewed program.
    assert rr.region_cycles < contig.region_cycles
