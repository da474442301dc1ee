"""D1 — TFluxDist scaling: multi-node DDM over the repro.net fabric.

Beyond-paper experiment (the paper stops at one chip; §4.1 only remarks
that very large systems may want multiple TSU Groups).  Nodes ∈ {1,2,4}
of the TFluxSoft kind (6 kernels each) cooperate on one Synchronization
Graph; remote Ready-Count updates and forwarded operand lines travel the
modelled network.  The shape claims pinned here:

* coarse-unrolled workloads keep scaling past one box — speedup grows
  with the node count;
* the ``net.*`` counters expose the traffic: remote updates appear the
  moment there is a second node, FFT forwards real operand data across
  nodes while MMULT (whose inputs are prologue-written, i.e. replicated
  read-only on every node) forwards none;
* the scaling collapses when forwarded-data volume dominates link
  bandwidth — FFT on a starved link loses most of its 4-node speedup.

PR 6 widens the sweep past the old 63-core/7-node wall: a second grid
runs trapez on 1→64 nodes of a clustered fat-tree (hierarchical TSU,
one cluster head per pod) and pins that speedup **keeps growing beyond
8 nodes** — the wall was the flat sharer bitmask, not the workload —
while the same sweep on a thin oversubscribed spine saturates: once the
pods' shared uplinks carry the cross-pod traffic, ``net.link_queue_cycles``
explodes and the curve flattens, the modelled bisection-bandwidth limit.
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import FIGURE6, full_grids, grid_max_threads
from repro.apps import problem_sizes
from repro.exec import EvalRequest, evaluate_many
from repro.net import FatTree, NetParams, OversubscribedSpine
from repro.platforms import TFluxDist

BENCHES = ("trapez", "mmult", "fft")
NODES = (1, 2, 4)
#: Each node is a Figure-6 machine, swept on that figure's grids.
FULL = full_grids()
UNROLLS_SOFT = FIGURE6.unrolls(FULL)
MAX_THREADS = grid_max_threads(FULL)
SIZE = "large" if FULL else "small"
#: FFT's small grid (128 rows) starves 24 kernels at coarse unrolls —
#: the multi-node claims need the large grid's parallelism either way.
BENCH_SIZES = {"trapez": SIZE, "mmult": SIZE, "fft": "large"}
KERNELS_PER_NODE = 6

#: A link two orders of magnitude slower than the default 16 B/cycle,
#: with matching latency: forwarded lines now cost more than they save.
STARVED = NetParams(link_latency_cycles=4000, bytes_per_cycle=0.05)

# -- the wide (cluster-scale) sweep -------------------------------------------
#: 1→64 nodes: one pod of 8 per fat-tree tier, one TSU cluster per pod.
NODES_WIDE = (1, 2, 4, 8, 16, 32, 64)
POD = 8
#: The saturation rungs only matter where pods share uplinks.
NODES_SAT = (8, 16, 32, 64)
#: A spine thin enough that the shared uplinks become the bottleneck at
#: this load (32 B/message control traffic, ~8 KB forwarded): 0.5 B/cycle
#: and a 2000-cycle hop make cross-pod messages queue for millions of
#: cycles by 16 nodes.
THIN = NetParams(link_latency_cycles=2000, bytes_per_cycle=0.5)
#: trapez stays on the *small* grid even under TFLUX_BENCH_FULL: the wide
#: sweep isolates node-count scaling (384 kernels at 64 nodes need only
#: enough threads to feed them — small/unroll 8 is 1024), and the large
#: grid's 16384 threads would blow the unroll past ``max_threads``.
WIDE_SIZE = "small"
WIDE_UNROLLS = (8,)


def _wide_platform(nodes, topology, net=None):
    kw = {} if net is None else {"net": net}
    return TFluxDist(nnodes=nodes, topology=topology, cluster_size=POD, **kw)


def _wide_requests():
    size = problem_sizes("trapez", "N")[WIDE_SIZE]
    reqs, keys = [], []
    for nodes in NODES_WIDE:
        reqs.append(
            EvalRequest(
                platform=_wide_platform(nodes, FatTree(pod_size=POD)),
                bench="trapez",
                size=size,
                nkernels=KERNELS_PER_NODE * nodes,
                unrolls=WIDE_UNROLLS,
                max_threads=4096,
            )
        )
        keys.append(("fattree", nodes))
    for nodes in NODES_SAT:
        reqs.append(
            EvalRequest(
                platform=_wide_platform(
                    nodes,
                    OversubscribedSpine(pod_size=POD, oversubscription=POD),
                    net=THIN,
                ),
                bench="trapez",
                size=size,
                nkernels=KERNELS_PER_NODE * nodes,
                unrolls=WIDE_UNROLLS,
                max_threads=4096,
            )
        )
        keys.append(("thin-spine", nodes))
    return reqs, keys


def _requests():
    reqs, keys = [], []
    for bench in BENCHES:
        size = problem_sizes(bench, "N")[BENCH_SIZES[bench]]
        for nodes in NODES:
            reqs.append(
                EvalRequest(
                    platform=TFluxDist(nnodes=nodes),
                    bench=bench,
                    size=size,
                    nkernels=KERNELS_PER_NODE * nodes,
                    unrolls=UNROLLS_SOFT,
                    max_threads=MAX_THREADS,
                )
            )
            keys.append((bench, nodes))
    # The bandwidth-collapse cell: FFT on the starved link, 4 nodes.
    reqs.append(
        EvalRequest(
            platform=TFluxDist(nnodes=4, net=STARVED),
            bench="fft",
            size=problem_sizes("fft", "N")[BENCH_SIZES["fft"]],
            nkernels=KERNELS_PER_NODE * 4,
            unrolls=UNROLLS_SOFT,
            max_threads=MAX_THREADS,
        )
    )
    keys.append(("fft-starved", 4))
    return reqs, keys


@pytest.fixture(scope="module")
def grid():
    reqs, keys = _requests()
    return dict(zip(keys, evaluate_many(reqs)))


def test_dist_scaling_table(grid):
    lines = ["TFluxDist scaling (6 kernels/node; best unroll)"]
    lines.append(f"{'bench':>12s} " + " ".join(f"{n:>2d} node" for n in NODES))
    for bench in BENCHES:
        row = " ".join(f"{grid[(bench, n)].speedup:7.2f}" for n in NODES)
        lines.append(f"{bench:>12s} {row}")
    ev = grid[("fft-starved", 4)]
    lines.append(
        f"{'fft@starved':>12s} {ev.speedup:7.2f}  "
        f"(link {STARVED.bytes_per_cycle} B/cycle, "
        f"{ev.result.counters['net.bytes_forwarded']:,d} B forwarded)"
    )
    report("\n".join(lines))


@pytest.mark.parametrize("bench", BENCHES)
def test_speedup_grows_with_nodes(grid, bench):
    series = [grid[(bench, n)].speedup for n in NODES]
    assert series[1] > series[0] * 1.15, f"{bench}: 2 nodes buy nothing {series}"
    assert series[2] > series[1] * 1.15, f"{bench}: 4 nodes buy nothing {series}"


@pytest.mark.parametrize("bench", ("trapez", "fft"))
def test_remote_updates_appear_with_second_node(grid, bench):
    """Both benches with inter-thread arcs (chunk→reduce, rows→cols→…)
    start paying remote Ready-Count updates the moment a second node
    owns part of the graph.  One node never touches the network."""
    one = grid[(bench, 1)].result.counters
    assert one.get("net.remote_updates", 0) == 0
    assert one.get("net.messages", 0) == 0
    for n in (2, 4):
        c = grid[(bench, n)].result.counters
        assert c["net.remote_updates"] > 0, f"{bench}@{n}"
        assert c["net.msg.ready_update"] > 0, f"{bench}@{n}"


def test_mmult_is_control_plane_only(grid):
    """MMULT's compute threads are fully independent (the paper's §6.1.2
    sequential-prologue discussion): multi-node runs broadcast block
    inlets and the termination barrier but never a Ready-Count update."""
    c = grid[("mmult", 2)].result.counters
    assert c["net.msg.inlet_bcast"] >= 1
    assert c["net.msg.terminate"] == 1
    assert c["net.remote_updates"] == 0


def test_fft_forwards_data_and_mmult_does_not(grid):
    """FFT's row threads read rows written by the previous stage on other
    nodes; MMULT's inputs are prologue-written (owner-less, replicated
    everywhere), so only FFT pays the data plane."""
    for n in (2, 4):
        assert grid[("fft", n)].result.counters["net.bytes_forwarded"] > 0
        assert grid[("mmult", n)].result.counters["net.bytes_forwarded"] == 0


def test_forwarded_volume_grows_with_nodes(grid):
    """More nodes ⇒ more cross-node producer/consumer pairs for FFT."""
    c2 = grid[("fft", 2)].result.counters["net.bytes_forwarded"]
    c4 = grid[("fft", 4)].result.counters["net.bytes_forwarded"]
    assert c4 > c2


def test_starved_link_collapses_fft_scaling(grid):
    """When forwarded bytes dominate link bandwidth, the 4-node speedup
    collapses: the starved run loses most of the scaling and lands at or
    below the 2-node healthy run."""
    healthy = grid[("fft", 4)]
    starved = grid[("fft-starved", 4)]
    assert starved.result.counters["net.bytes_forwarded"] > 0
    assert starved.speedup < 0.6 * healthy.speedup
    assert starved.speedup < grid[("fft", 2)].speedup


# -- the wide sweep: past the 7-node wall to bisection saturation -------------
@pytest.fixture(scope="module")
def wide():
    reqs, keys = _wide_requests()
    return dict(zip(keys, evaluate_many(reqs)))


def test_wide_scaling_table(wide):
    lines = [
        "TFluxDist cluster-scale sweep "
        f"(trapez/{WIDE_SIZE}, unroll {WIDE_UNROLLS[0]}, pod/cluster {POD})"
    ]
    lines.append(f"{'topology':>12s} " + " ".join(f"{n:>7d}" for n in NODES_WIDE))
    row = " ".join(f"{wide[('fattree', n)].speedup:7.2f}" for n in NODES_WIDE)
    lines.append(f"{'fattree':>12s} {row}")
    pad = " " * 8 * (len(NODES_WIDE) - len(NODES_SAT))
    row = " ".join(f"{wide[('thin-spine', n)].speedup:7.2f}" for n in NODES_SAT)
    lines.append(f"{'thin-spine':>12s} {pad}{row}")
    q = wide[("thin-spine", NODES_SAT[-1])].result.counters["net.link_queue_cycles"]
    lines.append(f"(thin spine at 64 nodes queued {q:,d} cycles on shared uplinks)")
    report("\n".join(lines))


def test_speedup_grows_past_the_old_wall(wide):
    """The old 7-node ceiling was the flat 63-core sharer bitmask, not a
    property of the workload: on the two-level directory the fat-tree
    sweep keeps buying speedup at 16, 32 and 64 nodes (measured ~24 →
    ~30 → ~35 → ~37; margins pinned well below that)."""
    s = {n: wide[("fattree", n)].speedup for n in NODES_WIDE}
    for lo, hi in zip(NODES_WIDE, NODES_WIDE[1:]):
        assert s[hi] > s[lo], f"{hi} nodes regressed: {s}"
    assert s[16] > 1.15 * s[8], s
    assert s[32] > 1.08 * s[16], s
    assert s[64] > 1.02 * s[32], s


def test_hier_tsu_relays_beyond_one_cluster(wide):
    """Up to one pod (8 nodes) the cluster head has nobody to relay for;
    past it, cross-cluster Ready-Count traffic goes via the heads."""
    for n in NODES_WIDE:
        relayed = wide[("fattree", n)].result.counters.get("net.relayed_messages", 0)
        if n <= POD:
            assert relayed == 0, f"{n} nodes: unexpected relays"
        else:
            assert relayed > 0, f"{n} nodes: hierarchy never engaged"


def test_thin_spine_saturates_bisection_bandwidth(wide):
    """On the oversubscribed spine the shared uplinks are the bisection:
    queueing grows superlinearly with the node count and the speedup
    curve flattens then sags (measured ~11 → ~7 → ~6.6 → ~5.8), while
    the full fat-tree at 64 nodes stays several times faster."""
    s = {n: wide[("thin-spine", n)].speedup for n in NODES_SAT}
    q = {
        n: wide[("thin-spine", n)].result.counters["net.link_queue_cycles"]
        for n in NODES_SAT
    }
    assert s[16] < s[8], s  # saturation bites before 16 nodes
    assert s[64] < 1.05 * s[32], s  # ... and the curve has flattened
    for lo, hi in zip(NODES_SAT, NODES_SAT[1:]):
        assert q[hi] > q[lo], q
    assert q[16] > 4 * q[8], q
    assert wide[("fattree", 64)].speedup > 3 * s[64]


def test_dist_scaling_smoke_16_nodes():
    """One 16-node clustered fat-tree cell, no grid fixture: selectable
    by name to exercise the cluster-scale path (hier TSU + topology
    pricing + wide directory) in seconds."""
    ev = evaluate_many(
        [
            EvalRequest(
                platform=_wide_platform(16, FatTree(pod_size=POD)),
                bench="trapez",
                size=problem_sizes("trapez", "N")[WIDE_SIZE],
                nkernels=KERNELS_PER_NODE * 16,
                unrolls=WIDE_UNROLLS,
                max_threads=4096,
            )
        ]
    )[0]
    assert ev.speedup > 20  # measured ~30 on 16 nodes
    c = ev.result.counters
    assert c["net.relayed_messages"] > 0
    assert c["net.hops"] > 0
    assert ev.result.topology == f"fattree(pod={POD},up={POD})"
