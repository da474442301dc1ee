"""Tests for the TSU data structures and the TSU Group state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import split_into_blocks
from repro.core.dthread import DThreadTemplate
from repro.core.graph import SynchronizationGraph
from repro.tsu.group import FETCH_EXIT, FETCH_WAIT, FetchKind, TSUGroup
from repro.tsu.policy import contiguous_placement, round_robin_placement
from repro.tsu.sm import SynchronizationMemory, ThreadEntry
from repro.tsu.tkt import ThreadToKernelTable
from repro.tsu import tub as tub_module
from repro.tsu.tub import ThreadUpdateBuffer, TUBFullError


# -- SM --------------------------------------------------------------------
def entry(local_iid, rc=0):
    tmpl = DThreadTemplate(tid=local_iid + 1, name=f"t{local_iid}")
    from repro.core.dthread import DThreadInstance

    return ThreadEntry(
        local_iid=local_iid,
        instance=DThreadInstance(local_iid, tmpl, 0),
        ready_count=rc,
    )


def test_sm_ready_on_load_when_rc_zero():
    sm = SynchronizationMemory(0)
    sm.load(entry(0, rc=0))
    assert sm.peek_ready()
    assert sm.pop_ready().local_iid == 0
    assert not sm.peek_ready()


def test_sm_decrement_to_ready():
    sm = SynchronizationMemory(0)
    sm.load(entry(0, rc=2))
    assert not sm.decrement(0)
    assert not sm.peek_ready()
    assert sm.decrement(0)
    assert sm.pop_ready().local_iid == 0


def test_sm_ready_count_underflow_rejected():
    sm = SynchronizationMemory(0)
    sm.load(entry(0, rc=1))
    sm.decrement(0)
    with pytest.raises(RuntimeError, match="underflow"):
        sm.decrement(0)


def test_sm_double_completion_rejected():
    sm = SynchronizationMemory(0)
    sm.load(entry(0, rc=0))
    sm.mark_completed(0)
    with pytest.raises(RuntimeError, match="twice"):
        sm.mark_completed(0)


def test_sm_completion_with_pending_rc_rejected():
    sm = SynchronizationMemory(0)
    sm.load(entry(0, rc=1))
    with pytest.raises(RuntimeError, match="ready count"):
        sm.mark_completed(0)


def test_sm_duplicate_load_rejected():
    sm = SynchronizationMemory(0)
    sm.load(entry(0))
    with pytest.raises(KeyError):
        sm.load(entry(0))


def test_sm_pop_order_is_local_iid_order():
    sm = SynchronizationMemory(0)
    for i in (5, 1, 3):
        sm.load(entry(i, rc=0))
    order = [sm.pop_ready().local_iid for _ in range(3)]
    assert order == [1, 3, 5]


def test_sm_clear():
    sm = SynchronizationMemory(0)
    sm.load(entry(0))
    sm.clear()
    assert sm.pop_ready() is None
    sm.load(entry(0))  # the cleared id is free again


# -- TKT ------------------------------------------------------------------
def test_tkt_direct_indexing():
    tkt = ThreadToKernelTable([0, 1, 1, 2], nkernels=3)
    assert [tkt.kernel_of(i) for i in range(4)] == [0, 1, 1, 2]


def test_tkt_out_of_range_rejected():
    with pytest.raises(ValueError):
        ThreadToKernelTable([0, 5], nkernels=2)


# -- TUB --------------------------------------------------------------------
def test_tub_push_drain_roundtrip():
    tub = ThreadUpdateBuffer(nsegments=2, segment_capacity=4)
    for i in range(5):
        tub.push(("k", i))
    items = tub.drain()
    assert sorted(x[1] for x in items) == list(range(5))
    assert len(tub) == 0


def test_tub_capacity_enforced(monkeypatch):
    monkeypatch.setattr(tub_module, "MAX_SPINS", 10)
    tub = ThreadUpdateBuffer(nsegments=1, segment_capacity=2)
    tub.push(1)
    tub.push(2)
    ok, _ = tub.try_push(3)
    assert not ok
    with pytest.raises(TUBFullError):
        tub.push(3)


def test_tub_preferred_segment_used_first():
    tub = ThreadUpdateBuffer(nsegments=4, segment_capacity=4)
    tub.push("a", preferred_segment=2)
    assert len(tub._segments[2].items) == 1


def test_tub_bad_geometry_rejected():
    with pytest.raises(ValueError):
        ThreadUpdateBuffer(nsegments=0)



# -- placement policies --------------------------------------------------------
def loop_blocks(width=8, nthreads_reduce=1):
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="w", contexts=range(width)))
    g.add_template(DThreadTemplate(tid=2, name="r", contexts=range(nthreads_reduce)))
    g.add_arc(1, 2, "all")
    return split_into_blocks(g.expand())


def test_contiguous_placement_chunks():
    block = loop_blocks(width=8)[0]
    assignment = contiguous_placement(block, 4)
    workers = assignment[:8]
    assert workers == [0, 0, 1, 1, 2, 2, 3, 3]


def test_round_robin_placement_cycles():
    block = loop_blocks(width=8)[0]
    assignment = round_robin_placement(block, 4)
    assert assignment[:8] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_affinity_hint_respected():
    g = SynchronizationGraph()
    g.add_template(
        DThreadTemplate(
            tid=1, name="w", contexts=range(4), affinity=lambda ctx, n: 1
        )
    )
    block = split_into_blocks(g.expand())[0]
    for policy in (contiguous_placement, round_robin_placement):
        assert policy(block, 3) == [1, 1, 1, 1]


# -- TSUGroup state machine -----------------------------------------------------
def drive_to_completion(tsu, nkernels):
    """Round-robin driver mimicking the kernels; returns execution trace."""
    trace = []
    active = True
    guard = 0
    while active:
        active = False
        for k in range(nkernels):
            guard += 1
            assert guard < 100_000, "TSU state machine livelocked"
            f = tsu.fetch(k)
            if f.kind == FetchKind.EXIT:
                continue
            active = True
            if f.kind == FetchKind.WAIT:
                continue
            if f.kind == FetchKind.INLET:
                tsu.complete_inlet(k)
                trace.append(("inlet", f.block.block_id, k))
            elif f.kind == FetchKind.OUTLET:
                tsu.complete_outlet(k)
                trace.append(("outlet", f.block.block_id, k))
            else:
                trace.append(("run", f.instance.name, k))
                tsu.complete_thread(k, f.local_iid)
    return trace


def test_group_runs_single_block_program():
    blocks = loop_blocks(width=6)
    tsu = TSUGroup(3, blocks)
    trace = drive_to_completion(tsu, 3)
    runs = [t for t in trace if t[0] == "run"]
    assert len(runs) == 7  # 6 workers + 1 reduce
    assert trace[0][0] == "inlet"
    assert trace[-1][0] == "outlet"


def test_group_reduction_fires_last():
    blocks = loop_blocks(width=6)
    tsu = TSUGroup(2, blocks)
    trace = drive_to_completion(tsu, 2)
    runs = [t[1] for t in trace if t[0] == "run"]
    assert runs[-1] == "r[0]"


def test_group_multi_block_sequencing():
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a", contexts=range(4)))
    g.add_template(DThreadTemplate(tid=2, name="b", contexts=range(4)))
    g.add_arc(1, 2, "same")
    blocks = split_into_blocks(g.expand(), tsu_capacity=4)
    assert len(blocks) == 2
    tsu = TSUGroup(2, blocks)
    trace = drive_to_completion(tsu, 2)
    kinds = [t[0] for t in trace]
    assert kinds.count("inlet") == 2
    assert kinds.count("outlet") == 2
    # Block 0's outlet precedes block 1's inlet.
    first_outlet = next(i for i, t in enumerate(trace) if t[0] == "outlet")
    second_inlet = next(
        i for i, t in enumerate(trace) if t[0] == "inlet" and t[1] == 1
    )
    assert first_outlet < second_inlet


def test_group_exit_state_sticky():
    blocks = loop_blocks(width=2)
    tsu = TSUGroup(1, blocks)
    drive_to_completion(tsu, 1)
    assert tsu.is_exited()
    assert tsu.fetch(0).kind == FetchKind.EXIT


def test_group_wait_when_no_local_work():
    """A kernel whose SM is empty waits while others still run."""
    blocks = loop_blocks(width=1)  # single worker thread + reduce
    tsu = TSUGroup(3, blocks)
    inlet = tsu.fetch(0)
    assert inlet.kind == FetchKind.INLET
    tsu.complete_inlet(0)
    # Worker and reduce both land on some kernels; others must WAIT.
    kinds = {k: tsu.fetch(k).kind for k in range(3)}
    assert FetchKind.WAIT in kinds.values()


def test_placement_follows_context_order_when_the_block_permutes_it():
    """Context 1 of ``b`` has no producer, so it is an entry and the
    block lists it before context 0; each kernel still gets a
    contiguous range of ``b``'s contexts, the lowest on kernel 0."""
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="a", contexts=range(2)))
    g.add_template(DThreadTemplate(tid=2, name="b", contexts=range(4)))
    g.add_arc(1, 2, lambda ctx: [2 * ctx])
    block = split_into_blocks(g.expand())[0]
    names = [inst.name for inst in block.instances]
    assert names == ["a[0]", "a[1]", "b[1]", "b[3]", "b[0]", "b[2]"]
    kernel = dict(zip(names, contiguous_placement(block, 2)))
    assert [kernel[f"b[{c}]"] for c in range(4)] == [0, 0, 1, 1]
    kernel = dict(zip(names, round_robin_placement(block, 2)))
    assert [kernel[f"b[{c}]"] for c in range(4)] == [0, 1, 0, 1]


def test_wait_and_exit_replies_are_shared_and_immutable():
    """Every WAIT and EXIT reply is one shared record, so none may be
    changed in place."""
    blocks = loop_blocks(width=1)
    tsu = TSUGroup(3, blocks)
    assert tsu.fetch(0).kind is FetchKind.INLET
    assert tsu.fetch(1) is FETCH_WAIT  # the Inlet is loading
    tsu.complete_inlet(0)
    drive_to_completion(tsu, 3)
    assert tsu.fetch(2) is FETCH_EXIT
    for reply in (FETCH_WAIT, FETCH_EXIT):
        with pytest.raises(AttributeError):
            reply.kind = FetchKind.THREAD
        with pytest.raises(AttributeError):
            reply.instance = blocks[0].inlet
    assert FETCH_WAIT.kind is FetchKind.WAIT and FETCH_WAIT.instance is None
    assert FETCH_EXIT.kind is FetchKind.EXIT and FETCH_EXIT.block is None


def test_group_completion_in_wrong_phase_rejected():
    blocks = loop_blocks(width=2)
    tsu = TSUGroup(1, blocks)
    with pytest.raises(RuntimeError):
        tsu.complete_inlet(0)  # nothing fetched yet -> INLET_PENDING, not LOADING


def test_group_requires_blocks_and_kernels():
    with pytest.raises(ValueError):
        TSUGroup(0, loop_blocks())
    with pytest.raises(ValueError):
        TSUGroup(1, [])


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=12),
    nkernels=st.integers(min_value=1, max_value=6),
    cap=st.integers(min_value=2, max_value=8),
    rr=st.booleans(),
)
def test_group_property_all_instances_execute_once(width, nkernels, cap, rr):
    g = SynchronizationGraph()
    g.add_template(DThreadTemplate(tid=1, name="w", contexts=range(width)))
    g.add_template(DThreadTemplate(tid=2, name="m", contexts=range(max(1, width // 2))))
    g.add_template(DThreadTemplate(tid=3, name="r"))
    g.add_arc(1, 2, mapping=lambda c: [min(c // 2, max(1, width // 2) - 1)])
    g.add_arc(2, 3, "all")
    blocks = split_into_blocks(g.expand(), tsu_capacity=cap)
    placement = round_robin_placement if rr else contiguous_placement
    tsu = TSUGroup(nkernels, blocks, placement=placement)
    trace = drive_to_completion(tsu, nkernels)
    runs = [t[1] for t in trace if t[0] == "run"]
    assert len(runs) == len(set(runs))  # each instance exactly once
    assert len(runs) == width + max(1, width // 2) + 1
    assert tsu.is_exited()


def test_group_empty_block_falls_through_to_outlet():
    """Defensive: a hand-built block with zero application DThreads must
    chain Inlet -> Outlet instead of stalling in RUNNING."""
    from repro.core.block import DDMBlock
    from repro.core.graph import ConsumerRuns

    empty = DDMBlock(
        block_id=0, instances=[], ready_counts=[], consumers=ConsumerRuns(0), entry=[]
    )
    empty.is_last = True
    tsu = TSUGroup(1, [empty])
    f = tsu.fetch(0)
    assert f.kind == FetchKind.INLET
    tsu.complete_inlet(0)
    f = tsu.fetch(0)
    assert f.kind == FetchKind.OUTLET
    tsu.complete_outlet(0)
    assert tsu.is_exited()


# -- one holder of a block's arcs, one Post-Processing loop ----------------------
def test_inlet_loads_the_block_without_copying_its_arcs():
    blocks = loop_blocks(width=4)
    tsu = TSUGroup(2, blocks)
    assert tsu.fetch(0).kind == FetchKind.INLET
    tsu.complete_inlet(0)
    arcs = tsu.current_block.consumers
    for i in range(blocks[0].size):
        runs = tsu.consumers_of(i)
        assert runs == [arcs.runs[r] for r in arcs.out[i]]
        assert all(a is arcs.runs[r] for a, r in zip(runs, arcs.out[i]))
        assert tsu.fanout(i) == sum(len(r) for r in runs)
    tsu.check_invariants()


def test_post_updates_is_one_per_arc_however_an_instance_retires():
    """pick takes branch 1: ``right`` and ``chain`` are squashed in their
    block, ``late`` is pre-squashed when the next block loads, the rest
    complete.  Each retirement walks the instance's in-block consumers
    once, so ``post_updates`` is the blocks' arc count."""
    g = SynchronizationGraph()
    for tid, name in enumerate(
        ["pick", "left", "right", "chain", "join", "late", "tail"], start=1
    ):
        g.add_template(DThreadTemplate(tid=tid, name=name))
    g.add_arc(1, 2, cond_key=1)
    g.add_arc(1, 3, cond_key=2)
    g.add_arc(3, 4)
    g.add_arc(2, 5)
    g.add_arc(3, 5)
    g.add_arc(4, 6)
    g.add_arc(1, 6, cond_key=2)
    g.add_arc(6, 7)
    g.add_arc(2, 7)
    eg = g.expand()
    blocks = split_into_blocks(eg, tsu_capacity=5)
    assert [[i.name for i in b.instances] for b in blocks] == [
        ["pick[0]", "left[0]", "right[0]", "chain[0]", "join[0]"],
        ["late[0]", "tail[0]"],
    ]
    arcs = sum(sum(b.consumers.fanouts) for b in blocks)
    assert arcs == 6

    tsu = TSUGroup(2, blocks, root_graph=eg, tsu_capacity=5)
    ran = []
    while not tsu.is_exited():
        for k in range(2):
            f = tsu.fetch(k)
            if f.kind == FetchKind.INLET:
                tsu.complete_inlet(k)
            elif f.kind == FetchKind.OUTLET:
                tsu.complete_outlet(k)
            elif f.kind == FetchKind.THREAD:
                ran.append(f.instance.name)
                tsu.complete_thread(
                    k, f.local_iid, 1 if f.instance.name == "pick[0]" else None
                )
                tsu.check_invariants()
    assert ran == ["pick[0]", "left[0]", "join[0]", "tail[0]"]
    assert tsu.squashed_threads == 3
    assert tsu.post_updates == arcs
