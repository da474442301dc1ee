"""Property tests for placement policies, the TKT and the partition rule.

Satellite coverage for the TFluxDist tentpole: placement is what decides
how much TSU traffic crosses the network, so its basic contracts —
every block instance assigned to exactly one in-range kernel, template
``affinity`` overrides always honoured, contiguous chunks actually
contiguous — get pinned here, together with the one kernel → part rule
(:func:`~repro.tsu.tkt.contiguous_partition`: nodes of TFluxDist, TSU
Groups of the multi-group adapter) that the distributed post-processing
composes with the TKT.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import ProgramBuilder
from repro.tsu.policy import contiguous_placement, round_robin_placement
from repro.tsu.tkt import ThreadToKernelTable, contiguous_partition

POLICIES = {
    "contiguous": contiguous_placement,
    "round_robin": round_robin_placement,
}


def build_block(widths, affinities=None, tsu_capacity=None):
    """One program of len(widths) independent templates; first block."""
    affinities = affinities or {}
    b = ProgramBuilder("placement")
    b.env.alloc("out", max(sum(widths), 1))
    for j, w in enumerate(widths):
        b.thread(
            f"s{j}",
            body=lambda env, i: None,
            contexts=w,
            affinity=affinities.get(j),
        )
    blocks = b.build().blocks(tsu_capacity)
    return blocks[0]


@st.composite
def placement_cases(draw):
    widths = draw(
        st.lists(st.integers(min_value=1, max_value=17), min_size=1, max_size=4)
    )
    nkernels = draw(st.integers(min_value=1, max_value=9))
    return widths, nkernels


# -- partition: every instance placed exactly once, in range -------------------
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(case=placement_cases())
def test_placement_partitions_block_exactly(policy_name, case):
    widths, nkernels = case
    block = build_block(widths)
    assignment = POLICIES[policy_name](block, nkernels)
    assert len(assignment) == block.size
    assert all(0 <= k < nkernels for k in assignment)
    # Partition property through the TKT: threads_of(k) over all kernels
    # is a disjoint cover of the block's local ids.
    tkt = ThreadToKernelTable(assignment, nkernels)
    covered = [i for k in range(nkernels) for i in tkt.threads_of(k)]
    assert sorted(covered) == list(range(block.size))


@given(case=placement_cases())
def test_contiguous_chunks_are_contiguous_and_balanced(case):
    """Per template: kernel ids are non-decreasing over context order and
    chunk sizes differ by at most one (modulo the floor formula)."""
    widths, nkernels = case
    block = build_block(widths)
    assignment = contiguous_placement(block, nkernels)
    by_template = {}
    for local_iid, inst in enumerate(block.instances):
        by_template.setdefault(inst.template.tid, []).append(assignment[local_iid])
    for kernels in by_template.values():
        assert kernels == sorted(kernels)
        counts = [kernels.count(k) for k in range(nkernels)]
        nonzero = [c for c in counts if c]
        assert max(nonzero) - min(nonzero) <= 1


@given(case=placement_cases())
def test_round_robin_is_cyclic(case):
    widths, nkernels = case
    block = build_block(widths)
    assignment = round_robin_placement(block, nkernels)
    pos_by_template = {}
    for local_iid, inst in enumerate(block.instances):
        pos = pos_by_template.setdefault(inst.template.tid, [0])
        assert assignment[local_iid] == pos[0] % nkernels
        pos[0] += 1


# -- affinity overrides --------------------------------------------------------
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(
    case=placement_cases(),
    pin=st.integers(min_value=0, max_value=100),
)
def test_affinity_override_wins(policy_name, case, pin):
    """A template with an affinity callable is placed exactly where it
    says (mod nkernels), whatever the policy would have chosen."""
    widths, nkernels = case
    block = build_block(widths, affinities={0: lambda ctx, n, pin=pin: pin})
    assignment = POLICIES[policy_name](block, nkernels)
    for local_iid, inst in enumerate(block.instances):
        if inst.template.name == "s0":
            assert assignment[local_iid] == pin % nkernels


# -- the kernel → part rule behind the TKT -------------------------------------
@st.composite
def partition_tables(draw):
    nkernels = draw(st.integers(min_value=1, max_value=12))
    parts = draw(st.integers(min_value=1, max_value=nkernels))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=nkernels - 1),
            min_size=1,
            max_size=40,
        )
    )
    return assignment, nkernels, parts


@given(table=partition_tables())
def test_partition_composes_with_tkt(table):
    """instance → (part, kernel) through the TKT and the rule: the part
    is the contiguous formula of the instance's kernel, for every
    instance of the block."""
    assignment, nkernels, parts = table
    tkt = ThreadToKernelTable(assignment, nkernels)
    part_of = contiguous_partition(nkernels, parts)
    assert len(part_of) == nkernels
    for local_iid, kernel in enumerate(assignment):
        assert tkt.kernel_of(local_iid) == kernel
        assert part_of[tkt.kernel_of(local_iid)] == kernel * parts // nkernels


@given(table=partition_tables())
def test_partition_covers_every_kernel_contiguously(table):
    _assignment, nkernels, parts = table
    part_of = contiguous_partition(nkernels, parts)
    kernels_of = [[k for k in range(nkernels) if part_of[k] == p] for p in range(parts)]
    assert sorted(k for ks in kernels_of for k in ks) == list(range(nkernels))
    for ks in kernels_of:
        assert ks  # parts <= nkernels: nobody is empty
        # Contiguity: each part owns one unbroken kernel range.
        assert ks == list(range(ks[0], ks[-1] + 1))
    sizes = [len(ks) for ks in kernels_of]
    assert max(sizes) - min(sizes) <= 1


def test_partition_rejects_bad_part_counts():
    with pytest.raises(ValueError):
        contiguous_partition(2, 0)
    with pytest.raises(ValueError):
        contiguous_partition(2, 3)
