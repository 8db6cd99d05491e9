"""Differential fuzzing: every implementation, one oracle.

Hypothesis drives sizes and permutations; for each case all available
implementations must agree with the crossbar oracle: object-model BNB,
vectorized BNB, gate-level BNB (small sizes), Batcher, bitonic, Benes,
Koppelman, Clos.  This is the test that turns N independent
implementations into one confidence argument.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BatcherNetwork,
    BenesNetwork,
    BitonicNetwork,
    ClosNetwork,
    Crossbar,
    KoppelmanSRPN,
)
from repro.core import BNBNetwork, Word
from repro.hardware import build_bnb_netlist
from repro.permutations import Permutation

_NETLISTS = {m: build_bnb_netlist(m) for m in (1, 2, 3)}


@st.composite
def sized_permutations(draw):
    m = draw(st.integers(1, 4))
    mapping = draw(st.permutations(list(range(1 << m))))
    return m, Permutation(mapping)


@settings(max_examples=80, deadline=None)
@given(sized_permutations())
def test_all_implementations_agree(case):
    m, pi = case
    n = 1 << m
    words = [Word(address=pi(j), payload=j) for j in range(n)]
    oracle = [(w.address, w.payload) for w in Crossbar(n).route(list(words))]

    def check(outputs):
        assert [(w.address, w.payload) for w in outputs] == oracle

    check(BNBNetwork(m).route(list(words))[0])
    check(BatcherNetwork(m).route(list(words))[0])
    check(BitonicNetwork(m).route(list(words))[0])
    check(BenesNetwork(m).route(list(words))[0])
    check(KoppelmanSRPN(m).route(list(words)))
    check(ClosNetwork(2, 2, max(n // 2, 1)).route(list(words)))

    fast = BNBNetwork(m).route_fast(np.array(pi.to_list()))
    assert fast.tolist() == list(range(n))

    if m in _NETLISTS:
        netlist, ports = _NETLISTS[m]
        decoded = ports.decode_outputs(
            netlist.evaluate(ports.input_assignment(pi.to_list()))
        )
        assert decoded == list(range(n))


def _draw_schedule(draw, n, max_cycles):
    """A pipelined-fabric driving schedule: per cycle either an idle
    bubble or a (possibly partial) frame of destination requests."""
    schedule = []
    for _ in range(draw(st.integers(1, max_cycles))):
        if draw(st.booleans()):
            schedule.append(None)  # idle cycle: no frame enters
            continue
        # A partial frame: each input independently idle or requesting.
        subset = draw(st.sets(st.integers(0, n - 1), max_size=n))
        order = draw(st.permutations(sorted(subset)))
        requests = [None] * n
        lines = draw(st.permutations(list(range(n))))
        for line, dest in zip(lines, order):
            requests[line] = dest
        schedule.append(requests)
    return schedule


@st.composite
def frame_schedules(draw):
    """A schedule of partial frames and bubbles at m = 1..4."""
    m = draw(st.integers(1, 4))
    return m, _draw_schedule(draw, 1 << m, 12)


def _object_deliveries(pipeline, schedule):
    """Drive the object pipeline with *schedule* (idle-filled frames
    and bubbles); return each frame's delivered (address, payload)s."""
    from repro.core.traffic import complete_partial_permutation

    delivered = []
    for tag, requests in enumerate(schedule):
        if requests is not None:
            full, is_real = complete_partial_permutation(requests)
            pipeline.offer_words(
                [
                    Word(
                        address=address,
                        payload=(tag, line) if is_real[line] else None,
                    )
                    for line, address in enumerate(full)
                ],
                tag=tag,
            )
        delivered.extend(pipeline.step())
    delivered.extend(pipeline.drain())
    return {
        tag: [(w.address, w.payload) for w in outputs]
        for tag, outputs in delivered
    }


def _kernel_deliveries(m, schedule, mask=None):
    """The same frames routed in one ``route_frame_batch`` call."""
    from repro.core.pipeline_fast import route_frame_batch
    from repro.core.traffic import complete_partial_permutation

    frames = {
        tag: complete_partial_permutation(requests)
        for tag, requests in enumerate(schedule)
        if requests is not None
    }
    if not frames:
        return {}
    sources = route_frame_batch(
        m, np.array([full for full, _ in frames.values()]), mask=mask
    )
    return {
        tag: [
            (full[line], (tag, line) if is_real[line] else None)
            for line in row.tolist()
        ]
        for (tag, (full, is_real)), row in zip(frames.items(), sources)
    }


@settings(max_examples=60, deadline=None)
@given(frame_schedules())
def test_vector_pipeline_matches_object_pipeline(case):
    """The compiled frame kernel and the object pipeline, fed the
    identical (partial, idle-filled) frames, deliver every frame in the
    identical arrangement — address and payload order."""
    from repro.core.pipeline import PipelinedBNBFabric

    m, schedule = case
    assert _kernel_deliveries(m, schedule) == _object_deliveries(
        PipelinedBNBFabric(m), schedule
    )


@st.composite
def faulted_frame_schedules(draw):
    """A fault set plus a driving schedule over the same fabric size.

    Faults are 0-3 distinct stuck control bits; the schedule reuses the
    partial/idle frame shape of :func:`frame_schedules` so faulty
    fabrics are exercised under bubbles and half-empty frames too.
    """
    from repro.faults import enumerate_switch_coordinates

    m = draw(st.integers(2, 3))
    n = 1 << m
    coordinates = list(enumerate_switch_coordinates(m))
    count = draw(st.integers(0, 3))
    picks = draw(
        st.lists(
            st.sampled_from(coordinates),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    faults = [(pick, draw(st.integers(0, 1))) for pick in picks]
    return m, faults, _draw_schedule(draw, n, 8)


@settings(max_examples=40, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_vector_pipeline_matches_faulty_object_pipeline(case):
    """One fault set, as one FaultMask, on ``route_frame_batch`` and on
    the object pipeline must corrupt identically, frame by frame,
    partial frames included."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.faults import fault_mask_for

    m, faults, schedule = case
    mask = fault_mask_for(m, faults)
    assert _kernel_deliveries(m, schedule, mask=mask) == _object_deliveries(
        PipelinedBNBFabric(m, mask=mask), schedule
    )


def _source_lines(m, schedule, faults, dead_links):
    """Each frame's output order as source lines, on the kernel and on
    the object pipeline under one :class:`~repro.core.plan.FaultMask`
    (a word entering main stage ``i`` on a dead line continues with
    address -1 there, payload kept)."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.core.pipeline_fast import route_frame_batch
    from repro.core.traffic import complete_partial_permutation
    from repro.faults import fault_mask_for

    mask = fault_mask_for(m, faults, dead_links=dead_links)
    frames = []
    fabric = PipelinedBNBFabric(m, mask=mask)
    delivered = []
    for tag, requests in enumerate(schedule):
        if requests is not None:
            full, _ = complete_partial_permutation(requests)
            frames.append(full)
            fabric.offer_words(
                [Word(address=a, payload=line) for line, a in enumerate(full)],
                tag=tag,
            )
        delivered.extend(fabric.step())
    delivered.extend(fabric.drain())
    obj = [[word.payload for word in outputs] for _tag, outputs in delivered]
    if not frames:
        return [], obj
    return route_frame_batch(m, np.array(frames), mask=mask).tolist(), obj


@st.composite
def split_faulted_frame_schedules(draw):
    """Faults at m = 5, across the kernel's arbiter/table split.

    Main stage 0 opens with a 32-line splitter (its arbiter head); every
    other splitter sits in a bit-sorter tail of at most 16 lines, routed
    by table unless its stage carries a stuck switch, which sends the
    whole stage to the arbiter.  Stuck switches are drawn from both
    places (a head fault sends stage 0 to the arbiter; without one,
    stage 0 crosses from arbiter head to table tail under the mask), and
    every dead link sits on a stage with no stuck switch, so it crosses
    table stages.
    """
    from repro.faults import enumerate_switch_coordinates

    m = 5
    n = 1 << m
    coordinates = list(enumerate_switch_coordinates(m))
    head = [
        c for c in coordinates if c.main_stage == 0 and c.nested_stage == 0
    ]
    tail = [c for c in coordinates if c not in head]
    head_count = draw(st.integers(0, 1), label="head faults")
    picks = draw(
        st.lists(
            st.sampled_from(head), min_size=head_count, max_size=head_count
        )
    ) + draw(
        st.lists(
            st.sampled_from(tail),
            min_size=1 - head_count,
            max_size=2,
            unique=True,
        )
    )
    faults = [(pick, draw(st.integers(0, 1))) for pick in picks]
    stuck_stages = {pick.main_stage for pick in picks}
    table_stages = [i for i in range(m) if i not in stuck_stages]
    dead_links = draw(
        st.lists(
            st.tuples(st.sampled_from(table_stages), st.integers(0, n - 1)),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    return m, faults, dead_links, _draw_schedule(draw, n, 4)


@settings(max_examples=20, deadline=None)
@given(split_faulted_frame_schedules())
def test_masked_kernel_matches_object_pipeline_across_table_split(case):
    """At m = 5 the masked kernel mixes arbiter heads, table tails and
    arbiter fallbacks; frame by frame it must corrupt exactly as the
    faulty object pipeline does, dead links included."""
    m, faults, dead_links, schedule = case
    kernel, obj = _source_lines(m, schedule, faults, dead_links)
    assert kernel == obj


@pytest.mark.parametrize(
    "stuck, dead_links",
    [
        # Head fault: stage 0 on the arbiter, dead links on table stages.
        ([((0, 0, 0, 0, 5), 1)], [(2, 7), (4, 30)]),
        # Tail fault in stage 3: stage 0 crosses head to table under
        # the mask, with a dead link entering it and one entering stage 1.
        ([((3, 5, 0, 0, 1), 0)], [(0, 3), (1, 19)]),
        # Tail fault inside stage 0's 16-line tail, so the whole stage
        # runs on the arbiter; a 2-line tail fault in stage 4.
        ([((0, 0, 2, 3, 2), 1), ((4, 11, 0, 0, 0), 0)], [(2, 0)]),
    ],
    ids=["head", "tail-stage-3", "tail-stage-0"],
)
def test_masked_kernel_table_split_cases_m5(stuck, dead_links):
    """Pinned cases of the property above, one per placement."""
    from repro.faults import SwitchCoordinate

    faults = [(SwitchCoordinate(*where), value) for where, value in stuck]
    rng = np.random.default_rng(5)
    schedule = [rng.permutation(32).tolist() for _ in range(6)]
    kernel, obj = _source_lines(5, schedule, faults, dead_links)
    assert kernel == obj and len(kernel) == 6


@st.composite
def head_faulted_frame_schedules(draw):
    """Faults at m = 8 around the packed-row head.

    Main stage 0 opens with a 256-line splitter: 16 groups of 16 lines,
    each decided by one table row and the flag the tree above the
    groups sends it.  Dead links enter that head (and sometimes stage
    1's 128-line one); one stuck switch sits on a later stage, which
    runs wholly on the arbiter, so stages 0 and 1 stay on the tables.
    """
    from repro.faults import enumerate_switch_coordinates

    m = 8
    n = 1 << m
    later = [c for c in enumerate_switch_coordinates(m) if c.main_stage >= 2]
    stuck = draw(st.sampled_from(later), label="stuck switch")
    dead_links = draw(
        st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 1]), st.integers(0, n - 1)),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        label="dead links",
    )
    faults = [(stuck, draw(st.integers(0, 1)))]
    return m, faults, dead_links, _draw_schedule(draw, n, 2)


@settings(max_examples=10, deadline=None)
@given(head_faulted_frame_schedules())
def test_masked_kernel_matches_object_pipeline_on_the_head(case):
    """Garbage from dead links crossing the 256-line head's tables, a
    stuck switch downstream: frame by frame the kernel corrupts exactly
    as the faulty object pipeline does."""
    m, faults, dead_links, schedule = case
    kernel, obj = _source_lines(m, schedule, faults, dead_links)
    assert kernel == obj


@pytest.mark.parametrize(
    "stuck, dead_links",
    [
        # Dead links on stage 0's 256-line head; a stuck switch in the
        # 64-line head of stage 2.
        ([((2, 1, 0, 0, 13), 1)], [(0, 17), (0, 200), (0, 201)]),
        # A whole 16-line group of the head dead; a stuck switch in the
        # last stage.
        ([((7, 100, 0, 0, 0), 1)], [(0, line) for line in range(32, 48)]),
        # Dead links entering stages 0 and 1 (a 128-line head); a stuck
        # switch in a 4-line tail of stage 5.
        ([((5, 9, 1, 0, 1), 0)], [(0, 0), (0, 255), (1, 90)]),
    ],
    ids=["head-dead-stage-2-stuck", "dead-group", "two-heads-dead"],
)
def test_masked_kernel_head_cases_m8(stuck, dead_links):
    """Pinned cases of the property above."""
    from repro.faults import SwitchCoordinate

    faults = [(SwitchCoordinate(*where), value) for where, value in stuck]
    rng = np.random.default_rng(8)
    schedule = [rng.permutation(256).tolist() for _ in range(3)]
    kernel, obj = _source_lines(8, schedule, faults, dead_links)
    assert kernel == obj and len(kernel) == 3


@settings(max_examples=15, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_resilient_services_agree(case):
    """The whole robustness control loop, differentially: the object
    ResilientFabric and the serving FaultPolicy seeded with the same
    fault set and fed the same (partial) frames must agree on every
    frame's mode and retry count, the BIST syndromes, every counter,
    the health state and the confirmed hypothesis class."""
    from repro.core.traffic import complete_partial_permutation
    from repro.exceptions import FaultServiceError
    from repro.faults import fault_mask_for
    from repro.service import FaultPolicy, ResilientFabric

    m, faults, schedule = case
    n = 1 << m
    mask = fault_mask_for(m, faults)
    obj = ResilientFabric(m, mask=mask)
    policy = FaultPolicy(m, mask=mask)
    syndromes = {"obj": [], "policy": []}
    obj.probe_hook = lambda probe, obs: syndromes["obj"].append(obs.syndrome)
    policy.probe_hook = lambda probe, obs: syndromes["policy"].append(
        obs.syndrome
    )
    # Real words first, as the gateway composes frames.
    frames = [
        [dest for dest in requests if dest is not None]
        for requests in schedule
        if requests is not None
    ] + [list(range(1, n)) + [0]]

    def outcome(submit):
        try:
            return submit()
        except FaultServiceError as error:
            return type(error).__name__

    for tag, real in enumerate(frames):
        full, _ = complete_partial_permutation(real + [None] * (n - len(real)))
        words = [
            Word(address=address, payload=line if line < len(real) else None)
            for line, address in enumerate(full)
        ]

        def oracle():
            result = obj.submit_words(words, tag=tag)
            assert [w.address for w in result.outputs if w] == sorted(real)
            return result.mode, result.retries

        assert outcome(
            lambda: policy.submit(full, tag=tag, count=len(real))
        ) == outcome(oracle)
    # Proactive BIST on whichever service has not yet self-diagnosed.
    for service in (obj, policy):
        if not service.registry.is_quarantined:
            service.check(tag="fuzz-bist")
    assert syndromes["obj"] == syndromes["policy"]
    assert obj.counters == policy.counters
    assert obj.state is policy.state
    assert sorted(obj.registry.confirmed_faults) == sorted(
        policy.registry.confirmed_faults
    )


@settings(max_examples=40, deadline=None)
@given(sized_permutations())
def test_record_and_replay_agree(case):
    """Recording a pass and replaying its controls reproduces it —
    for arbitrary sizes and permutations, not just the unit tests'."""
    from repro.faults import extract_controls, replay_controls

    m, pi = case
    n = 1 << m
    network = BNBNetwork(m)
    words = [Word(address=pi(j), payload=j) for j in range(n)]
    outputs, record = network.route(words, record=True)
    assert record is not None
    replayed = replay_controls(m, words, extract_controls(record))
    assert [(w.address, w.payload) for w in replayed] == [
        (w.address, w.payload) for w in outputs
    ]
