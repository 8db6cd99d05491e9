"""Differential fuzzing: every implementation, one oracle.

Hypothesis drives sizes and permutations; for each case all available
implementations must agree with the crossbar oracle: object-model BNB,
vectorized BNB, gate-level BNB (small sizes), Batcher, bitonic, Benes,
Koppelman, Clos.  This is the test that turns N independent
implementations into one confidence argument.
"""

import numpy as np
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


@st.composite
def frame_schedules(draw):
    """A pipelined-fabric driving schedule: per cycle either an idle
    bubble or a (possibly partial) frame of destination requests."""
    m = draw(st.integers(1, 4))
    n = 1 << m
    cycles = draw(st.integers(1, 12))
    schedule = []
    for _ in range(cycles):
        if draw(st.booleans()):
            schedule.append(None)  # idle cycle: no frame enters
            continue
        # A partial frame: each input independently idle or requesting.
        subset = draw(
            st.sets(st.integers(0, n - 1), max_size=n)
        )
        order = draw(st.permutations(sorted(subset)))
        requests = [None] * n
        lines = draw(
            st.permutations(list(range(n)))
        )
        for line, dest in zip(lines, order):
            requests[line] = dest
        schedule.append(requests)
    return m, schedule


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
    cycles = draw(st.integers(1, 8))
    schedule = []
    for _ in range(cycles):
        if draw(st.booleans()):
            schedule.append(None)
            continue
        subset = draw(st.sets(st.integers(0, n - 1), max_size=n))
        order = draw(st.permutations(sorted(subset)))
        requests = [None] * n
        lines = draw(st.permutations(list(range(n))))
        for line, dest in zip(lines, order):
            requests[line] = dest
        schedule.append(requests)
    return m, faults, schedule


@settings(max_examples=40, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_vector_pipeline_matches_faulty_object_pipeline(case):
    """A fault set rendered as a FaultMask on ``route_frame_batch`` and
    as composed object-model control overrides must corrupt
    identically, frame by frame, partial frames included."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.faults import fault_mask_for, stuck_override_set

    m, faults, schedule = case
    assert _kernel_deliveries(
        m, schedule, mask=fault_mask_for(m, faults)
    ) == _object_deliveries(
        PipelinedBNBFabric(m, control_override=stuck_override_set(faults)),
        schedule,
    )


@settings(max_examples=15, deadline=None)
@given(faulted_frame_schedules())
def test_faulty_resilient_services_agree(case):
    """The whole robustness control loop, differentially: the object
    ResilientFabric and the serving FaultPolicy seeded with the same
    fault set and fed the same (partial) frames must agree on every
    frame's mode and retry count, the BIST syndromes, every counter,
    the health state and the confirmed hypothesis class."""
    from repro.core.pipeline import PipelinedBNBFabric
    from repro.core.traffic import complete_partial_permutation
    from repro.exceptions import FaultServiceError
    from repro.faults import fault_mask_for, stuck_override_set
    from repro.service import FaultPolicy, ResilientFabric

    m, faults, schedule = case
    n = 1 << m
    obj = ResilientFabric(
        m,
        pipeline=PipelinedBNBFabric(
            m, control_override=stuck_override_set(faults)
        ),
    )
    policy = FaultPolicy(m, mask=fault_mask_for(m, faults))
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
