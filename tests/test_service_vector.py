"""The fault-tolerant compiled dataplane: masks, batched BIST, policy.

Covers the fault-as-data model end to end: :class:`FaultMask`
construction and validation, dead-link sentinel propagation through
the compiled kernels, the batched BIST pass and its vectorized
syndrome decoding, and :class:`FaultPolicy` — the serving planes'
array form of :class:`ResilientFabric` — alone and inside a windowed
:class:`BackendPlane`, checked against the object oracle.
"""

import numpy as np
import pytest

from repro.core import Word
from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import route_frame_batch
from repro.core.plan import DEAD_ADDRESS, FaultMask, build_fault_mask
from repro.exceptions import FaultError
from repro.faults import (
    BISTSchedule,
    SwitchCoordinate,
    fault_mask_for,
    random_fault_set,
    shared_bist_schedule,
)
from repro.faults.localization import decode_syndromes, observations_from_arrays
from repro.permutations import random_permutation
from repro.server import BackendPlane, Block, VirtualOutputQueues
from repro.server.scheduler import FrameScheduler
from repro.service import FaultPolicy, HealthState, ResilientFabric


def identity_words(n):
    return [Word(address=line, payload=line) for line in range(n)]


def reversal_words(n):
    return [Word(address=n - 1 - line, payload=line) for line in range(n)]


def arrived(addresses, sources):
    """The address on each output line of a routed frame."""
    return np.asarray(addresses)[sources].tolist()


class TestFaultMask:
    def test_build_and_describe(self):
        mask = build_fault_mask(3, stuck=[((2, 0, 0, 0, 0), 1)])
        assert isinstance(mask, FaultMask)
        assert mask.m == 3
        described = mask.describe()
        assert described["stuck"] == [
            {"coordinate": [2, 0, 0, 0, 0], "value": 1}
        ]
        assert described["dead_links"] == []
        # Exactly one override plane, addressed by (main stage, inner).
        assert set(mask.overrides) == {(2, 0)}
        forced, values = mask.overrides[(2, 0)]
        assert int(forced.sum()) == 1
        assert values[forced] == [1]

    def test_override_arrays_are_frozen(self):
        mask = build_fault_mask(2, stuck=[((1, 0, 0, 0, 0), 0)])
        forced, values = mask.overrides[(1, 0)]
        with pytest.raises(ValueError):
            forced[0, 0] = True
        with pytest.raises(ValueError):
            values[0, 0] = 1

    @pytest.mark.parametrize(
        "coordinate",
        [
            (-1, 0, 0, 0, 0),  # main stage below range
            (3, 0, 0, 0, 0),  # main stage above range for m=3
            (2, 4, 0, 0, 0),  # nested out of range at stage 2
            (2, 0, 1, 0, 0),  # nested stage out of range at stage 2
            (1, 0, 0, 2, 0),  # box out of range at inner stage 0
            (0, 0, 0, 0, 4),  # switch out of range in a width-8 box
        ],
    )
    def test_rejects_bad_coordinates(self, coordinate):
        with pytest.raises(FaultError):
            build_fault_mask(3, stuck=[(coordinate, 1)])

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(FaultError):
            build_fault_mask(3, stuck=[((2, 0, 0, 0, 0), 2)])

    def test_rejects_bad_dead_link(self):
        with pytest.raises(FaultError):
            build_fault_mask(3, dead_links=[(9, 0)])
        with pytest.raises(FaultError):
            build_fault_mask(3, dead_links=[(1, 64)])

    def test_mask_m_must_match_fabric(self):
        with pytest.raises(ValueError):
            FaultPolicy(3, mask=build_fault_mask(2))
        with pytest.raises(ValueError):
            FaultPolicy(3, schedule=shared_bist_schedule(2))


class TestMaskedKernels:
    def test_stuck_mask_matches_object_override(self):
        coordinate = SwitchCoordinate(2, 0, 0, 0, 0)
        for value in (0, 1):
            mask = fault_mask_for(3, [(coordinate, value)])
            obj = PipelinedBNBFabric(3, mask=mask)
            words = reversal_words(8)
            outputs = obj.route_batch(list(words))
            addresses = np.array([w.address for w in words])
            sources = route_frame_batch(3, addresses[None], mask=mask)[0]
            assert [(w.address, w.payload) for w in outputs] == [
                (words[s].address, words[s].payload) for s in sources.tolist()
            ]
            # The frame axis broadcasts the same fault over every frame.
            batch = route_frame_batch(3, np.stack([addresses] * 3), mask=mask)
            assert all(row.tolist() == sources.tolist() for row in batch)

    def test_dead_link_misdelivers_deterministically(self):
        # The clobbered word routes by the all-ones DEAD_ADDRESS
        # sentinel from the dead stage onward, so it lands away from
        # its true line (line 0's remaining bits are all zeros — the
        # maximally distinguishable case) and the displacement is
        # visible to the output-side address check.
        mask = build_fault_mask(3, dead_links=[(1, 0)])
        identity = np.arange(8)
        sources = route_frame_batch(3, identity[None], mask=mask)[0]
        # No word is lost: every input line comes out, rearranged.
        assert sorted(sources.tolist()) == list(range(8))
        outputs = arrived(identity, sources)
        syndrome = [line for line, address in enumerate(outputs) if address != line]
        assert syndrome  # the fault is visible
        # And deterministically so: the sentinel is data, not chance.
        again = route_frame_batch(3, identity[None, :], mask=mask)[0]
        assert arrived(identity, again) == outputs


class TestPipelinedBIST:
    """The BIST schedule as one batched kernel call
    (:meth:`BISTSchedule.run_batch`)."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_sequential_run_on_faulty_fabric(self, m):
        schedule = shared_bist_schedule(m)
        faults = random_fault_set(m, 1, seed=7)
        mask = fault_mask_for(m, faults)

        sequential = schedule.run(
            lambda words: PipelinedBNBFabric(m, mask=mask).route_batch(words)
        )
        batched = schedule.run_batch(
            lambda probes: route_frame_batch(m, probes, mask=mask)
        )
        assert [obs.syndrome for obs in batched] == [
            obs.syndrome for obs in sequential
        ]
        assert [obs.arrived for obs in batched] == [
            obs.arrived for obs in sequential
        ]

    def test_on_probe_fires_once_per_probe(self):
        schedule = shared_bist_schedule(2)
        seen = []
        schedule.run_batch(
            lambda probes: route_frame_batch(2, probes),
            on_probe=lambda probe, obs: seen.append((probe.index, obs.clean)),
        )
        assert seen == [(probe.index, True) for probe in schedule.probes]

    def test_rejects_a_router_of_the_wrong_shape(self):
        schedule = shared_bist_schedule(2)
        with pytest.raises(FaultError):
            schedule.run_batch(lambda probes: probes[:1])


class TestVectorizedDecoding:
    def test_decode_syndromes_pins_probe_observation(self):
        rng = np.random.default_rng(5)
        arrived = rng.integers(0, 8, size=(6, 8), dtype=np.int64)
        sent = np.tile(np.arange(8, dtype=np.int64), (6, 1))
        expected = [
            obs.syndrome for obs in observations_from_arrays(sent, arrived)
        ]
        assert decode_syndromes(arrived) == expected

    def test_decode_flags_dead_sentinels(self):
        arrived = np.arange(8, dtype=np.int64).reshape(1, 8)
        arrived = arrived.copy()
        arrived[0, 5] = DEAD_ADDRESS
        assert decode_syndromes(arrived) == [(5,)]

    def test_shape_validation(self):
        with pytest.raises(FaultError):
            decode_syndromes(np.arange(8))
        with pytest.raises(FaultError):
            observations_from_arrays(
                np.zeros((2, 4), dtype=np.int64),
                np.zeros((3, 4), dtype=np.int64),
            )


def oracle_for(m, faults):
    return ResilientFabric(m, mask=fault_mask_for(m, faults))


class TestResilientVectorFabric:
    """:class:`FaultPolicy`, driven one frame at a time (what a
    resilient plane with ``batch_window=1`` serves)."""

    def test_clean_traffic_stays_healthy(self):
        policy = FaultPolicy(3)
        for index in range(3):
            mode, retries = policy.submit(
                [(line + index) % 8 for line in range(8)], tag=index
            )
            assert (mode, retries) == ("clean", 0)
        assert policy.state is HealthState.HEALTHY
        assert policy.counters.words_clean == 24
        # A healthy plane routes with no mask at all.
        assert policy.mask is None
        assert policy.backend is policy.primary

    def test_stuck_fault_walks_full_lifecycle(self):
        mask = fault_mask_for(3, [(SwitchCoordinate(2, 0, 0, 0, 0), 1)])
        policy = FaultPolicy(3, mask=mask)
        permutation = list(reversed(range(8)))
        modes = [policy.submit(permutation, tag=index)[0] for index in range(4)]
        if not policy.registry.is_quarantined:
            policy.check(tag="scheduled")
            modes.append(policy.submit(permutation, tag="post")[0])
        assert policy.state is HealthState.QUARANTINED
        assert modes[-1] == "failover"
        kinds = policy.registry.event_kinds()
        assert kinds["quarantine"] == 1
        assert kinds["failover"] == 1
        # Failover switched the routing to the fault-free Benes spare.
        assert policy.backend.name == "krbenes"
        assert policy.mask is None
        assert policy.fault_mask is mask
        # Every submitted word was delivered to its own line.
        assert policy.counters.words_delivered == 8 * len(modes)

    def test_parity_with_object_service(self):
        coordinate = SwitchCoordinate(2, 0, 0, 0, 0)
        policy = FaultPolicy(3, mask=fault_mask_for(3, [(coordinate, 1)]))
        oracle = oracle_for(3, [(coordinate, 1)])
        permutation = list(reversed(range(8)))
        for index in range(4):
            result = oracle.submit(permutation, tag=index)
            assert policy.submit(permutation, tag=index) == (
                result.mode,
                result.retries,
            )
        assert policy.counters == oracle.counters
        assert policy.state is oracle.state
        assert sorted(policy.registry.confirmed_faults) == sorted(
            oracle.registry.confirmed_faults
        )
        assert [e.detail for e in policy.registry.events] == [
            e.detail for e in oracle.events
        ]

    def test_live_injection_quarantines(self):
        policy = FaultPolicy(3)
        permutation = list(reversed(range(8)))
        assert policy.submit(permutation, tag="before")[0] == "clean"
        policy.inject_stuck_control(SwitchCoordinate(2, 0, 0, 0, 0), 1)
        assert policy.fault_mask.stuck == (((2, 0, 0, 0, 0), 1),)
        for index in range(3):
            policy.submit(permutation, tag=index)
        if not policy.registry.is_quarantined:
            policy.check(tag="post-injection")
        assert policy.state is HealthState.QUARANTINED
        kinds = policy.registry.event_kinds()
        assert kinds["injection"] == 1
        assert policy.submit(permutation, tag="after")[0] == "failover"

    def test_dead_link_quarantines_without_hypotheses(self):
        mask = build_fault_mask(3, dead_links=[(1, 3)])
        policy = FaultPolicy(3, mask=mask)
        permutation = list(reversed(range(8)))
        for index in range(4):
            policy.submit(permutation, tag=index)
        assert policy.counters.words_delivered == 32
        assert policy.state is HealthState.QUARANTINED
        # A dead link matches no stuck-control hypothesis; the service
        # must still quarantine and ride the spare rather than wedge.
        assert policy.submit(permutation, tag="after")[0] == "failover"
        # Injection keeps the dead link in the rebuilt mask.
        policy.inject_stuck_control(SwitchCoordinate(2, 0, 0, 0, 0), 1)
        assert policy.fault_mask.dead == ((1, 3),)

    def test_check_runs_pipelined_bist(self):
        """A proactive check routes every probe in one batched call."""
        policy = FaultPolicy(3)
        probes = []
        policy.probe_hook = lambda probe, obs: probes.append(obs.clean)
        policy.check(tag="proactive")
        assert probes == [True] * policy.schedule.probe_count
        assert policy.state is HealthState.HEALTHY
        assert policy.counters.bist_runs == 1

    def test_partial_frames_match_the_oracle(self):
        """Idle lines are owed nothing: a frame whose first *count*
        lines are real is delivered, counted and retried as the
        oracle's ``submit_words`` does with idle filler."""
        coordinate = SwitchCoordinate(1, 0, 0, 0, 0)
        policy = FaultPolicy(3, mask=fault_mask_for(3, [(coordinate, 0)]))
        oracle = oracle_for(3, [(coordinate, 0)])
        for seed in range(6):
            full = random_permutation(8, rng=seed).to_list()
            count = 3 + seed % 5
            words = [
                Word(address=a, payload=line if line < count else None)
                for line, a in enumerate(full)
            ]
            result = oracle.submit_words(words, tag=seed)
            assert policy.submit(full, tag=seed, count=count) == (
                result.mode,
                result.retries,
            )
        assert policy.counters == oracle.counters
        assert policy.state is oracle.state


class TestResilientPlane:
    """A windowed :class:`BackendPlane` carrying a policy."""

    FAULT = (SwitchCoordinate(2, 0, 0, 0, 0), 1)

    @staticmethod
    def _blocks(m, frames, window, seed=0):
        """*frames* composed frames in blocks of *window*, some partial."""
        rng = np.random.default_rng(seed)
        n = 1 << m
        voqs = VirtualOutputQueues(n, capacity=frames)
        for frame in range(frames):
            for dest in rng.permutation(n)[: n - frame % 3]:
                voqs.admit(int(dest), 0)
        scheduler = FrameScheduler(n)
        blocks = []
        while voqs.total:
            blocks.append(scheduler.next_frame(voqs, window))
        return blocks

    def test_windowed_plane_matches_the_oracle_frame_by_frame(self):
        """Blocks of four frames, routed in one masked call each, get
        the per-frame modes, counters, syndromes and health the oracle
        reaches when fed the same frames one at a time — a block whose
        frames differ in mode reports one completion per frame."""
        m = 3
        policy = FaultPolicy(m, mask=fault_mask_for(m, [self.FAULT]))
        oracle = oracle_for(m, [self.FAULT])
        syndromes = {"plane": [], "oracle": []}
        policy.probe_hook = lambda p, o: syndromes["plane"].append(o.syndrome)
        oracle.probe_hook = lambda p, o: syndromes["oracle"].append(o.syndrome)
        plane = BackendPlane(0, m, "bnb", batch_window=4, policy=policy)
        plane_modes, oracle_modes, split = {}, {}, 0
        for block in self._blocks(m, 12, 4):
            completed, stranded = plane.step(block)
            assert stranded == []
            split += len(completed) > 1
            for completion in completed:
                for j in range(completion.block.k):
                    plane_modes[completion.block.tag + j] = completion.mode
            for j in range(block.k):
                count = int(block.counts[j])
                words = [
                    Word(address=int(a), payload=line if line < count else None)
                    for line, a in enumerate(block.addresses[j])
                ]
                result = oracle.submit_words(words, tag=block.tag + j)
                oracle_modes[block.tag + j] = result.mode
        assert plane_modes == oracle_modes
        # The quarantine landed inside a block, whose frames then
        # reported different modes.
        assert split
        assert "failover" in oracle_modes.values()
        assert policy.counters == oracle.counters
        assert syndromes["plane"] == syndromes["oracle"]
        assert policy.state is oracle.state is HealthState.QUARANTINED
        assert sorted(policy.registry.confirmed_faults) == sorted(
            oracle.registry.confirmed_faults
        )
        # The plane now routes on the spare, and still verifies it.
        assert plane.describe()["backend"] == "krbenes"
        assert plane.frames_delivered == 12

    def test_exhausted_service_kills_the_plane(self):
        """A BIST schedule too thin to see the fault cannot quarantine,
        so words the primary keeps misrouting exhaust the retry budget:
        the plane fails and hands its block back for requeueing — the
        block's clean first frame included, which is not booked as
        delivered."""
        m = 3
        stubborn = fault_mask_for(m, [(SwitchCoordinate(0, 0, 1, 1, 1), 0)])
        # The identity probe leaves this stuck-at-0 switch at 0.
        blind = BISTSchedule(m=m, probes=shared_bist_schedule(m).probes[:1])
        policy = FaultPolicy(m, mask=stubborn, schedule=blind)
        plane = BackendPlane(0, m, batch_window=2, policy=policy)
        pi = random_permutation(8, rng=0).to_list()
        addresses = np.array([list(range(8)), pi])
        block = Block(
            addresses,
            np.array([8, 8]),
            True,
            np.zeros((16, 4), dtype=np.int64),
            np.repeat(np.arange(2), 8),
            addresses.reshape(-1),
        )
        completed, stranded = plane.step(block)
        assert completed == []
        assert stranded == [block]
        assert not plane.healthy
        assert "undelivered" in plane.failure
        assert policy.counters.batches == 2
        assert policy.counters.words_delivered == 0
        assert "delivery" not in policy.registry.event_kinds()


class TestRandomFaultSet:
    def test_seed_determinism(self):
        assert random_fault_set(3, 2, seed=11) == random_fault_set(
            3, 2, seed=11
        )
        assert random_fault_set(3, 2, seed=11) != random_fault_set(
            3, 2, seed=12
        )

    def test_explicit_rng_wins_over_seed(self):
        import random as stdlib_random

        from_rng = random_fault_set(
            3, 2, seed=999, rng=stdlib_random.Random(11)
        )
        assert from_rng == random_fault_set(3, 2, seed=11)

    def test_count_validation(self):
        with pytest.raises(FaultError):
            random_fault_set(3, -1)
        with pytest.raises(FaultError):
            random_fault_set(2, 10_000)

    def test_faults_are_valid_coordinates(self):
        faults = random_fault_set(3, 3, seed=5)
        assert len(faults) == 3
        mask = fault_mask_for(3, faults)  # build_fault_mask validates
        assert len(mask.stuck) == 3
