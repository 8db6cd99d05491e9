"""Virtual output queues: admission, backpressure, fairness."""

import numpy as np
import pytest

from repro.exceptions import AdmissionRejectedError
from repro.server import NO_OWNER, VirtualOutputQueues
from repro.server.voq import CYCLE, INDEX, OWNER, REQUEUES


def admit(voqs, dest, owner=NO_OWNER, cycle=0):
    voqs.admit(dest, cycle, owner)


class TestAdmission:
    def test_admit_within_capacity(self):
        voqs = VirtualOutputQueues(8, capacity=3)
        for k in range(3):
            admit(voqs, 5, owner=k)
        assert voqs.depth(5) == 3
        assert voqs.accepted == 3
        assert voqs.rejected == 0

    def test_reject_when_full_with_retry_hint(self):
        voqs = VirtualOutputQueues(8, capacity=2)
        admit(voqs, 1)
        admit(voqs, 1)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            admit(voqs, 1)
        assert excinfo.value.destination == 1
        assert excinfo.value.retry_after_cycles == 2
        assert voqs.rejected == 1
        # The bound is per destination: other queues still admit.
        admit(voqs, 2)
        assert voqs.depth(2) == 1

    def test_reject_out_of_range(self):
        voqs = VirtualOutputQueues(4, capacity=2)
        with pytest.raises(AdmissionRejectedError):
            admit(voqs, 4)
        with pytest.raises(AdmissionRejectedError):
            admit(voqs, -1)
        assert voqs.accepted == 0

    def test_depth_stays_bounded_under_flood(self):
        voqs = VirtualOutputQueues(4, capacity=5)
        admitted = rejected = 0
        for k in range(100):
            try:
                admit(voqs, k % 4, owner=k)
                admitted += 1
            except AdmissionRejectedError:
                rejected += 1
        assert admitted == 20  # 4 queues x capacity 5
        assert rejected == 80
        assert voqs.max_depth == 5

    def test_admit_batch_ranks_words_per_destination(self):
        """Word k is accepted iff depth + (its rank among the request's
        words for the same destination) < capacity; a rejected word's
        hint is max(depth, capacity) — what admitting one word at a
        time in index order reports."""
        voqs = VirtualOutputQueues(4, capacity=3)
        admit(voqs, 2)  # destination 2 starts one deep
        dests = np.array([2, 0, 2, 2, 0, 2, 1], dtype=np.int64)
        accepted, rejected, hints = voqs.admit_batch(dests, 5, owner=9)
        assert accepted.tolist() == [0, 1, 2, 4, 6]
        assert rejected.tolist() == [3, 5]
        assert hints.tolist() == [3, 3]
        assert voqs.depths() == [2, 1, 3, 0]
        assert (voqs.offered, voqs.accepted, voqs.rejected) == (8, 6, 2)
        block = voqs.pop_heads(3)
        rows = {
            (int(dest), int(frame)): row.tolist()
            for dest, frame, row in zip(block.dests, block.frame_of, block.words)
        }
        # FIFO per destination: the admitted words keep request order.
        assert rows[(2, 1)] == [9, 0, 5, 0]
        assert rows[(2, 2)] == [9, 2, 5, 0]
        assert rows[(0, 1)][INDEX] == 4

    def test_admit_batch_retry_round_offers_only_indices(self):
        voqs = VirtualOutputQueues(2, capacity=1)
        dests = np.array([0, 0, 1], dtype=np.int64)
        _accepted, rejected, _hints = voqs.admit_batch(dests, 0)
        assert rejected.tolist() == [1]
        voqs.pop_heads(1)
        accepted, rejected, _hints = voqs.admit_batch(dests, 1, indices=rejected)
        assert accepted.tolist() == [1] and not len(rejected)
        assert voqs.pop_heads(1).words[0, CYCLE] == 1

    def test_rings_grow_past_their_initial_length(self):
        voqs = VirtualOutputQueues(2, capacity=1000)
        dests = np.zeros(300, dtype=np.int64)
        accepted, _rejected, _hints = voqs.admit_batch(dests, 0, owner=1)
        assert len(accepted) == 300
        block = voqs.pop_heads(300)
        assert block.words[:, INDEX].tolist() == list(range(300))


class TestDraining:
    def test_pop_heads_distinct_destinations_fifo(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for owner, dest in enumerate([2, 2, 3, 3]):
            admit(voqs, dest, owner=owner)
        block = voqs.pop_heads()
        assert sorted(block.dests.tolist()) == [2, 3]
        # FIFO per destination: first words for 2 and 3 ride first.
        assert sorted(block.words[:, OWNER].tolist()) == [0, 2]
        assert voqs.total == 2

    def test_successive_frames_rotate_line_zero(self):
        voqs = VirtualOutputQueues(4, capacity=8)
        for dest in range(4):
            for _ in range(2):
                admit(voqs, dest)
        first = voqs.pop_heads(1)
        second = voqs.pop_heads(1)
        assert first.addresses[0, 0] != second.addresses[0, 0]
        # In one block the start still advances one per frame.
        voqs = VirtualOutputQueues(4, capacity=8)
        for dest in range(4):
            for _ in range(2):
                admit(voqs, dest)
        block = voqs.pop_heads(2)
        assert block.addresses[:, 0].tolist() == [0, 1]

    def test_requeue_front_preserves_order_and_may_exceed_capacity(self):
        voqs = VirtualOutputQueues(4, capacity=2)
        admit(voqs, 0, owner=10)
        admit(voqs, 0, owner=11)
        stranded = voqs.pop_heads(2)  # both words, one per frame
        admit(voqs, 0, owner=0)
        admit(voqs, 0, owner=1)
        voqs.requeue_front([stranded])
        assert voqs.depth(0) == 4  # transiently above capacity
        assert voqs.requeued == 2
        drained = voqs.pop_heads(4)
        assert drained.words[:, OWNER].tolist() == [10, 11, 0, 1]
        assert drained.words[:, REQUEUES].tolist() == [1, 1, 0, 0]
        # New admissions still bounce until the queue drains.
        voqs2 = VirtualOutputQueues(4, capacity=2)
        admit(voqs2, 0)
        admit(voqs2, 0)
        stranded = voqs2.pop_heads(1)
        admit(voqs2, 0)
        voqs2.requeue_front([stranded])
        with pytest.raises(AdmissionRejectedError):
            admit(voqs2, 0)

    def test_drain_all_empties_every_queue(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for dest in range(4):
            admit(voqs, dest)
        assert len(voqs.drain_all()) == 4
        assert voqs.total == 0


class TestSnapshot:
    def test_snapshot_accounts_offered_accepted_rejected(self):
        voqs = VirtualOutputQueues(2, capacity=1)
        admit(voqs, 0)
        with pytest.raises(AdmissionRejectedError):
            admit(voqs, 0)
        snap = voqs.snapshot()
        assert snap["offered"] == 2
        assert snap["accepted"] == 1
        assert snap["rejected"] == 1
        assert snap["queued"] == 1
        assert snap["depths"] == [1, 0]

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            VirtualOutputQueues(0, capacity=1)
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=0)


class TestBlockFrames:
    def test_frame_is_the_one_frame_block_of_its_rows(self):
        voqs = VirtualOutputQueues(4, capacity=4)
        for dest, owner in ((0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (3, 6)):
            admit(voqs, dest, owner=owner)
        block = voqs.pop_heads(3)
        block.tag, block.scheduled_cycle = 40, 9
        for j in range(block.k):
            frame = block.frame(j)
            rows = block.frame_slice(j)
            assert (frame.tag, frame.scheduled_cycle, frame.k) == (40 + j, 9, 1)
            assert frame.addresses.tolist() == block.addresses[j : j + 1].tolist()
            assert frame.counts.tolist() == [block.counts[j]]
            assert frame.full == (block.counts[j] == 4)
            assert frame.words.tolist() == block.words[rows].tolist()
            assert frame.dests.tolist() == block.dests[rows].tolist()
            assert frame.frame_of.tolist() == [0] * frame.size
            assert frame.tenants is None
        assert [block.frame(j).size for j in range(3)] == [4, 1, 1]

