"""Frame scheduler: coalescing VOQ heads into valid permutation frames."""

import pytest

from repro.core.bnb import BNBNetwork
from repro.core.traffic import coalesce_frame
from repro.core.words import Word
from repro.exceptions import InputError
from repro.server import FrameScheduler, VirtualOutputQueues
from repro.server.voq import OWNER


def fill_voqs(n, requests, capacity=16):
    """VOQs holding *requests* (destinations); word k's owner is k."""
    voqs = VirtualOutputQueues(n, capacity=capacity)
    for owner, dest in enumerate(requests):
        voqs.admit(dest, 0, owner)
    return voqs


class TestCoalesceFrame:
    def test_idle_fill_produces_permutation(self):
        plan = coalesce_frame([5, 2, 7], 8)
        assert sorted(plan.addresses) == list(range(8))
        assert set(plan.line_of) == {5, 2, 7}
        for dest, line in plan.line_of.items():
            assert plan.addresses[line] == dest
        assert plan.active == 3
        assert plan.fill == pytest.approx(3 / 8)

    def test_full_frame(self):
        plan = coalesce_frame(list(range(8)), 8)
        assert plan.fill == 1.0
        assert plan.addresses == list(range(8))

    def test_rejects_overflow_and_duplicates(self):
        with pytest.raises(InputError):
            coalesce_frame(list(range(9)), 8)
        with pytest.raises(InputError):
            coalesce_frame([1, 1], 8)
        with pytest.raises(InputError):
            coalesce_frame([8], 8)


class TestFrameScheduler:
    def test_frame_words_route_cleanly(self):
        n = 8
        voqs = fill_voqs(n, [3, 3, 6, 0, 6])
        scheduler = FrameScheduler(n)
        block = scheduler.next_frame(voqs)
        # One head per distinct destination: {3, 6, 0}.
        assert set(block.dests.tolist()) == {3, 6, 0}
        assert block.k == 1 and block.counts[0] == 3
        # The frame really is routable by a BNB network, filler and
        # all: every real word reaches its destination.
        words = [
            Word(address=address, payload=line)
            for line, address in enumerate(block.addresses[0].tolist())
        ]
        outputs, _record = BNBNetwork(3).route(words)
        for line, dest in enumerate(block.dests.tolist()):
            assert outputs[dest].payload == line

    def test_fifo_per_destination_across_frames(self):
        n = 8
        voqs = fill_voqs(n, [4, 4, 4])
        scheduler = FrameScheduler(n)
        seen = []
        for _ in range(3):
            block = scheduler.next_frame(voqs)
            seen.append(int(block.words[0, OWNER]))
        assert seen == [0, 1, 2]

    def test_block_of_k_frames_matches_k_single_frames(self):
        n = 8
        requests = [4, 4, 4, 1, 6, 6, 0]
        voqs = fill_voqs(n, requests)
        scheduler = FrameScheduler(n)
        one_by_one = [scheduler.next_frame(voqs) for _ in range(3)]
        block = FrameScheduler(n).next_frame(fill_voqs(n, requests), 8)
        assert block.k == 3 and block.tag == 0
        for j, frame in enumerate(one_by_one):
            assert frame.tag == j
            assert block.addresses[j].tolist() == frame.addresses[0].tolist()
            rows = block.words[block.frame_slice(j)]
            assert rows.tolist() == frame.words.tolist()

    def test_idle_returns_none(self):
        voqs = VirtualOutputQueues(8, capacity=4)
        scheduler = FrameScheduler(8)
        assert scheduler.next_frame(voqs) is None
        assert scheduler.frames_scheduled == 0

    def test_fill_accounting(self):
        n = 4
        scheduler = FrameScheduler(n)
        voqs = fill_voqs(n, [0, 1, 2, 3])
        full = scheduler.next_frame(voqs)
        assert full.fills.tolist() == [1.0]
        voqs = fill_voqs(n, [2])
        quarter = scheduler.next_frame(voqs)
        assert quarter.fills[0] == pytest.approx(1 / 4)
        assert scheduler.mean_fill == pytest.approx((1.0 + 0.25) / 2)
        assert scheduler.words_scheduled == 5
        snap = scheduler.snapshot()
        assert snap["frames"] == 2

    def test_filler_words_carry_no_payload(self):
        n = 8
        voqs = fill_voqs(n, [7])
        block = FrameScheduler(n).next_frame(voqs)
        # One real word, on line 0; the idle lines carry no word.
        assert block.counts.tolist() == [1] and block.size == 1
        assert block.addresses[0, 0] == 7
        assert sorted(block.addresses[0].tolist()) == list(range(n))

    def test_tags_are_unique_and_increasing(self):
        n = 4
        scheduler = FrameScheduler(n)
        tags = []
        for cycle in range(5):
            voqs = fill_voqs(n, [cycle % n])
            tags.append(scheduler.next_frame(voqs).tag)
        assert tags == sorted(tags)
        assert len(set(tags)) == 5
