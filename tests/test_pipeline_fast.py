"""The compiled BNB kernels, served one frame per cycle.

A :class:`BackendPlane` routing on the ``bnb`` backend with
``batch_window=1`` takes one frame per step and delivers it in that
step; the object model's :class:`PipelinedBNBFabric` delivers the same
frame ``m`` steps later, after its pipeline fill.  These tests pin
that offset against the object pipeline, and the frame kernels'
arrangement against the object network.
"""

import numpy as np
import pytest

from repro.core import Word, route_frame_batch
from repro.core.pipeline import PipelinedBNBFabric
from repro.permutations import random_permutation
from repro.server import BackendPlane, Block


def _words(pi, tag):
    return [Word(address=a, payload=(tag, j)) for j, a in enumerate(pi)]


def _frame(pi, tag):
    """A one-frame block carrying the full permutation *pi*."""
    n = len(pi)
    block = Block(
        np.array([pi], dtype=np.int64),
        np.array([n], dtype=np.int64),
        True,
        np.zeros((n, 4), dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.array(pi, dtype=np.int64),
    )
    block.tag = tag
    return block


def _lone_plane(m):
    return BackendPlane(0, m, "bnb", batch_window=1)


class TestBasicOperation:
    def test_single_batch_latency(self):
        """A lone frame leaves the plane in the step that routes it; the
        object pipeline delivers it after its fill, m + 1 steps."""
        m = 4
        pi = random_permutation(1 << m, rng=0).to_list()
        plane = _lone_plane(m)
        completed, stranded = plane.step(_frame(pi, 7))
        assert [c.block.tag for c in completed] == [7]
        assert stranded == []
        assert plane.frames_delivered == 1
        obj = PipelinedBNBFabric(m)
        obj.offer_words(_words(pi, 7), tag=7)
        delivered = [[tag for tag, _ in obj.step()] for _ in range(m + 1)]
        assert delivered == [[]] * m + [[7]]

    def test_delivery_sorted_with_payload_identity(self):
        """Routed sources put every word on its addressed line, and the
        very word objects come back reordered, as on the object
        pipeline."""
        m = 3
        pi = random_permutation(1 << m, rng=3).to_list()
        words = _words(pi, "t")
        sources = _lone_plane(m).backend.route_frame(np.array(pi))
        outputs = [words[source] for source in sources.tolist()]
        assert [w.address for w in outputs] == list(range(1 << m))
        for line, word in enumerate(outputs):
            assert word is words[pi.index(line)]

    def test_steady_state_throughput(self):
        m = 3
        plane = _lone_plane(m)
        delivered = 0
        for k in range(40):
            frame = _frame(random_permutation(1 << m, rng=k).to_list(), k)
            delivered += len(plane.step(frame)[0])
        assert delivered == plane.frames_delivered == 40
        # One kernel call per frame: one frame per cycle.
        assert plane.batches_routed == 40

    def test_bubbles_pass_through(self):
        """A bubble is a cycle with no call: the plane keeps nothing of
        one frame for the next, however many bubbles come between."""
        plane = _lone_plane(2)
        first, second = _frame([1, 0, 3, 2], 0), _frame([2, 3, 0, 1], 6)
        assert [c.block for c in plane.step(first)[0]] == [first]
        # bubbles (cycles 1..5) must not disturb the next frame
        assert [c.block for c in plane.step(second)[0]] == [second]
        assert plane.frames_delivered == plane.batches_routed == 2


class TestEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_object_engine_cycle_for_cycle(self, m):
        """Identical schedules deliver the same frames, each on the
        plane exactly m steps before the object pipeline (its fill),
        and arranged as the object pipeline arranges it; a bubble is a
        cycle with no frame, where the plane is not called."""
        n = 1 << m
        obj = PipelinedBNBFabric(m)
        plane = _lone_plane(m)
        frames = {}
        on_plane = {}
        offers = 3 * m + 4
        for k in range(offers + m):
            if k < offers and k % 3 != 2:  # leave bubbles in the schedule
                pi = random_permutation(n, rng=k).to_list()
                frames[k] = pi
                obj.offer_words(_words(pi, k), tag=k)
                done_plane, _ = plane.step(_frame(pi, k))
                on_plane.update((c.block.tag, k) for c in done_plane)
            done_obj = obj.step()
            for tag, outputs in done_obj:
                assert on_plane[tag] == k - m
                pi = frames[tag]
                sources = plane.backend.route_frame(np.array(pi))
                assert [(w.address, w.payload) for w in outputs] == [
                    (pi[source], (tag, source)) for source in sources.tolist()
                ]
        assert sorted(on_plane) == sorted(frames)
        assert obj.in_flight == 0


class TestRouteFrameSources:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_sources_invert_the_permutation(self, m):
        """Output line d receives the input line that addressed d."""
        n = 1 << m
        for seed in range(5):
            pi = random_permutation(n, rng=seed).to_list()
            sources = route_frame_batch(m, np.array([pi]))[0]
            assert [pi[source] for source in sources.tolist()] == list(
                range(n)
            )
