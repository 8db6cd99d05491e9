"""The compiled BNB kernels, and the pipeline timing the vector engine
serves them on.

``--engine vector`` is a :class:`BackendPlane` routing on the ``bnb``
backend with ``batch_window=1, depth=m``: one frame enters per step
and leaves ``m`` steps later, the schedule of the object model's
:class:`PipelinedBNBFabric`.  These tests pin that timing against the
object engine, and the frame kernels' arrangement against the object
network.
"""

import numpy as np
import pytest

from repro.core import Word, route_frame_sources
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


def _pipeline_plane(m):
    return BackendPlane(0, m, "bnb", batch_window=1, depth=m)


class TestBasicOperation:
    def test_single_batch_latency(self):
        """Fill latency is m + 1 steps, exactly like the object engine."""
        m = 4
        plane = _pipeline_plane(m)
        plane.offer(_frame(random_permutation(1 << m, rng=0).to_list(), 7))
        for _ in range(m):
            assert plane.step() == ([], [])
        completed, stranded = plane.step()
        assert [c.block.tag for c in completed] == [7]
        assert stranded == []
        assert plane.in_flight == 0

    def test_delivery_sorted_with_payload_identity(self):
        """Routed sources put every word on its addressed line, and the
        very word objects come back reordered, as on the object
        pipeline."""
        m = 3
        pi = random_permutation(1 << m, rng=3).to_list()
        words = _words(pi, "t")
        sources = _pipeline_plane(m).backend.route_frame(np.array(pi))
        outputs = [words[source] for source in sources.tolist()]
        assert [w.address for w in outputs] == list(range(1 << m))
        for line, word in enumerate(outputs):
            assert word is words[pi.index(line)]

    def test_steady_state_throughput(self):
        m = 3
        plane = _pipeline_plane(m)
        delivered = 0
        for k in range(40):
            plane.offer(_frame(random_permutation(1 << m, rng=k).to_list(), k))
            delivered += len(plane.step()[0])
        while plane.in_flight:
            delivered += len(plane.step()[0])
        assert delivered == plane.frames_delivered == 40
        # One kernel call per frame: the pipeline's one-frame-per-cycle.
        assert plane.batches_routed == 40

    def test_bubbles_pass_through(self):
        plane = _pipeline_plane(2)
        plane.offer(_frame([1, 0, 3, 2], 0))
        plane.step()
        for _ in range(5):  # bubbles must not disturb the in-flight frame
            plane.step()
        assert plane.frames_delivered == 1


class TestEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_object_engine_cycle_for_cycle(self, m):
        """Identical offer/step schedules deliver the same frames on the
        same steps, each arranged as the object pipeline arranges it."""
        n = 1 << m
        obj = PipelinedBNBFabric(m)
        plane = _pipeline_plane(m)
        frames = {}
        for k in range(3 * m + 4):
            if k % 3 != 2:  # leave bubbles in the schedule
                pi = random_permutation(n, rng=k).to_list()
                frames[k] = pi
                obj.offer_words(_words(pi, k), tag=k)
                plane.offer(_frame(pi, k))
            done_obj = obj.step()
            done_plane, _ = plane.step()
            assert [tag for tag, _ in done_obj] == [
                c.block.tag for c in done_plane
            ]
            for tag, outputs in done_obj:
                pi = frames[tag]
                sources = plane.backend.route_frame(np.array(pi))
                assert [(w.address, w.payload) for w in outputs] == [
                    (pi[source], (tag, source)) for source in sources.tolist()
                ]


class TestRouteFrameSources:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_sources_invert_the_permutation(self, m):
        """Output line d receives the input line that addressed d."""
        n = 1 << m
        for seed in range(5):
            pi = random_permutation(n, rng=seed).to_list()
            sources = route_frame_sources(m, np.array(pi))
            assert [pi[source] for source in sources.tolist()] == list(
                range(n)
            )
