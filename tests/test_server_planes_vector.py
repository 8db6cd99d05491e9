"""The one serving plane: windows, total verification, containment.

:class:`~repro.server.BackendPlane` routes the block it is handed in
the call that hands it over, one frame per cycle or a window of frames
(the ``plane_shape`` fixture).  Either way every routed frame is verified in
full, so a single misplaced word on any frame kills the plane and its
words requeue onto the survivors.
"""

import asyncio
import random

import pytest

from repro.backends import compiled_backend
from repro.server import (
    AsyncGateway,
    BackendPlane,
    FrameScheduler,
    GatewayConfig,
    VirtualOutputQueues,
)
from repro.server.voq import OWNER

pytestmark = pytest.mark.asyncio_suite


@pytest.fixture(params=["single", "windowed"])
def plane_shape(request):
    """Two plane windows, as a function of ``m`` returning constructor
    keywords: one frame per cycle, and a window of 8 frames per
    cycle."""
    if request.param == "single":
        return lambda m: {"batch_window": 1}
    return lambda m: {"batch_window": 8}


def _full_frames(scheduler, voqs, n, frames=1):
    """A block of *frames* frames, each carrying a word for every
    destination."""
    for _ in range(frames):
        for destination in range(n):
            voqs.admit(destination, 0)
    block = scheduler.next_frame(voqs, frames)
    assert block is not None and block.k == frames and block.size == frames * n
    return block


class _OneWrongDestination:
    """The compiled BNB backend, except that on routed frame *frame*
    (counting from 0 across calls) output ``n-1`` gets line 0's source.

    One wrong destination on one later frame: a sampled check (a full
    verify every 16th frame, spot checks of two rotating destinations
    otherwise) would look only at outputs 0 and 1 of frame 1 and miss
    it.
    """

    name = "bnb-one-wrong"

    def __init__(self, m, frame=1):
        self.m, self.n = m, 1 << m
        self._bnb = compiled_backend("bnb", m)
        self._frame = frame
        self._routed = 0

    def route_frame(self, addresses):
        return self.route_frame_batch(addresses[None, :])[0]

    def route_frame_batch(self, addresses):
        sources = self._bnb.route_frame_batch(addresses)
        row = self._frame - self._routed
        if 0 <= row < len(sources):
            sources[row, self.n - 1] = sources[row, 0]
        self._routed += len(sources)
        return sources


class TestBackendPlane:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BackendPlane(0, 3, batch_window=0)
        with pytest.raises(TypeError):
            BackendPlane(0, 3, depth=3)  # planes hold nothing
        # A block wider than the window is refused, not truncated.
        block = _full_frames(FrameScheduler(8), VirtualOutputQueues(8, 4), 8, 2)
        with pytest.raises(ValueError, match="cannot take 2 frame"):
            BackendPlane(0, 3, batch_window=1).step(block)

    def test_windowed_shape_routes_a_window_per_step(self):
        m, n = 3, 8
        plane = BackendPlane(0, m, batch_window=8)
        scheduler = FrameScheduler(n)
        voqs = VirtualOutputQueues(n, 16)
        block = _full_frames(scheduler, voqs, n, frames=5)
        completed, requeue = plane.step(block)
        assert [(c.block.tag, c.block.k) for c in completed] == [(0, 5)]
        assert not requeue
        assert plane.batches_routed == 1
        assert plane.frames_delivered == 5
        assert plane.words_delivered == 5 * n
        info = plane.describe()
        assert (info["kind"], info["backend"]) == ("BackendPlane", "bnb")
        assert "depth" not in info and "in_flight" not in info

    def test_kill_strands_offered_frames(self):
        """A dead plane hands back the block it is given, and a kill is
        idempotent."""
        m, n = 3, 8
        plane = BackendPlane(0, m, batch_window=4)
        scheduler = FrameScheduler(n)
        voqs = VirtualOutputQueues(n, 16)
        # Routed and released in the same step.
        completed, stranded = plane.step(_full_frames(scheduler, voqs, n))
        assert len(completed) == 1 and stranded == []
        assert plane.frames_delivered == 1
        assert plane.kill(reason="test") is None
        block = _full_frames(scheduler, voqs, n, frames=2)
        assert plane.step(block) == ([], [block])
        assert (plane.frames_delivered, plane.batches_routed) == (1, 1)
        plane.kill(reason="again")  # idempotent: the first reason stays
        assert (plane.healthy, plane.failure) == (False, "test")

    def test_one_wrong_word_kills_the_plane(self, plane_shape):
        m, n = 3, 8
        plane = BackendPlane(
            0, m, backend=_OneWrongDestination(m, frame=1), **plane_shape(m)
        )
        scheduler = FrameScheduler(n)
        voqs = VirtualOutputQueues(n, 16)
        if plane.batch_window == 1:  # one frame per cycle
            blocks = [_full_frames(scheduler, voqs, n) for _ in range(2)]
        else:  # both frames in one window
            blocks = [_full_frames(scheduler, voqs, n, frames=2)]
        steps = [plane.step(block) for block in blocks]
        assert plane.healthy is False
        assert "misdelivered" in plane.failure
        assert f"outputs [{n - 1}]" in plane.failure
        # The bad frame's words requeue, with everything handed over in
        # its cycle; a frame routed in an earlier cycle was delivered.
        *earlier, (completed, requeue) = steps
        assert not completed
        delivered = [c.block for done, _requeue in earlier for c in done]
        assert delivered + requeue == blocks
        assert sum(block.k for block in requeue) == (
            1 if plane.batch_window == 1 else 2
        )


class _DeliveryLog:
    """A gateway observer recording dispatched and requeued payloads.

    Words carry owner ids; a single ``send``'s owner holds its payload,
    so the log reads payloads through the gateway's owner table.
    """

    def __init__(self):
        self.gateway = None
        self.dispatched = {}  # plane id -> payload lists, one per frame
        self.requeued = []

    def _payloads(self, rows):
        owners = self.gateway._owners
        return [owners[owner].payload for owner in rows[:, OWNER].tolist()]

    def on_dispatch(self, block, plane, cycle):
        for j in range(block.k):
            self.dispatched.setdefault(plane.plane_id, []).append(
                self._payloads(block.words[block.frame_slice(j)])
            )

    def on_requeue(self, plane, blocks):
        for block in blocks:
            self.requeued.extend(self._payloads(block.words))

    def on_reject(self, hints):
        pass

    def on_frame_delivered(self, completion, cycle, max_latency):
        pass

    def on_plane_killed(self, plane):
        pass


def _serve(factory, seed, words=200, observer=None):
    async def scenario():
        config = GatewayConfig(m=3, planes=2, queue_capacity=16)
        rng = random.Random(seed)
        async with AsyncGateway(config, plane_factory=factory) as gateway:
            gateway.observer = observer
            if observer is not None:
                observer.gateway = gateway
            receipts = await asyncio.gather(
                *(
                    gateway.send_with_retry(
                        rng.randrange(8), payload=index, attempts=64
                    )
                    for index in range(words)
                )
            )
            return receipts, gateway.stats()

    return scenario()


class TestContainment:
    def test_gateway_survives_faulty_plane(
        self, run_async, plane_shape, stuck_switch_backend
    ):
        """A physically faulty plane dies on its first bad frame, its
        words requeue, and the pool still delivers 100%."""

        def factory(plane_id, m):
            backend = stuck_switch_backend(m) if plane_id == 0 else "bnb"
            return BackendPlane(
                plane_id, m, backend=backend, **plane_shape(m)
            )

        receipts, stats = run_async(_serve(factory, seed=23))
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["healthy"] is False
        assert "misdelivered" in stats["planes"][0]["failure"]
        assert stats["planes"][1]["healthy"] is True
        assert stats["queues"]["requeued"] > 0

    def test_wrong_word_requeues_to_survivor(self, run_async, plane_shape):
        def factory(plane_id, m):
            backend = _OneWrongDestination(m) if plane_id == 0 else "bnb"
            return BackendPlane(
                plane_id, m, backend=backend, **plane_shape(m)
            )

        log = _DeliveryLog()
        receipts, stats = run_async(_serve(factory, seed=31, observer=log))
        dead, survivor = stats["planes"]
        assert dead["healthy"] is False
        assert "outputs [7]" in dead["failure"]
        # The dead plane's second frame was the corrupted one: every one
        # of its words went back to the queues...
        bad = set(log.dispatched[0][1])
        assert bad <= set(log.requeued)
        assert all(r.requeues >= 1 for r in receipts if r.payload in bad)
        # ...and every word reached its sender: the survivor delivered
        # all of them but the frames the dead plane routed in a cycle
        # before its bad one (one frame per cycle: its first frame).
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert survivor["healthy"] is True
        early = len(log.dispatched[0][0]) if dead["batch_window"] == 1 else 0
        assert dead["words_delivered"] == early
        assert survivor["words_delivered"] == 200 - early
