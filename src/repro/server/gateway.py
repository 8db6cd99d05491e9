"""The asyncio dataplane: concurrent clients -> VOQs -> frames -> planes.

:class:`AsyncGateway` owns the whole serving path.  Clients call
``await gateway.send(dest, payload)`` (or speak the JSON-lines TCP
protocol in :mod:`repro.server.protocol`, which lands here); admitted
words wait in the virtual output queues; a single clock task runs the
gateway *cycle*: coalesce frames, dispatch them to the least-loaded
ready plane, step every plane, resolve the futures of delivered words.

Because all fabric work is pure CPU and all shared state is touched
only between awaits, the gateway needs no locks — the event loop is the
serialization point.  Backpressure is the admission bound: a full VOQ
rejects with a retry-after hint rather than buffering without limit, so
overload costs clients latency, never the server memory.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..exceptions import (
    AdmissionRejectedError,
    GatewayClosedError,
    InputError,
    PlaneUnavailableError,
)
from ..backends import (
    backend_names,
    compiled_backend,
    get_backend_spec,
    prewarm,
    select_backend,
)
from ..service import FaultPolicy
from .planes import BackendPlane, CompletedFrame
from .scheduler import FrameScheduler
from .voq import (
    CYCLE,
    DEFAULT_TENANT,
    INDEX,
    OWNER,
    REQUEUES,
    Block,
    VirtualOutputQueues,
)

__all__ = [
    "AsyncGateway",
    "BatchResult",
    "GatewayConfig",
    "Receipt",
    "engine_names",
    "resilient_engines",
]

#: Builds plane *i* for a gateway of address width *m*.
PlaneFactory = Callable[[int, int], Any]

#: Engine aliases -> (backend, pipelined).  A pipelined plane keeps the
#: BNB pipeline's timing: one frame enters per cycle and leaves ``m``
#: cycles later.  Every other engine — ``"batch"``, ``"auto"`` and each
#: backend name — routes up to ``batch_window`` frames per cycle and
#: delivers them the same cycle.
ENGINE_ALIASES = {
    "object": ("bnb-object", True),
    "vector": ("bnb", True),
    "batch": ("bnb", False),
}


def engine_names() -> List[str]:
    """Every valid :attr:`GatewayConfig.engine` — the ``--engine``
    choices of every CLI subcommand derive from this list."""
    return [*ENGINE_ALIASES, "auto", *backend_names()]


def resilient_engines() -> List[str]:
    """The engines valid with :attr:`GatewayConfig.resilient`: those
    whose backend has ``BackendSpec.supports_fault_mask`` (``"auto"``
    picks its backend only at construction, so it never qualifies)."""
    return [
        engine
        for engine in engine_names()
        if engine != "auto"
        and get_backend_spec(
            ENGINE_ALIASES.get(engine, (engine, False))[0]
        ).supports_fault_mask
    ]


@dataclasses.dataclass
class GatewayConfig:
    """Knobs for a gateway deployment."""

    m: int
    planes: int = 1
    queue_capacity: int = 32
    resilient: bool = False
    #: Dataplane engine; without ``resilient`` every engine serves
    #: :class:`~repro.server.planes.BackendPlane`\ s.  ``"object"`` (the
    #: reference object model, backend ``"bnb-object"``) and
    #: ``"vector"`` (the compiled BNB dataplane, backend ``"bnb"``) keep
    #: the pipeline's timing: one frame per cycle, delivered ``m``
    #: cycles later.  ``"batch"`` routes up to ``batch_window`` frames
    #: per cycle on ``"bnb"`` — the engine behind ``send_batch``
    #: throughput.  ``"auto"`` runs the backend arena calibration at
    #: construction and serves the measured-fastest registered backend
    #: for this ``m``; any registered backend name (``"krbenes"``,
    #: ``"msorter"``, ...) pins that backend without calibrating (see
    #: ``docs/backends.md``); both route windows like ``"batch"``.
    #: With ``resilient``, every plane carries a
    #: :class:`~repro.service.FaultPolicy` (masked fault kernels,
    #: batched BIST, ``krbenes`` failover); valid exactly for the
    #: engines whose backend supports fault masks
    #: (:func:`resilient_engines`: ``"vector"``, ``"batch"``, ``"bnb"``).
    engine: str = "object"
    #: Frames a windowed plane routes per cycle in one batched call.
    batch_window: int = 32
    #: Weighted QoS classes: ``{"gold": 8, "bronze": 1}`` splits every
    #: destination's VOQ into per-tenant FIFOs drained by deficit-
    #: weighted round-robin (see :mod:`repro.server.voq`), with
    #: per-tenant fairness accounting in ``stats()["tenants"]`` and the
    #: ``repro_tenant_*`` metrics.  ``None`` (the default) keeps the
    #: single-FIFO dataplane byte-identical to the untenanted code.
    tenants: Optional[Dict[str, int]] = None
    #: Starvation guard for tenant scheduling: a head word that has
    #: waited this many cycles longer than the weighted pick's head is
    #: served first regardless of weights.
    starvation_cycles: int = 1024
    #: Bound on latency samples kept for the percentile estimate.
    latency_window: int = 8192
    #: Stable identity this gateway reports in ``stats`` and as the
    #: ``node_id`` label on exported metrics, so cluster health polling
    #: can tell nodes apart.  ``None`` derives ``gw-<pid>``, unique per
    #: process — good enough for a one-node deployment, overridden with
    #: ``node-K`` names by the cluster supervisor.
    node_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"the gateway needs m >= 1, got {self.m}")
        if self.planes < 1:
            raise ValueError(f"need at least one plane, got {self.planes}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.engine not in engine_names():
            raise ValueError(
                f"engine must be one of {[*ENGINE_ALIASES, 'auto']} or a "
                f"registered backend name {backend_names()}, "
                f"got {self.engine!r}"
            )
        if self.resilient and self.engine not in resilient_engines():
            raise ValueError(
                f"the {self.engine!r} engine has no resilient variant; "
                f"resilient=True needs an engine whose backend supports "
                f"fault masks: {resilient_engines()}"
            )
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {self.batch_window}"
            )
        if self.starvation_cycles < 1:
            raise ValueError(
                f"starvation_cycles must be >= 1, "
                f"got {self.starvation_cycles}"
            )
        if self.tenants is not None:
            if not self.tenants:
                raise ValueError("tenants must name at least one class")
            for name, weight in self.tenants.items():
                if not isinstance(name, str) or not name:
                    raise ValueError(
                        f"tenant names must be non-empty strings, "
                        f"got {name!r}"
                    )
                if (
                    not isinstance(weight, int)
                    or isinstance(weight, bool)
                    or weight < 1
                ):
                    raise ValueError(
                        f"tenant {name!r} needs an integer weight >= 1, "
                        f"got {weight!r}"
                    )

    @property
    def n(self) -> int:
        return 1 << self.m


@dataclasses.dataclass
class Receipt:
    """Proof of delivery handed back to the sender."""

    destination: int
    payload: Any
    plane_id: int
    frame_tag: int
    enqueued_cycle: int
    delivered_cycle: int
    mode: str
    requeues: int

    @property
    def latency_cycles(self) -> int:
        return self.delivered_cycle - self.enqueued_cycle


class BatchResult:
    """Outcome of one :meth:`AsyncGateway.send_batch`, array-shaped.

    One entry per submitted word, in submission order.  ``statuses[k]``
    is 1 for delivered, 0 for rejected; delivered words carry their
    plane / frame tag / latency in the matching arrays (−1 where
    rejected), rejected words their ``retry_after[k]`` backpressure
    hint (0 where delivered).  ``modes[k]`` indexes ``mode_table`` —
    the delivery-mode strings seen by this batch — so a million-word
    result stores a million int8s, not a million strings.  The arrays
    are preallocated at submission and filled in place as frames land,
    which is what keeps the per-word resolve cost to a few array
    stores instead of a ``Receipt`` object.
    """

    __slots__ = (
        "count",
        "statuses",
        "planes",
        "frames",
        "latencies",
        "retry_after",
        "modes",
        "mode_table",
    )

    def __init__(self, count: int) -> None:
        self.count = count
        self.statuses = np.zeros(count, dtype=np.int64)
        self.planes = np.full(count, -1, dtype=np.int64)
        self.frames = np.full(count, -1, dtype=np.int64)
        self.latencies = np.full(count, -1, dtype=np.int64)
        self.retry_after = np.zeros(count, dtype=np.int64)
        self.modes = np.full(count, -1, dtype=np.int64)
        self.mode_table: List[str] = []

    @property
    def delivered(self) -> int:
        return int(self.statuses.sum())

    @property
    def rejected(self) -> int:
        return self.count - self.delivered

    def mode_index(self, mode: str) -> int:
        try:
            return self.mode_table.index(mode)
        except ValueError:
            self.mode_table.append(mode)
            return len(self.mode_table) - 1

    def __repr__(self) -> str:
        return (
            f"BatchResult(count={self.count}, delivered={self.delivered}, "
            f"rejected={self.rejected})"
        )


class _BatchTracker:
    """Gateway-internal progress of one in-flight batch (an owner).

    ``open`` stays true while :meth:`AsyncGateway.send_batch` is still
    admitting (including its retry rounds), so a batch whose early
    words all land before the last words are admitted does not fire its
    future prematurely.
    """

    __slots__ = ("result", "future", "pending", "open")

    def __init__(self, result: BatchResult, future: "asyncio.Future") -> None:
        self.result = result
        self.future = future
        self.pending = 0
        self.open = True


class _Sender:
    """The owner of one word admitted by :meth:`AsyncGateway.send`:
    what its :class:`Receipt` needs besides the delivery itself."""

    __slots__ = ("future", "destination", "payload")

    def __init__(
        self, future: "asyncio.Future", destination: int, payload: Any
    ) -> None:
        self.future = future
        self.destination = destination
        self.payload = payload


def _extend_by_frame(
    samples: List[int], values: np.ndarray, frame_ends: Any, window: int
) -> None:
    """Append one block's latency *values* to *samples*, keeping the
    per-frame retention rule: whenever the list passes ``2 * window``
    after a frame, only its last *window* samples stay."""
    if len(samples) + len(values) <= 2 * window:
        samples.extend(values.tolist())
        return
    start = 0
    for end in frame_ends:
        samples.extend(values[start:end].tolist())
        start = end
        if len(samples) > 2 * window:
            del samples[:-window]


class AsyncGateway:
    """Online serving of word-send requests over a pool of BNB planes."""

    def __init__(
        self,
        config: GatewayConfig,
        plane_factory: Optional[PlaneFactory] = None,
    ) -> None:
        self.config = config
        self.n = config.n
        self.voqs = VirtualOutputQueues(
            self.n,
            config.queue_capacity,
            tenants=config.tenants,
            starvation_cycles=config.starvation_cycles,
        )
        self.scheduler = FrameScheduler(self.n)
        #: The arena decision behind an ``engine="auto"`` choice
        #: (``None`` for every explicit engine).
        self.arena_decision = None
        backend_name, pipelined = ENGINE_ALIASES.get(
            config.engine, (config.engine, False)
        )
        if backend_name == "auto":
            # Calibrate on the batch workload: these planes route whole
            # windows.
            self.arena_decision = select_backend(config.m, workload="batch")
            backend_name = self.arena_decision.backend
        #: Routing backend serving the planes, for stats and metrics.
        self.backend_name: str = backend_name
        window, depth = (
            (1, config.m) if pipelined else (config.batch_window, 0)
        )
        if plane_factory is None:
            # Compile (and prewarm the shared plan) here, at
            # construction, so no served frame pays compile latency.
            prewarm(config.m, [self.backend_name])
            if config.resilient:
                # A resilient plane routes on its own policy's backend.
                plane_factory = lambda i, m: BackendPlane(
                    i, m, batch_window=window, depth=depth,
                    policy=FaultPolicy(m),
                )
            else:
                backend = compiled_backend(self.backend_name, config.m)
                plane_factory = lambda i, m: BackendPlane(
                    i, m, backend=backend, batch_window=window, depth=depth,
                )
        self.planes = [
            plane_factory(i, config.m) for i in range(config.planes)
        ]
        self.node_id = config.node_id or f"gw-{os.getpid()}"
        self.cycle = 0
        self.delivered_words = 0
        self.delivered_frames = 0
        #: Optional telemetry sink (duck-typed; see
        #: :class:`repro.obs.instrument.GatewayInstrumentation`).  Every
        #: hook call is guarded by a ``None`` check so the uninstrumented
        #: dataplane pays one attribute test per event, nothing more.
        self.observer: Optional[Any] = None
        self._latencies: List[int] = []
        # Per-tenant delivery accounting, kept only in tenant mode so
        # the default _resolve loop pays a single None test per frame.
        self._tenant_latencies: Optional[Dict[str, List[int]]] = (
            {name: [] for name in config.tenants}
            if config.tenants is not None
            else None
        )
        self._tenant_delivered: Dict[str, int] = (
            {name: 0 for name in config.tenants}
            if config.tenants is not None
            else {}
        )
        self._mode_counts: Dict[str, int] = {}
        #: Owners of queued and in-flight words by owner id: a
        #: ``send_batch`` tracker or a single ``send``'s sender.
        self._owners: Dict[int, Any] = {}
        self._next_owner = 0
        self._accepting = False
        self._draining = False
        self._started_monotonic: Optional[float] = None
        self._clock_task: Optional[asyncio.Task] = None
        self._work = asyncio.Event()
        self._cycle_waiters: List[Any] = []  # (target_cycle, future) pairs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        if self._clock_task is not None:
            raise GatewayClosedError("gateway already started")
        self._accepting = True
        if self._started_monotonic is None:
            self._started_monotonic = time.monotonic()
        self._clock_task = asyncio.get_running_loop().create_task(
            self._run_clock()
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; optionally serve out the backlog first."""
        self._accepting = False
        if drain and self._clock_task is not None:
            while self.voqs.total or self._frames_in_flight():
                self._work.set()
                await asyncio.sleep(0)
                if not any(plane.healthy for plane in self.planes):
                    break
        task, self._clock_task = self._clock_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self.voqs.drain_all()
        self._fail_owners(
            GatewayClosedError("shut down with words still queued")
        )
        for target, future in self._cycle_waiters:
            if not future.done():
                future.set_result(self.cycle)
        self._cycle_waiters.clear()

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the first :meth:`start`; 0.0 before it."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> Dict[str, Any]:
        """Stop admitting new words; keep serving the backlog.

        The cluster tier's rolling-restart primitive (the ``drain``
        wire op): a draining gateway rejects every new ``send`` /
        ``send_batch`` word with an :class:`AdmissionRejectedError`
        carrying a retry-after hint, while queued words and in-flight
        frames complete normally — so an operator can wait for the
        backlog to reach zero and restart the node without a delivery
        gap.  Idempotent; :meth:`rejoin` reverses it.
        """
        self._draining = True
        return {
            "queued": self.voqs.total,
            "in_flight": self._frames_in_flight(),
        }

    def rejoin(self) -> None:
        """Resume admission after a :meth:`drain` (idempotent)."""
        self._draining = False
        self._work.set()

    def _drain_hint_cycles(self) -> int:
        """Retry-after for words bounced by a drain: the backlog the
        node must serve out before it can plausibly rejoin."""
        return max(1, self.voqs.total + self._frames_in_flight())

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def send(
        self,
        destination: int,
        payload: Any = None,
        tenant: Optional[str] = None,
    ) -> Receipt:
        """Admit one word and await its delivery receipt.

        *tenant* names the word's QoS class when the gateway was
        configured with :attr:`GatewayConfig.tenants`; unnamed words
        ride the ``"default"`` class and the field is inert (ignored)
        on an untenanted gateway.

        Raises :class:`AdmissionRejectedError` (with a retry-after hint
        in cycles) under backpressure, :class:`InputError` for a bad
        destination, :class:`GatewayClosedError` when not serving.
        """
        if not self._accepting:
            raise GatewayClosedError()
        if not 0 <= destination < self.n:
            raise InputError(
                f"destination {destination} out of range for N={self.n}"
            )
        if self._draining:
            hint = self._drain_hint_cycles()
            raise AdmissionRejectedError(
                destination, self.voqs.depth(destination), hint
            )
        if not any(plane.healthy for plane in self.planes):
            raise PlaneUnavailableError(len(self.planes))
        future = asyncio.get_running_loop().create_future()
        owner = self._add_owner(_Sender(future, destination, payload))
        try:
            # Raises AdmissionRejectedError when the queue is full.
            self.voqs.admit(
                destination,
                self.cycle,
                owner,
                tenant if tenant is not None else DEFAULT_TENANT,
            )
        except AdmissionRejectedError as error:
            del self._owners[owner]
            if self.observer is not None:
                self.observer.on_reject([error.retry_after_cycles])
            raise
        self._work.set()
        return await future

    async def send_with_retry(
        self,
        destination: int,
        payload: Any = None,
        attempts: int = 16,
        tenant: Optional[str] = None,
    ) -> Receipt:
        """Like :meth:`send`, but honour backpressure by waiting it out.

        Each rejection waits the advertised ``retry_after_cycles`` (at
        least one) before retrying; after *attempts* rejections the last
        :class:`AdmissionRejectedError` propagates.
        """
        for attempt in range(attempts):
            try:
                return await self.send(destination, payload, tenant)
            except AdmissionRejectedError as error:
                if attempt == attempts - 1:
                    raise
                await self.wait_cycles(max(1, error.retry_after_cycles))
        raise AssertionError("unreachable")  # pragma: no cover

    async def send_batch(
        self,
        destinations: Any,
        retry_attempts: int = 0,
        tenant: Optional[str] = None,
    ) -> BatchResult:
        """Admit a whole batch of words and await every delivery.

        The per-request counterpart of the fabric's frame-axis
        batching: one call admits ``len(destinations)`` words (an int64
        array or any sequence of ints), the clock coalesces and routes
        them across however many frames they need, and one
        :class:`BatchResult` comes back with per-word status arrays —
        no per-word futures, no per-word Receipt objects.

        Admission is per word and non-raising: words that hit a full
        VOQ are marked rejected in the result (with their
        ``retry_after`` hint) instead of failing the batch.  With
        ``retry_attempts > 0`` the gateway itself waits out the
        advertised backpressure and re-offers the rejected remainder up
        to that many more times before reporting them rejected.

        Raises :class:`InputError` for any out-of-range destination
        (the batch shape is the caller's bug, not backpressure),
        :class:`GatewayClosedError` / :class:`PlaneUnavailableError`
        exactly like :meth:`send`.
        """
        if not self._accepting:
            raise GatewayClosedError()
        dests = np.ascontiguousarray(destinations, dtype=np.int64)
        if dests.ndim != 1:
            raise InputError(
                f"destinations must be one-dimensional, got shape "
                f"{dests.shape}"
            )
        if retry_attempts < 0:
            raise InputError(
                f"retry_attempts must be >= 0, got {retry_attempts}"
            )
        count = int(dests.shape[0])
        result = BatchResult(count)
        if count == 0:
            return result
        bad = (dests < 0) | (dests >= self.n)
        if bad.any():
            raise InputError(
                f"destinations {dests[bad][:8].tolist()} out of range "
                f"for N={self.n}"
            )
        if not any(plane.healthy for plane in self.planes):
            raise PlaneUnavailableError(len(self.planes))
        if self._draining:
            # A draining gateway bounces the whole batch with hints but
            # still returns a well-formed result: statuses stay 0.
            result.retry_after[:] = self._drain_hint_cycles()
            return result
        tracker = _BatchTracker(
            result, asyncio.get_running_loop().create_future()
        )
        owner = self._add_owner(tracker)
        tenant_name = tenant if tenant is not None else DEFAULT_TENANT
        try:
            rejected = self._admit_batch_round(
                owner, tracker, dests, None, tenant_name
            )
            for _attempt in range(retry_attempts):
                if not len(rejected):
                    break
                wait = max(
                    1, int(result.retry_after[rejected].max(initial=0))
                )
                await self.wait_cycles(wait)
                if not self._accepting:
                    break
                if self._draining:
                    # A drain that started mid-retry bounces the
                    # remainder: admitting more would extend the very
                    # backlog the drain is waiting out.
                    result.retry_after[rejected] = self._drain_hint_cycles()
                    break
                # Clear the stale hints before re-offering: a word
                # accepted on retry keeps hint 0 from here.
                result.retry_after[rejected] = 0
                rejected = self._admit_batch_round(
                    owner, tracker, dests, rejected, tenant_name
                )
            tracker.open = False
            if tracker.pending == 0 and not tracker.future.done():
                tracker.future.set_result(result)
            self._work.set()
            return await tracker.future
        finally:
            self._owners.pop(owner, None)

    def _add_owner(self, owner: Any) -> int:
        owner_id = self._next_owner
        self._next_owner += 1
        self._owners[owner_id] = owner
        return owner_id

    def _admit_batch_round(
        self,
        owner: int,
        tracker: _BatchTracker,
        dests: np.ndarray,
        indices: Optional[np.ndarray],
        tenant: str = DEFAULT_TENANT,
    ) -> np.ndarray:
        """Offer the words at *indices* (all when ``None``) to the
        VOQs; return the rejects.

        Synchronous on purpose: no await happens between the first and
        last admission of a round, so deliveries cannot interleave with
        the bookkeeping.
        """
        accepted, rejected, hints = self.voqs.admit_batch(
            dests, self.cycle, owner, indices, tenant
        )
        tracker.pending += len(accepted)
        if len(rejected):
            tracker.result.retry_after[rejected] = hints
            if self.observer is not None:
                self.observer.on_reject(hints)
        self._work.set()
        return rejected

    async def wait_cycles(self, cycles: int) -> int:
        """Await *cycles* gateway cycles; returns the cycle reached.

        The clock keeps ticking while waiters exist, so this never
        deadlocks even when the queues are empty.
        """
        future = asyncio.get_running_loop().create_future()
        self._cycle_waiters.append((self.cycle + max(1, cycles), future))
        self._work.set()
        return await future

    def kill_plane(self, plane_id: int, reason: str = "operator kill") -> int:
        """Fail one plane; its in-flight words requeue.  Returns how many.

        Raises :class:`InputError` for a plane id outside the pool.
        """
        plane = self._plane(plane_id)
        was_healthy = plane.healthy
        stranded = plane.kill(reason=reason)
        self.voqs.requeue_front(stranded)
        words = sum(block.size for block in stranded)
        if self.observer is not None:
            if words:
                self.observer.on_requeue(plane, stranded)
            if was_healthy:
                self.observer.on_plane_killed(plane)
        self._work.set()
        return words

    def inject_fault(
        self, plane_id: int, coordinate: Any, value: int
    ) -> Dict[str, Any]:
        """Inject a stuck-control fault into one plane's live fabric.

        The operator-facing fault drill (the ``inject`` protocol op):
        *coordinate* is a 5-sequence ``(main_stage, nested,
        nested_stage, box, switch)``.  Only a resilient plane (one with
        a fault policy) can take one; anything else raises
        :class:`InputError` rather than silently ignoring the drill.
        """
        from ..faults.injector import SwitchCoordinate

        plane = self._plane(plane_id)
        policy = getattr(plane, "policy", None)
        if policy is None:
            raise InputError(
                f"plane {plane_id} ({type(plane).__name__}) cannot take "
                f"fault injection; serve with --resilient"
            )
        policy.inject_stuck_control(
            SwitchCoordinate(*(int(axis) for axis in coordinate)), value
        )
        self._work.set()
        return plane.describe()

    def _plane(self, plane_id: int) -> Any:
        """The plane with id *plane_id*; :class:`InputError` outside the
        pool (a negative id is refused, not counted from the end)."""
        if not 0 <= plane_id < len(self.planes):
            raise InputError(
                f"plane {plane_id} out of range "
                f"({len(self.planes)} plane(s))"
            )
        return self.planes[plane_id]

    def _fail_owners(self, failure: Exception) -> None:
        """Fail every owner still waiting: single sends and whole batches.

        A batch tracker fails as a unit — one exception wakes its
        ``send_batch`` — because its preallocated result is meaningless
        once any of its words can no longer be delivered.
        """
        owners, self._owners = self._owners, {}
        for owner in owners.values():
            if not owner.future.done():
                owner.future.set_exception(failure)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------
    def _frames_in_flight(self) -> int:
        return sum(
            plane.load for plane in self.planes if plane.healthy
        )

    def _has_work(self) -> bool:
        return bool(
            self.voqs.total or self._frames_in_flight() or self._cycle_waiters
        )

    async def _run_clock(self) -> None:
        try:
            while True:
                if not self._has_work():
                    self._work.clear()
                    await self._work.wait()
                    continue
                self.tick()
                # Yield so client coroutines run between cycles.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — clock must not die silently
            # A clock crash would strand every awaiting client; fail them
            # loudly instead and refuse further traffic.
            self._accepting = False
            failure = GatewayClosedError(f"clock task crashed: {error!r}")
            self.voqs.drain_all()
            for plane in self.planes:
                plane.kill(reason="clock crash")
            self._fail_owners(failure)
            for _target, future in self._cycle_waiters:
                if not future.done():
                    future.set_exception(failure)
            self._cycle_waiters.clear()
            raise

    def tick(self) -> None:
        """One synchronous gateway cycle (the benchmark harness calls it
        directly; the clock task calls it between awaits)."""
        self.cycle += 1
        healthy = [plane for plane in self.planes if plane.healthy]
        # Dispatch: least-loaded ready planes first, while backlog
        # remains; each takes one block of as many frames as it has free.
        ready = sorted(
            (plane for plane in healthy if plane.ready),
            key=lambda plane: plane.load,
        )
        for plane in ready:
            if not self.voqs.total:
                break
            block = self.scheduler.next_frame(self.voqs, self.cycle, plane.free)
            plane.offer(block)
            if self.observer is not None:
                self.observer.on_dispatch(block, plane, self.cycle)
        # Clock every healthy plane; collect deliveries and casualties.
        for plane in healthy:
            completed, stranded = plane.step()
            for completion in completed:
                self._resolve(completion)
            if stranded:
                self.voqs.requeue_front(stranded)
                if self.observer is not None:
                    self.observer.on_requeue(plane, stranded)
            # A plane that was healthy entering the tick and is not now
            # was killed by its own step(); report it exactly once.
            if not plane.healthy and self.observer is not None:
                self.observer.on_plane_killed(plane)
        # Release cycle waiters that reached their target.
        if self._cycle_waiters:
            still_waiting = []
            for target, future in self._cycle_waiters:
                if self.cycle >= target:
                    if not future.done():
                        future.set_result(self.cycle)
                else:
                    still_waiting.append((target, future))
            self._cycle_waiters = still_waiting

    def _resolve(self, completion: CompletedFrame) -> None:
        """Deliver one block: account it, then resolve its owners.

        The block's words group by owner — one equality test when the
        whole block has a single owner, as on bulk traffic — and each
        ``send_batch`` tracker gets its words scattered into its result
        arrays in a few fancy-indexed stores; a single ``send``'s word
        resolves its future with a :class:`Receipt`.  Words with no
        owner in the table (the bench harnesses' words, or a batch
        whose caller went away) are counted and timed only.
        """
        block = completion.block
        words = block.words
        frames = block.k
        mode = completion.mode
        cycle = self.cycle
        self.delivered_frames += frames
        self.delivered_words += len(words)
        self._mode_counts[mode] = self._mode_counts.get(mode, 0) + frames
        if len(words) == 1:
            self._resolve_one(completion, words[0].tolist())
            return
        latencies = cycle - words[:, CYCLE]
        window = self.config.latency_window
        ends = np.cumsum(block.counts)
        _extend_by_frame(self._latencies, latencies, ends.tolist(), window)
        if self._tenant_latencies is not None:
            self._account_tenants(block, latencies, window)
        owners = words[:, OWNER]
        first = owners[0]
        if (owners == first).all():
            groups = [(int(first), None)]
        else:
            order = np.argsort(owners, kind="stable")
            splits = np.flatnonzero(np.diff(owners[order])) + 1
            groups = [
                (int(owners[rows[0]]), rows)
                for rows in np.split(order, splits)
            ]
        plane_id = completion.plane_id
        for owner_id, rows in groups:
            owner = self._owners.get(owner_id)
            if owner is None:
                continue
            if isinstance(owner, _BatchTracker):
                result = owner.result
                picked = words if rows is None else words[rows]
                index = picked[:, INDEX]
                result.statuses[index] = 1
                result.planes[index] = plane_id
                result.frames[index] = block.tag + (
                    block.frame_of if rows is None else block.frame_of[rows]
                )
                result.latencies[index] = (
                    latencies if rows is None else latencies[rows]
                )
                result.modes[index] = result.mode_index(mode)
                owner.pending -= len(index)
                if (
                    owner.pending == 0
                    and not owner.open
                    and not owner.future.done()
                ):
                    owner.future.set_result(result)
            else:
                row = 0 if rows is None else int(rows[0])
                self._deliver_send(
                    owner_id,
                    owner,
                    completion,
                    block.tag + int(block.frame_of[row]),
                    words[row].tolist(),
                )
        if self.observer is not None:
            self.observer.on_frame_delivered(
                completion,
                cycle,
                np.maximum.reduceat(latencies, ends - block.counts),
            )

    def _resolve_one(self, completion: CompletedFrame, row: List[int]) -> None:
        """The one-word block (the unicast hot path), on scalars."""
        block = completion.block
        owner_id, index, enqueued, _requeues = row
        latency = self.cycle - enqueued
        window = self.config.latency_window
        samples = self._latencies
        samples.append(latency)
        if len(samples) > 2 * window:
            del samples[:-window]
        if self._tenant_latencies is not None:
            tid = 0 if block.tenants is None else int(block.tenants[0])
            name = self.voqs.tenant_names[tid]
            tenant_samples = self._tenant_samples(name)
            self._tenant_delivered[name] += 1
            tenant_samples.append(latency)
            if len(tenant_samples) > 2 * window:
                del tenant_samples[:-window]
        owner = self._owners.get(owner_id)
        if isinstance(owner, _BatchTracker):
            result = owner.result
            result.statuses[index] = 1
            result.planes[index] = completion.plane_id
            result.frames[index] = block.tag
            result.latencies[index] = latency
            result.modes[index] = result.mode_index(completion.mode)
            owner.pending -= 1
            if owner.pending == 0 and not owner.open and not owner.future.done():
                owner.future.set_result(result)
        elif owner is not None:
            self._deliver_send(owner_id, owner, completion, block.tag, row)
        if self.observer is not None:
            self.observer.on_frame_delivered(completion, self.cycle, [latency])

    def _deliver_send(
        self,
        owner_id: int,
        sender: _Sender,
        completion: CompletedFrame,
        tag: int,
        row: List[int],
    ) -> None:
        del self._owners[owner_id]
        if not sender.future.done():
            sender.future.set_result(
                Receipt(
                    destination=sender.destination,
                    payload=sender.payload,
                    plane_id=completion.plane_id,
                    frame_tag=tag,
                    enqueued_cycle=row[CYCLE],
                    delivered_cycle=self.cycle,
                    mode=completion.mode,
                    requeues=row[REQUEUES],
                )
            )

    def _tenant_samples(self, tenant: str) -> List[int]:
        """The latency samples of *tenant*, created on its first word."""
        assert self._tenant_latencies is not None
        samples = self._tenant_latencies.get(tenant)
        if samples is None:
            samples = self._tenant_latencies[tenant] = []
            self._tenant_delivered[tenant] = 0
        return samples

    def _account_tenants(
        self, block: Block, latencies: np.ndarray, window: int
    ) -> None:
        """Per-tenant delivery counts and latency samples of one block."""
        names = self.voqs.tenant_names
        tids = block.tenants
        for tid in ([0] if tids is None else np.unique(tids).tolist()):
            name = names[tid]
            samples = self._tenant_samples(name)
            if tids is None:
                values, frame_of = latencies, block.frame_of
            else:
                mine = tids == tid
                values, frame_of = latencies[mine], block.frame_of[mine]
            ends = np.cumsum(np.bincount(frame_of, minlength=block.k)).tolist()
            _extend_by_frame(samples, values, ends, window)
            self._tenant_delivered[name] += len(values)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @staticmethod
    def _quantiles(samples: List[int]) -> Dict[str, Optional[int]]:
        """Sample count, p50, p99 and max of *samples*, from one sort.

        Quantile ``q`` is ``ordered[min(L - 1, int(q * (L - 1) + 0.5))]``
        over the ``L`` sorted samples; every value is ``None`` when there
        are none.
        """
        if not samples:
            return {"samples": 0, "p50": None, "p99": None, "max": None}
        ordered = sorted(samples)
        last = len(ordered) - 1
        return {
            "samples": len(ordered),
            "p50": ordered[min(last, int(0.50 * last + 0.5))],
            "p99": ordered[min(last, int(0.99 * last + 0.5))],
            "max": ordered[last],
        }

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Fairness + latency accounting per QoS class, or ``None``
        when the gateway runs untenanted.

        Merges the VOQ's admission/service counters with the gateway's
        delivery counts and per-class latency percentiles — the payload
        behind ``stats()["tenants"]`` and the ``repro_tenant_*``
        metrics.
        """
        rows = self.voqs.tenant_snapshot()
        if rows is None:
            return None
        for tenant, row in rows.items():
            samples = (
                self._tenant_latencies.get(tenant, [])
                if self._tenant_latencies is not None
                else []
            )
            row["delivered"] = self._tenant_delivered.get(tenant, 0)
            row["latency_cycles"] = self._quantiles(samples)
        return rows

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of every component's counters."""
        return {
            "cycle": self.cycle,
            "n": self.n,
            "node_id": self.node_id,
            "engine": self.config.engine,
            "backend": self.backend_name,
            "arena": (
                self.arena_decision.describe()
                if self.arena_decision is not None
                else None
            ),
            "uptime_seconds": round(self.uptime_seconds, 3),
            "accepting": self._accepting,
            "draining": self._draining,
            "delivered_words": self.delivered_words,
            "delivered_frames": self.delivered_frames,
            "delivery_modes": dict(self._mode_counts),
            "queues": self.voqs.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "tenants": self.tenant_snapshot(),
            "latency_cycles": self._quantiles(self._latencies),
            "planes": [plane.describe() for plane in self.planes],
        }
