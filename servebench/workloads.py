"""The workloads: seeded inputs, and the client loads that drive them.

Each workload is one ``repro serve`` configuration plus the traffic a
single client process (one asyncio thread, two connections) offers it.
Connection 1 carries the words; connection 2 polls ``stats`` twenty
times a second, and on the instrumented workload also scrapes the
Prometheus ``metrics`` op every second.  All inputs are drawn from
``numpy.random.default_rng(seed)`` before anything is timed.

The load is offered in cycles of about :data:`CYCLE_S` seconds.  At the
end of a cycle no new request is sent; once every answer is in, the
client reads the host's speed with :func:`speed.probe` while the server
idles, and the next cycle starts.  Every request therefore belongs to
one cycle, and its times can be scaled by the speed read on either side
of that cycle (see ``metrics``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .gate import check_batch, check_final_stats, check_unicast
from .speed import probe

clock = time.perf_counter

#: The two-tier hot mix of the ``tenants`` traffic scenario, copied
#: rather than imported so a change to the repository's generators
#: cannot move the workload: 70% of words go to the first 12.5% of the
#: outputs, the rest anywhere.
HOT_FRACTION = 0.125
HOT_WEIGHT = 0.7
#: Seconds between ``stats`` polls.  The cluster's node supervisor polls
#: every 0.25 s; twenty a second give 600 polls in a 30 s window, so the
#: poll percentiles of one run rest on enough samples to repeat.
POLL_EVERY_S = 0.05
#: Untimed load before the window, so queues, latency windows and
#: allocator pools reach their steady state first.
WARMUP_S = 2.0
#: Seconds of load per cycle: the host's speed drifts over seconds, so
#: a cycle is short enough for the probes around it to follow.
CYCLE_S = 1.0
#: Bulk and hotspot requests are drawn from a pool of this many
#: distinct requests per stream, reused round-robin.
POOL = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    """One served configuration and its load."""

    name: str
    serve_args: Tuple[str, ...]
    #: Closed-loop ``send_batch`` streams, one request in flight each,
    #: named by tenant (``None``: no tenant field).
    streams: Tuple[Optional[str], ...] = ()
    batch_words: int = 0
    #: Server-side re-admission attempts per ``send_batch``.
    retry: int = 0
    #: Open-loop single-word ``send`` requests per second.
    rate: float = 0.0
    #: Seconds between Prometheus scrapes on connection 2 (0: none).
    scrape_every_s: float = 0.0
    #: How destinations are drawn: ``"permutation"`` bursts (every
    #: output once per round), the ``"hot"`` mix, or ``"uniform"``.
    mix: str = "permutation"

    @property
    def n(self) -> int:
        return int(self.serve_args[0])

    @property
    def open_loop(self) -> bool:
        return self.rate > 0

    def inputs(self, seed: int, seconds: float) -> Dict[Optional[str], Any]:
        """Every destination the run will send, drawn from *seed*."""
        rng = np.random.default_rng(seed)
        if self.mix == "uniform":
            count = sum(math.ceil(length * self.rate) for length in sum(cycles(seconds), []))
            return {None: rng.integers(0, self.n, size=count, dtype=np.int64)}
        if self.mix == "hot":
            return {
                tenant: [hot_mix(rng, self.n, self.batch_words) for _ in range(POOL)]
                for tenant in self.streams
            }
        rounds = self.batch_words // self.n
        base = np.tile(np.arange(self.n, dtype=np.int64), (rounds, 1))
        return {
            tenant: [rng.permuted(base, axis=1).ravel() for _ in range(POOL)]
            for tenant in self.streams
        }


def hot_mix(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    hot = max(1, round(HOT_FRACTION * n))
    to_hot = rng.random(count) < HOT_WEIGHT
    return np.where(
        to_hot,
        rng.integers(0, hot, size=count, dtype=np.int64),
        rng.integers(0, n, size=count, dtype=np.int64),
    )


#: Why each workload exists is recorded in ``BENCHMARK.json`` and
#: ``README.md``: full frames and per-word costs (bulk), partial frames,
#: rejections and the obs hooks (hotspot), per-request costs (unicast).
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="perm_bulk_m6",
            serve_args=("64", "--engine", "batch", "--capacity", "256"),
            streams=(None, None),
            batch_words=8192,
        ),
        Workload(
            name="tenant_hotspot_m8",
            serve_args=(
                "256", "--engine", "batch", "--tenants", "gold:8,bronze:1", "--metrics",
            ),
            streams=("gold", "bronze"),
            batch_words=2048,
            retry=16,
            scrape_every_s=1.0,
            mix="hot",
        ),
        Workload(
            name="unicast_open_m4",
            serve_args=("16", "--engine", "batch"),
            rate=500.0,
            mix="uniform",
        ),
    )
}


def cycles(seconds: float) -> Tuple[List[float], List[float]]:
    """Load seconds of each warm-up cycle and of each timed cycle."""
    count = max(1, round(seconds / CYCLE_S))
    return [CYCLE_S] * round(WARMUP_S / CYCLE_S), [seconds / count] * count


async def settle(aws) -> None:
    """Await every one of *aws*, then raise the first error one raised.

    Nothing is left running, and a wrong answer fails the run with its
    own :class:`GateError` rather than only as a missing word later.
    """
    for outcome in await asyncio.gather(*aws, return_exceptions=True):
        if isinstance(outcome, BaseException):
            raise outcome


async def wait_until(due: float) -> None:
    delay = due - clock()
    if delay > 0:
        await asyncio.sleep(delay)


class AlarmClock:
    """Wake the event loop at a due time to within tens of microseconds.

    ``asyncio.sleep`` rounds its epoll timeout up to whole milliseconds,
    so an open-loop schedule built on it runs up to a millisecond late,
    about as long as the round trip it times; spinning instead would
    take the CPU the server needs.  A ``SIGALRM`` from an interval timer
    arrives on time and wakes the loop through its signal wake-up fd.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._waiter: Optional[asyncio.Future] = None
        self._loop.add_signal_handler(signal.SIGALRM, self._ring)

    def _ring(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def wait_until(self, due: float) -> None:
        delay = due - clock()
        if delay <= 0:
            return
        self._waiter = self._loop.create_future()
        signal.setitimer(signal.ITIMER_REAL, delay)
        try:
            await self._waiter
        finally:
            self._waiter = None

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._loop.remove_signal_handler(signal.SIGALRM)


class Observations:
    """What the client saw of the cycles it keeps (the timed window's)."""

    def __init__(self) -> None:
        #: Window bounds; ``inf`` until the window starts or ends.
        self.t0 = math.inf
        self.t1 = math.inf
        #: (start, drained, speed before, speed after) per cycle: load
        #: runs from start until the last answer is in at drained.
        self.cycles: List[Tuple[float, float, float, float]] = []
        #: (started or due, done, words delivered, words failed); done is
        #: ``inf`` for a request that failed as a whole.
        self.requests: List[Tuple[float, float, int, int]] = []
        #: (sent, done) per ``stats`` poll and per scrape.
        self.polls: List[Tuple[float, float]] = []
        self.scrapes: List[Tuple[float, float]] = []
        #: (due, seconds late) per open-loop request.
        self.lateness: List[Tuple[float, float]] = []
        self.stats_start: Dict[str, Any] = {}
        self.stats_end: Dict[str, Any] = {}
        self.cpu_start = 0.0
        self.cpu_end = 0.0
        self.peak_rss_mib = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def load_seconds(self) -> float:
        """The window's time under load, the probes between cycles left out."""
        return sum(drained - start for start, drained, _b, _a in self.cycles)

    def attempted(self) -> int:
        return sum(words + failed for _s, _d, words, failed in self.requests) + len(
            self.polls
        ) + len(self.scrapes)

    def failed(self) -> int:
        return sum(failed for *_rest, failed in self.requests) + sum(
            1 for _s, done in self.polls + self.scrapes if math.isinf(done)
        )


class Driver:
    """Offer one workload's load to a started server, in cycles, and watch it."""

    def __init__(self, workload: Workload, inputs: Dict[Optional[str], Any], seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        #: Where in its slot each poll falls (see :meth:`poll_times`).
        self._phases = np.random.default_rng((seed, 1))
        self.obs = Observations()
        #: Words delivered over the whole run, warm-up included.
        self.delivered = 0
        self._next = [0] * len(workload.streams)
        self._sent = 0

    async def run(self, server, data_client, poll_client, seconds: float) -> Observations:
        from repro.exceptions import GatewayRequestError

        self._request_error = GatewayRequestError
        obs = self.obs
        warm, timed = cycles(seconds)
        speed = probe()
        for length in warm:
            speed = await self.cycle(data_client, poll_client, length, speed, Observations())
        obs.stats_start = (await poll_client.stats())["stats"]
        obs.cpu_start = server.cpu_seconds()
        speed = probe()
        obs.t0 = clock()
        for length in timed:
            speed = await self.cycle(data_client, poll_client, length, speed, obs)
        obs.t1 = clock()
        obs.cpu_end = server.cpu_seconds()
        obs.stats_end = (await poll_client.stats())["stats"]
        check_final_stats(obs.stats_end, self.delivered)
        obs.peak_rss_mib = server.peak_rss_mib()
        return obs

    async def cycle(
        self, data_client, poll_client, length: float, before: float, obs: Observations
    ) -> float:
        """Offer *length* seconds of load, let it drain, probe; return the speed."""
        workload = self.workload
        start = clock()
        end = start + length
        if workload.open_loop:
            loads = [self._unicast(data_client, start, end, obs)]
        else:
            loads = [
                self._batch_stream(data_client, stream, tenant, end, obs)
                for stream, tenant in enumerate(workload.streams)
            ]
        loads.append(
            self._poll(obs.polls, poll_client.stats, self.poll_times(POLL_EVERY_S, start, end))
        )
        if workload.scrape_every_s:
            loads.append(
                self._poll(
                    obs.scrapes,
                    lambda: poll_client.metrics(format="prometheus"),
                    self.poll_times(workload.scrape_every_s, start, end),
                )
            )
        await settle(loads)
        drained = clock()
        after = probe()
        obs.cycles.append((start, drained, before, after))
        return after

    async def _batch_stream(
        self, client, stream: int, tenant: Optional[str], end: float, obs: Observations
    ) -> None:
        pool = self.inputs[tenant]
        retry = self.workload.retry
        while clock() < end:
            dests = pool[self._next[stream] % len(pool)]
            self._next[stream] += 1
            sent = clock()
            try:
                response = await client.send_batch(dests, retry=retry, tenant=tenant)
            except self._request_error:
                obs.requests.append((sent, math.inf, 0, int(dests.size)))
                continue
            done = clock()
            failed = check_batch(response, int(dests.size))
            self.delivered += int(dests.size) - failed
            obs.requests.append((sent, done, int(dests.size) - failed, failed))

    async def _unicast(self, client, start: float, end: float, obs: Observations) -> None:
        period = 1.0 / self.workload.rate
        dests = self.inputs[None]
        sends = []
        alarm = AlarmClock()
        try:
            due = start
            while due < end:
                await alarm.wait_until(due)
                obs.lateness.append((due, clock() - due))
                index = self._sent
                self._sent += 1
                sends.append(
                    asyncio.ensure_future(self._send(client, index, int(dests[index]), due, obs))
                )
                due = start + len(sends) * period
        finally:
            alarm.close()
        await settle(sends)

    async def _send(self, client, index: int, dest: int, due: float, obs: Observations) -> None:
        try:
            response = await client.send(dest, payload=index)
        except self._request_error:
            obs.requests.append((due, math.inf, 0, 1))
            return
        done = clock()
        check_unicast(response, dest)
        self.delivered += 1
        obs.requests.append((due, done, 1, 0))

    def poll_times(self, every: float, start: float, end: float) -> np.ndarray:
        """One time in each *every*-second slot from *start* to *end*, at a
        seeded random point of the slot.

        At fixed points the polls would meet the load at the same phase
        in every cycle (the batch streams and the open-loop schedule also
        start with the cycle), and one run's tail would depend on where
        that phase happened to fall.
        """
        slots = math.floor((end - start) / every + 1e-9)
        return start + (np.arange(slots) + self._phases.random(slots)) * every

    async def _poll(self, samples: List, op, dues: np.ndarray) -> None:
        for due in dues.tolist():
            await wait_until(due)
            sent = clock()
            try:
                await op()
                samples.append((sent, clock()))
            except self._request_error:
                samples.append((sent, math.inf))
