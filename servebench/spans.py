"""In-memory span recording and self-time arithmetic.

A span is ``(name, start, end)`` on the monotonic clock that
``time.perf_counter`` reads, which on Linux is shared by every process,
so server and client spans line up with the client's timed window.

A wrapped coroutine function records one span per *step* (from each
resume to the next suspension), not one span from call to return:
self time then counts only the interpreter time spent in the layer,
never the time it sat awaiting a future while other tasks ran.  It
also means no span is open while the event loop switches tasks, so on
the process's one thread any two spans are either disjoint or nested,
and a span's parent -- the call that caused it -- is the innermost
span whose interval contains it.  :func:`parents` recovers it after
the run, which keeps the recording itself to two clock reads and one
append of a tuple of numbers (a tuple the garbage collector stops
tracking after its first collection).

Spans stay in memory until :meth:`SpanRecorder.dump` writes them out at
exit.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["SpanRecorder", "Spans", "load_spans", "parents", "self_times", "span_costs"]


class SpanRecorder:
    """Record spans around calls into the program, then dump them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._records: List[Tuple[int, float, float]] = []
        #: Ids of the names whose spans are coroutine steps.
        self._step_ids: Set[int] = set()
        self._gc_start = 0.0
        #: Entry points that could not be wrapped, reported as absent.
        self.missing: List[str] = []
        #: Counters kept beside the spans (e.g. frame bytes on the wire).
        self.counts: Dict[str, float] = {}
        #: One-off durations measured outside any span (boot phases).
        self.marks: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time every call of the synchronous *fn* as a span.

        *name* is a span name, or a callable ``(args, kwargs) -> name``
        for spans whose layer depends on the call (data vs control ops).
        """
        append = self._records.append
        clock = time.perf_counter
        if callable(name):
            resolve, name_id = name, self.name_id

            def timed(*args: Any, **kwargs: Any) -> Any:
                nid = name_id(resolve(args, kwargs))
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    append((nid, start, clock()))

        else:
            nid = self.name_id(name)

            def timed(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    append((nid, start, clock()))

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def wrap_async(self, name: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time every *step* of the coroutines *fn* returns as a span."""
        resolve = name if callable(name) else None
        fixed = None if callable(name) else self.name_id(name)
        recorder = self
        step_ids = self._step_ids
        if fixed is not None:
            step_ids.add(fixed)

        async def timed(*args: Any, **kwargs: Any) -> Any:
            nid = fixed
            if resolve is not None:
                nid = recorder.name_id(resolve(args, kwargs))
                step_ids.add(nid)
            return await _Steps(recorder._records.append, nid, fn(*args, **kwargs))

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def patch(self, owner: Any, attr: str, name: Any, is_async: bool = False) -> bool:
        """Replace ``owner.attr`` by its timed form; record it if absent."""
        fn = getattr(owner, attr, None)
        if fn is None or not callable(fn):
            owner_name = getattr(owner, "__name__", type(owner).__name__)
            self.missing.append(f"{owner_name}.{attr}")
            return False
        wrapper = self.wrap_async if is_async else self.wrap
        setattr(owner, attr, wrapper(name, fn))
        return True

    def install_gc_callback(self) -> None:
        """Record every garbage-collector pause as a span (``gc.gen2`` for full ones)."""
        young, full = self.name_id("gc"), self.name_id("gc.gen2")
        append = self._records.append
        clock = time.perf_counter

        def on_gc(phase: str, info: Dict[str, Any]) -> None:
            if phase == "start":
                self._gc_start = clock()
            else:
                nid = full if info.get("generation") == 2 else young
                append((nid, self._gc_start, clock()))

        gc.callbacks.append(on_gc)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _meta(self) -> Dict[str, Any]:
        return {
            "names": list(self.names),
            "steps": sorted(self.names[nid] for nid in self._step_ids),
            "missing": list(self.missing),
            "counts": dict(self.counts),
            "marks": dict(self.marks),
        }

    def _array(self) -> np.ndarray:
        return np.array(self._records, dtype=np.float64).reshape(-1, 3)

    def dump(self, path: str) -> None:
        meta = np.frombuffer(json.dumps(self._meta()).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, records=self._array(), meta=meta)

    def snapshot(self) -> "Spans":
        """The spans recorded so far, in the form :func:`load_spans` gives."""
        return Spans(self._array(), self._meta())


class _Steps:
    """Drive a coroutine, recording each resume-to-suspend step as a span."""

    __slots__ = ("append", "nid", "coro")

    def __init__(self, append: Callable[[Any], None], nid: int, coro: Any) -> None:
        self.append = append
        self.nid = nid
        self.coro = coro

    def __await__(self):
        append, nid, coro = self.append, self.nid, self.coro
        clock = time.perf_counter
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            start = clock()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                append((nid, start, clock()))
            try:
                value, error = (yield yielded), None
            except BaseException as raised:  # thrown in by the task: pass it on
                value, error = None, raised


def parents(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Index of each span's innermost enclosing span, -1 for a root.

    Spans of one thread are disjoint or nested, so walking them in
    start order with a stack of the still-open enclosing spans finds
    every parent; an enclosing span that starts at the same instant
    sorts before its child because it ends later.
    """
    order = np.lexsort((-np.asarray(end), np.asarray(start)))
    starts, ends = np.asarray(start).tolist(), np.asarray(end).tolist()
    parent = [-1] * len(starts)
    stack: List[int] = []
    for index in order.tolist():
        begin = starts[index]
        while stack and ends[stack[-1]] <= begin:
            stack.pop()
        if stack:
            parent[index] = stack[-1]
        stack.append(index)
    return np.asarray(parent, dtype=np.int64)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap each other, so the covered time
    is the sum of the children's durations.
    """
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


class Spans:
    """Recorded spans as arrays, with parents and self times derived."""

    def __init__(self, records: np.ndarray, meta: Dict[str, Any]) -> None:
        records = np.asarray(records, dtype=np.float64).reshape(-1, 3)
        self.name_ids = records[:, 0].astype(np.int64)
        self.start = records[:, 1]
        self.end = records[:, 2]
        self.names: List[str] = meta["names"]
        #: Names whose spans are coroutine steps rather than whole calls.
        self.steps: List[str] = meta["steps"]
        self.missing: List[str] = meta["missing"]
        self.counts: Dict[str, float] = meta["counts"]
        self.marks: Dict[str, float] = meta["marks"]
        self.parent = parents(self.start, self.end)
        self.self_time = self_times(self.start, self.end, self.parent)

    def select(self, name: str, t0: float = -math.inf, t1: float = math.inf) -> np.ndarray:
        """Boolean mask of the spans called *name* that start in ``[t0, t1)``."""
        if name not in self.names:
            return np.zeros(self.name_ids.size, dtype=bool)
        return (
            (self.name_ids == self.names.index(name)) & (self.start >= t0) & (self.start < t1)
        )

    def calls(self, name: str, t0: float = -math.inf, t1: float = math.inf) -> int:
        return int(self.select(name, t0, t1).sum())

    def total_self(self, name: str, t0: float, t1: float) -> float:
        return float(self.self_time[self.select(name, t0, t1)].sum())

    def total_duration(self, name: str, t0: float, t1: float) -> float:
        mask = self.select(name, t0, t1)
        return float((self.end[mask] - self.start[mask]).sum())

    def tracing_cost(self, t0: float, t1: float, call_s: float, step_s: float) -> float:
        """Seconds the timers themselves took for the spans starting in ``[t0, t1)``.

        *call_s* and *step_s* are what one timed call and one timed
        coroutine step add, as :func:`span_costs` measures them.
        """
        window = (self.start >= t0) & (self.start < t1)
        step_ids = [self.names.index(name) for name in self.steps]
        is_step = np.isin(self.name_ids, step_ids)
        return float((window & ~is_step).sum() * call_s + (window & is_step).sum() * step_s)


def _seconds_per_call(fn: Callable[[], Any], calls: int) -> float:
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        fn()
    return (clock() - start) / calls


def _driven(coroutine_function: Callable[[], Any]) -> Callable[[], None]:
    """Run one call of a coroutine function that never suspends."""

    def once() -> None:
        try:
            coroutine_function().send(None)
        except StopIteration:
            pass

    return once


def span_costs(calls: int = 20000, repeats: int = 5) -> Tuple[float, float]:
    """Seconds that timing adds to one call and to one coroutine step.

    Each is the median, over *repeats* rounds of *calls* calls, of the
    time a wrapped no-op takes beyond the bare one, measured in the
    calling process so it reflects that process's interpreter and host.
    """
    recorder = SpanRecorder()

    def noop() -> None:
        return None

    async def coroutine_noop() -> None:
        return None

    pairs = (
        (noop, recorder.wrap("cost", noop)),
        (_driven(coroutine_noop), _driven(recorder.wrap_async("cost", coroutine_noop))),
    )
    costs = []
    for bare, timed in pairs:
        extra = []
        for _ in range(repeats):
            recorder._records.clear()
            extra.append(_seconds_per_call(timed, calls) - _seconds_per_call(bare, calls))
        costs.append(max(0.0, statistics.median(extra)))
    return costs[0], costs[1]


def load_spans(path: str) -> Spans:
    with np.load(path) as data:
        records = data["records"]
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    return Spans(records, meta)
