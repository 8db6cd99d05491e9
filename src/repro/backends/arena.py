"""The backend arena: measured auto-select over registered backends.

Turns the paper's Tables 1/2 — an *analytical* comparison of the BNB
network against rival fabrics — into a live, benchmarked one.  A
calibration pass times every registered backend on this machine, per
``(m, workload class)``:

* ``"single"`` — one frame per ``route_frame`` call, the latency-bound
  shape (a plane draining frames one at a time);
* ``"batch"`` — ``batch_window`` frames per ``route_frame_batch`` call,
  the throughput shape behind ``send_batch`` and the batch plane.

Before any timer starts, every candidate is **differentially verified
against the crossbar** (:class:`~repro.baselines.crossbar.Crossbar`,
the trivially-correct direct scatter): the arena routes seeded random
permutations — plus the identity and the reversal — through both and
compares arrival orders word for word.  A backend that disagrees with
the oracle raises :class:`BackendDisagreementError` rather than being
silently timed: a fast wrong answer must never win.

Results are cached per ``(m, workload, backend)`` in-process, so a
gateway booting with ``engine="auto"`` pays the calibration once and
every later plane/size lookup is a dict read.  :func:`select_backend`
returns the measured winner for a cell; ``repro serve --engine auto``
and the gateway's plane factory dispatch on it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReproError
from .base import backend_names, compiled_backend, prewarm

__all__ = [
    "ArenaDecision",
    "BackendDisagreementError",
    "WORKLOADS",
    "calibrate",
    "clear_arena_cache",
    "select_backend",
    "verify_backend",
]

#: The workload classes the arena measures.
WORKLOADS: Tuple[str, ...] = ("single", "batch")

#: ``(m, workload, backend) -> seconds_per_frame`` measured on this
#: machine, filled lazily by :func:`calibrate`.
_CACHE: Dict[Tuple[int, str, str], float] = {}


class BackendDisagreementError(ReproError):
    """A backend's arrival order disagreed with the crossbar oracle."""


@dataclasses.dataclass(frozen=True)
class ArenaDecision:
    """Outcome of one auto-select: the winner plus the full table."""

    m: int
    workload: str
    backend: str
    #: ``backend -> seconds per frame`` for every candidate measured.
    table: Dict[str, float]

    @property
    def spread(self) -> float:
        """Slowest over fastest — how much the measured choice matters."""
        fastest = min(self.table.values())
        return max(self.table.values()) / fastest if fastest else 1.0

    def describe(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "workload": self.workload,
            "backend": self.backend,
            "seconds_per_frame": {
                name: self.table[name] for name in sorted(self.table)
            },
            "spread": self.spread,
        }


def _verification_frames(
    n: int, samples: int, seed: int
) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    frames = [
        np.arange(n, dtype=np.int64),
        np.arange(n - 1, -1, -1, dtype=np.int64),
    ]
    frames.extend(
        rng.permutation(n).astype(np.int64) for _ in range(samples)
    )
    return frames


def verify_backend(
    name: str, m: int, samples: int = 16, seed: int = 2024
) -> int:
    """Differentially verify one backend against the crossbar oracle.

    Routes the identity, the reversal and *samples* seeded random
    permutations through both the backend (single and batch forms) and
    a :class:`~repro.baselines.crossbar.Crossbar`, comparing arrival
    orders word for word.  Returns the number of frames checked; raises
    :class:`BackendDisagreementError` on the first disagreement.
    """
    from ..baselines.crossbar import Crossbar

    engine = compiled_backend(name, m)
    n = 1 << m
    crossbar = Crossbar(n)
    frames = _verification_frames(n, samples, seed)
    for addresses in frames:
        # The oracle: a direct scatter.  outputs[a] is the Word routed
        # to line a; its payload records the input line it entered on.
        from ..core.words import Word

        outputs = crossbar.route(
            [
                Word(address=int(address), payload=line)
                for line, address in enumerate(addresses)
            ]
        )
        oracle = np.asarray(
            [word.payload for word in outputs], dtype=np.int64
        )
        sources = engine.route_frame(addresses)
        if not np.array_equal(sources, oracle):
            bad = np.flatnonzero(sources != oracle)
            raise BackendDisagreementError(
                f"backend {name!r} (m={m}) disagrees with the crossbar "
                f"on outputs {bad[:8].tolist()}"
            )
    # The batch form must agree row for row with the single form.
    stacked = np.stack(frames)
    batched = engine.route_frame_batch(stacked)
    for row, addresses in zip(batched, frames):
        if not np.array_equal(row, engine.route_frame(addresses)):
            raise BackendDisagreementError(
                f"backend {name!r} (m={m}) batch form disagrees with its "
                f"single-frame form"
            )
    return len(frames)


def _time_single(engine, frames: List[np.ndarray]) -> float:
    """Seconds per frame of one lone-frame pass over *frames*."""
    start = time.perf_counter()
    for addresses in frames:
        engine.route_frame(addresses)
    return (time.perf_counter() - start) / len(frames)


def _time_batch(engine, stacked: np.ndarray) -> float:
    """Seconds per frame of one ``route_frame_batch`` call."""
    start = time.perf_counter()
    engine.route_frame_batch(stacked)
    return (time.perf_counter() - start) / stacked.shape[0]


def calibrate(
    m: int,
    workloads: Sequence[str] = WORKLOADS,
    backends: Optional[Sequence[str]] = None,
    frames: int = 16,
    batch_window: int = 32,
    repeats: int = 3,
    verify_samples: int = 8,
    seed: int = 7,
    use_cache: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Measure seconds/frame for every backend per workload class.

    Returns ``{workload: {backend: seconds_per_frame}}``.  Every
    candidate passes :func:`verify_backend` before it is timed; a
    disagreeing backend raises instead of competing.  Each of
    *repeats* rounds times every missing cell once, starting one cell
    further along each round, and a cell's cost is the median of its
    rounds: a host whose speed drifts during calibration then slows
    every candidate alike, where timing one candidate's repeats back to
    back let the drift pick the winner.  Measured cells land in the
    in-process cache, so repeated calls (every plane of an
    ``engine="auto"`` gateway, the CLI, the benchmark) are dict reads.
    """
    names = list(backends) if backends is not None else backend_names()
    if repeats < 1:
        raise ValueError(f"calibration needs repeats >= 1, got {repeats}")
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {WORKLOADS}"
            )
    prewarm(m, names)
    missing = [
        (workload, name)
        for workload in workloads
        for name in names
        if not (use_cache and (m, workload, name) in _CACHE)
    ]
    if missing:
        for name in {name for _w, name in missing}:
            verify_backend(name, m, samples=verify_samples, seed=seed)
        rng = np.random.default_rng(seed)
        n = 1 << m
        single_frames = [
            rng.permutation(n).astype(np.int64) for _ in range(frames)
        ]
        batch_frames = np.stack(
            [
                rng.permutation(n).astype(np.int64)
                for _ in range(batch_window)
            ]
        )
        rounds: Dict[Tuple[str, str], List[float]] = {
            cell: [] for cell in missing
        }
        for turn in range(repeats):
            start = turn % len(missing)
            for workload, name in missing[start:] + missing[:start]:
                engine = compiled_backend(name, m)
                if workload == "single":
                    cost = _time_single(engine, single_frames)
                else:
                    cost = _time_batch(engine, batch_frames)
                rounds[(workload, name)].append(cost)
        for (workload, name), costs in rounds.items():
            _CACHE[(m, workload, name)] = float(np.median(costs))
    return {
        workload: {name: _CACHE[(m, workload, name)] for name in names}
        for workload in workloads
    }


def select_backend(
    m: int,
    workload: str = "batch",
    backends: Optional[Sequence[str]] = None,
    **calibrate_kwargs,
) -> ArenaDecision:
    """The measured-fastest backend for ``(m, workload)``.

    Runs (or reuses) the calibration for just that cell and returns an
    :class:`ArenaDecision` carrying the winner and the full cost table,
    so callers can report *why* the choice fell the way it did.
    """
    table = calibrate(
        m, workloads=(workload,), backends=backends, **calibrate_kwargs
    )[workload]
    winner = min(table, key=table.__getitem__)
    return ArenaDecision(m=m, workload=workload, backend=winner, table=table)


def clear_arena_cache() -> None:
    """Drop every measured cell (tests and benchmark re-runs)."""
    _CACHE.clear()
