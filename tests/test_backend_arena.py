"""The arena: calibration, caching, winner selection, oracle gating.

The property that matters most: **a fast wrong answer must never
win** — a backend that disagrees with the crossbar oracle raises
``BackendDisagreementError`` before any timer starts, so the cost
table only ever contains verified engines.
"""

import numpy as np
import pytest

from repro.backends import (
    BackendDisagreementError,
    BackendSpec,
    WORKLOADS,
    backend_names,
    calibrate,
    clear_arena_cache,
    compiled_backend,
    select_backend,
    verify_backend,
)
from repro.backends import arena as arena_module
from repro.backends.base import _REGISTRY
from repro.exceptions import ReproError

#: Small, fast calibration settings for the tests.
QUICK = dict(frames=4, batch_window=4, repeats=1, verify_samples=2)
#: The same with the default three rounds.
QUICK_ROUNDS = dict(QUICK, repeats=3)


@pytest.fixture(autouse=True)
def fresh_arena():
    clear_arena_cache()
    yield
    clear_arena_cache()


class TestCalibrate:
    def test_table_covers_every_backend_and_workload(self):
        table = calibrate(3, **QUICK)
        assert set(table) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert sorted(table[workload]) == backend_names()
            for cost in table[workload].values():
                assert cost > 0.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            calibrate(3, workloads=("latency",), **QUICK)

    def test_results_cached_no_retiming(self, monkeypatch):
        first = calibrate(3, **QUICK)

        def _boom(*_args, **_kwargs):
            raise AssertionError("re-timed a cached cell")

        monkeypatch.setattr(arena_module, "_time_single", _boom)
        monkeypatch.setattr(arena_module, "_time_batch", _boom)
        again = calibrate(3, **QUICK)
        assert again == first

    def test_use_cache_false_retimes(self):
        first = calibrate(3, workloads=("single",), **QUICK)
        again = calibrate(
            3, workloads=("single",), use_cache=False, **QUICK
        )
        # Fresh timings land in the cache (values may legitimately
        # differ run to run; the shape must not).
        assert set(again["single"]) == set(first["single"])

    def test_backend_subset(self):
        table = calibrate(3, backends=["bnb", "msorter"], **QUICK)
        assert sorted(table["single"]) == ["bnb", "msorter"]


class TestSelectBackend:
    def test_winner_is_the_cheapest_cell(self):
        decision = select_backend(3, workload="batch", **QUICK)
        assert decision.m == 3
        assert decision.workload == "batch"
        assert decision.backend == min(
            decision.table, key=decision.table.__getitem__
        )
        assert decision.spread >= 1.0

    def test_describe_is_json_shaped(self):
        decision = select_backend(3, workload="single", **QUICK)
        info = decision.describe()
        assert set(info) == {
            "m", "workload", "backend", "seconds_per_frame", "spread",
        }
        assert info["backend"] in info["seconds_per_frame"]
        assert list(info["seconds_per_frame"]) == sorted(
            info["seconds_per_frame"]
        )

    def test_vector_beats_object_on_batch(self):
        # Not a full ranking pin (machine-dependent), but the compiled
        # batch kernel beating the per-word object loop is structural.
        decision = select_backend(4, workload="batch", **QUICK)
        assert decision.table["bnb"] < decision.table["bnb-object"]
        assert decision.backend != "bnb-object"


class _LyingBackend:
    """Routes everything to line 0 — fast and wrong."""

    name = "lying-test"

    def __init__(self, m):
        self.m = m
        self.n = 1 << m

    def route_frame(self, addresses):
        return np.zeros(self.n, dtype=np.int64)

    def route_frame_batch(self, addresses):
        return np.zeros(addresses.shape, dtype=np.int64)


@pytest.fixture
def lying_backend():
    spec = BackendSpec(
        name="lying-test",
        summary="deliberately wrong (test only)",
        factory=_LyingBackend,
    )
    _REGISTRY[spec.name] = spec
    try:
        yield spec.name
    finally:
        del _REGISTRY[spec.name]
        compiled_backend.cache_clear()


class _DriftingClock:
    """A fake ``time`` module on a host whose load fades.

    Routing a frame costs its backend's true seconds times the host's
    current slowdown, which drifts from 2.0 towards 1.0 by 0.2 per
    timing (two clock reads), as a shared host's load fades.
    """

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return self.now

    def spend(self, seconds):
        self.now += seconds * max(2.0 - 0.2 * (self.reads // 2), 1.0)


class _PacedBackend:
    """The real ``bnb`` kernel, billed at a fixed true cost per frame."""

    def __init__(self, m, clock, cost):
        self.inner = compiled_backend("bnb", m)
        self.clock = clock
        self.cost = cost

    def route_frame(self, addresses):
        return self.inner.route_frame(addresses)

    def route_frame_batch(self, addresses):
        self.clock.spend(self.cost * addresses.shape[0])
        return self.inner.route_frame_batch(addresses)


@pytest.fixture
def drifting_pair(monkeypatch):
    """Backends "paced-fast" (1.0 s/frame) and "paced-slow" (1.2 s/frame)
    timed on a :class:`_DriftingClock`."""
    clock = _DriftingClock()
    monkeypatch.setattr(arena_module, "time", clock)
    names = {"paced-fast": 1.0, "paced-slow": 1.2}
    for name, cost in names.items():
        _REGISTRY[name] = BackendSpec(
            name=name,
            summary="paced bnb (test only)",
            factory=lambda m, cost=cost: _PacedBackend(m, clock, cost),
        )
    compiled_backend.cache_clear()
    try:
        yield list(names)
    finally:
        for name in names:
            del _REGISTRY[name]
        compiled_backend.cache_clear()


class TestDriftingHost:
    def test_pick_follows_the_true_cost(self, drifting_pair):
        """Rounds interleave the candidates, so the drift slows both
        alike and the cheaper backend wins."""
        decision = select_backend(
            3, workload="batch", backends=drifting_pair, **QUICK_ROUNDS
        )
        assert decision.backend == "paced-fast"
        # Rounds ran fast, slow / slow, fast / fast, slow.
        assert decision.table == {
            "paced-fast": pytest.approx(1.4),
            "paced-slow": pytest.approx(1.6 * 1.2),
        }

    def test_back_to_back_best_of_three_picks_the_drift(self, drifting_pair):
        """The same host under the former schedule — each candidate's
        three repeats back to back, best kept — crowns the slower
        backend, since its repeats ran after the host sped up."""
        best = {}
        for name in drifting_pair:
            engine = compiled_backend(name, 3)
            frames = np.stack([np.arange(8)] * QUICK_ROUNDS["batch_window"])
            best[name] = min(
                arena_module._time_batch(engine, frames) for _ in range(3)
            )
        assert min(best, key=best.__getitem__) == "paced-slow"

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            calibrate(3, **dict(QUICK, repeats=0))


class TestOracleGate:
    def test_verify_backend_counts_frames(self):
        checked = verify_backend("msorter", 3, samples=4)
        assert checked == 6  # identity + reversal + 4 random

    def test_disagreeing_backend_raises(self, lying_backend):
        with pytest.raises(BackendDisagreementError, match="disagrees"):
            verify_backend(lying_backend, 2, samples=2)

    def test_calibrate_refuses_to_time_a_liar(self, lying_backend):
        with pytest.raises(BackendDisagreementError):
            calibrate(2, backends=[lying_backend, "bnb"], **QUICK)
        # Nothing was timed for the lying cell.
        assert all(
            key[2] != lying_backend for key in arena_module._CACHE
        )

    def test_disagreement_is_a_repro_error(self):
        assert issubclass(BackendDisagreementError, ReproError)
