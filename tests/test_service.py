"""The resilient fabric service: verify, retry, diagnose, fail over.

Includes the acceptance sweep: for EVERY single stuck-at fault at
m = 3 (all coordinates x both stuck values) the BIST schedule detects
it, the decoder localizes it uniquely, and the service delivers 100%
of the words within its retry budget — degraded or failed over.
"""

import pytest

from repro.core.pipeline import PipelinedBNBFabric
from repro.core.plan import build_fault_mask
from repro.exceptions import (
    FaultServiceError,
    LocalizationAmbiguousError,
    QuarantineExhaustedError,
    RetryBudgetExceededError,
)
from repro.faults import (
    BISTSchedule,
    SwitchCoordinate,
    build_bist_schedule,
    enumerate_switch_coordinates,
    fault_mask_for,
    localize,
)
from repro.permutations import random_permutation
from repro.service.registry import EVENT_LOG_LIMIT
from repro.service import (
    FaultRegistry,
    HealthMonitor,
    HealthState,
    ResilientFabric,
    ServiceCounters,
)

M = 3
N = 1 << M
BATCH_SEED = 12345


@pytest.fixture(scope="module")
def schedule():
    return build_bist_schedule(M)


def faulty_mask(coordinate, value, m=M):
    return fault_mask_for(m, [(coordinate, value)])


def assert_full_delivery(result, tag, n=N):
    assert result.delivered == n
    assert [w.address for w in result.outputs] == list(range(n))
    assert {w.payload for w in result.outputs} == {
        (tag, j) for j in range(n)
    }


ALL_FAULTS = [
    (coordinate, value)
    for coordinate in enumerate_switch_coordinates(M)
    for value in (0, 1)
]


@pytest.mark.parametrize(
    "coordinate, value",
    ALL_FAULTS,
    ids=[
        f"{c.main_stage}{c.nested}{c.nested_stage}{c.box}{c.switch}s{v}"
        for c, v in ALL_FAULTS
    ],
)
def test_every_single_fault_is_survived(schedule, coordinate, value):
    """The ISSUE acceptance sweep, one fault per test case."""
    fabric = ResilientFabric(
        M, mask=faulty_mask(coordinate, value), schedule=schedule
    )
    # 1. Live traffic: the batch is fully delivered whatever the mode.
    pi = random_permutation(N, rng=BATCH_SEED)
    result = fabric.submit(pi.to_list(), tag="live")
    assert result.mode in ("clean", "degraded", "failover")
    assert result.retries <= fabric.retry_budget
    assert_full_delivery(result, "live")

    # 2. BIST detects the fault even if live traffic masked it.
    if not fabric.registry.is_quarantined:
        fabric.check(tag="scheduled")
    assert fabric.registry.is_quarantined

    # 3. Localization is unique and names the injected fault.
    assert fabric.registry.confirmed_faults == [(coordinate, value)]

    # 4. Traffic keeps flowing on the spare plane.
    pi2 = random_permutation(N, rng=BATCH_SEED + 1)
    second = fabric.submit(pi2.to_list(), tag="after")
    assert second.mode == "failover"
    assert_full_delivery(second, "after")


class TestHealthyService:
    def test_clean_batches(self, schedule):
        fabric = ResilientFabric(M, schedule=schedule)
        for index in range(3):
            pi = random_permutation(N, rng=index)
            result = fabric.submit(pi.to_list(), tag=index)
            assert result.mode == "clean"
            assert result.retries == 0
            assert_full_delivery(result, index)
        assert fabric.state is HealthState.HEALTHY
        assert fabric.counters.batches_clean == 3
        assert fabric.counters.words_clean == 3 * N

    def test_check_on_healthy_fabric(self, schedule):
        fabric = ResilientFabric(M, schedule=schedule)
        result = fabric.check()
        assert result.candidates == []
        assert fabric.state is HealthState.HEALTHY
        assert fabric.counters.bist_runs == 1

    def test_transient_suspicion_cleared(self, schedule):
        """SUSPECT falls back to HEALTHY when BIST finds nothing."""
        fabric = ResilientFabric(M, schedule=schedule)
        fabric.registry.transition(HealthState.SUSPECT)
        fabric.check(tag="recheck")
        assert fabric.state is HealthState.HEALTHY
        assert fabric.registry.event_kinds().get("cleared") == 1


class TestDegradedAndExhausted:
    # (0,0,0,0,0) stuck-0 with seed 0 needs one repair pass and then
    # delivers on the primary; (0,0,1,1,1) stuck-0 with seed 0 never
    # fully delivers on the primary within the default budget.
    DEGRADED = SwitchCoordinate(0, 0, 0, 0, 0)
    STUBBORN = SwitchCoordinate(0, 0, 1, 1, 1)

    def test_spareless_degraded_delivery(self, schedule):
        fabric = ResilientFabric(
            M,
            mask=faulty_mask(self.DEGRADED, 0),
            spare=None,
            schedule=schedule,
        )
        result = fabric.submit(
            random_permutation(N, rng=0).to_list(), tag="deg"
        )
        assert result.mode == "degraded"
        assert result.retries >= 1
        assert_full_delivery(result, "deg")
        # Confirmed but not quarantined: nothing to fail over to.
        assert fabric.state is HealthState.CONFIRMED
        assert fabric.counters.batches_degraded == 1
        assert fabric.counters.words_degraded == N

    def test_spareless_retry_budget_exhausted(self, schedule):
        fabric = ResilientFabric(
            M,
            mask=faulty_mask(self.STUBBORN, 0),
            spare=None,
            schedule=schedule,
        )
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            fabric.submit(random_permutation(N, rng=0).to_list())
        assert excinfo.value.pending >= 1
        assert excinfo.value.retries == fabric.retry_budget

    def test_backoff_is_exponential(self, schedule):
        fabric = ResilientFabric(
            M,
            mask=faulty_mask(self.STUBBORN, 0),
            spare=None,
            schedule=schedule,
            backoff_base=2,
        )
        with pytest.raises(RetryBudgetExceededError):
            fabric.submit(random_permutation(N, rng=0).to_list())
        # 2<<0 + 2<<1 + 2<<2 + 2<<3 idle cycles across four retries.
        assert fabric.counters.backoff_cycles == 2 + 4 + 8 + 16

    def test_broken_spare_is_exhaustion(self, schedule):
        class BrokenSpare:
            def route(self, words):
                return list(words), None  # leaves words where they sit

        fabric = ResilientFabric(
            M,
            mask=faulty_mask(self.STUBBORN, 0),
            spare=BrokenSpare(),
            schedule=schedule,
        )
        with pytest.raises(QuarantineExhaustedError, match="misrouted"):
            fabric.submit(random_permutation(N, rng=0).to_list())

    def test_check_after_quarantine_raises(self, schedule):
        fabric = ResilientFabric(
            M, mask=faulty_mask(self.STUBBORN, 0), schedule=schedule
        )
        fabric.check()
        assert fabric.registry.is_quarantined
        with pytest.raises(QuarantineExhaustedError):
            fabric.check()


class TestStrictLocalization:
    def _thin_case(self, schedule):
        """A (fault, probe) pair whose single-probe evidence is
        ambiguous — exists at m = 3 (14 of 48 faults)."""
        tables = [p.controls for p in schedule.probes]
        for coordinate in enumerate_switch_coordinates(M):
            for value in (0, 1):
                pipeline = PipelinedBNBFabric(
                    M, mask=faulty_mask(coordinate, value)
                )
                observations = schedule.run(
                    lambda words: pipeline.route_batch(words)
                )
                first_dirty = next(
                    i for i, o in enumerate(observations) if not o.clean
                )
                thin = localize(
                    M,
                    [observations[first_dirty]],
                    tables=[tables[first_dirty]],
                )
                if not thin.is_unique:
                    return coordinate, value, first_dirty
        pytest.fail("no ambiguous single-probe fault found at m=3")

    def test_strict_raises_and_lenient_quarantines_class(self, schedule):
        coordinate, value, probe_index = self._thin_case(schedule)
        thin_schedule = BISTSchedule(
            m=M, probes=[schedule.probes[probe_index]]
        )

        strict = ResilientFabric(
            M,
            mask=faulty_mask(coordinate, value),
            schedule=thin_schedule,
            strict_localization=True,
        )
        with pytest.raises(LocalizationAmbiguousError):
            strict.check()

        lenient = ResilientFabric(
            M,
            mask=faulty_mask(coordinate, value),
            schedule=thin_schedule,
        )
        lenient.check()
        assert lenient.registry.is_quarantined
        assert (coordinate, value) in lenient.registry.confirmed_faults
        assert len(lenient.registry.confirmed_faults) > 1


class TestRegistry:
    def test_illegal_transition_rejected(self):
        registry = FaultRegistry()
        with pytest.raises(FaultServiceError, match="illegal"):
            registry.transition(HealthState.QUARANTINED)

    def test_self_transition_is_noop(self):
        registry = FaultRegistry()
        registry.transition(HealthState.HEALTHY)
        assert registry.state is HealthState.HEALTHY

    def test_full_lifecycle(self):
        registry = FaultRegistry()
        for state in (
            HealthState.SUSPECT,
            HealthState.CONFIRMED,
            HealthState.QUARANTINED,
        ):
            registry.transition(state)
        assert registry.is_quarantined

    def test_events_fan_out_to_listeners(self):
        registry = FaultRegistry()
        seen = []
        registry.add_listener(seen.append)
        event = registry.emit("detection", "b0", "2 of 8 words misrouted")
        assert seen == [event]
        assert event.sequence == 0
        assert "detection" in str(event)

    def test_event_log_is_bounded(self):
        """A serving plane logs one ``delivery`` per frame: the log keeps
        the last EVENT_LOG_LIMIT events, numbered from the first ever
        emitted, while listeners still see every one."""
        registry = FaultRegistry()
        seen = []
        registry.add_listener(seen.append)
        for index in range(EVENT_LOG_LIMIT + 5):
            registry.emit("delivery", index, "8 words clean")
        assert len(seen) == EVENT_LOG_LIMIT + 5
        assert len(registry.events) == EVENT_LOG_LIMIT
        assert [e.sequence for e in registry.events] == list(
            range(5, EVENT_LOG_LIMIT + 5)
        )
        assert registry.event_kinds() == {"delivery": EVENT_LOG_LIMIT}

    def test_counters_as_dict(self):
        counters = ServiceCounters(words_clean=8, words_failover=16)
        assert counters.words_delivered == 24
        assert counters.as_dict()["words_clean"] == 8


class TestHealthMonitor:
    def test_monitor_tracks_service_events(self, schedule):
        fabric = ResilientFabric(
            M,
            mask=faulty_mask(SwitchCoordinate(0, 0, 1, 1, 1), 0),
            schedule=schedule,
        )
        monitor = HealthMonitor(fabric.registry)
        fabric.submit(random_permutation(N, rng=0).to_list(), tag="b")
        assert monitor.count_of("detection") == 1
        assert monitor.count_of("quarantine") == 1
        assert monitor.last().kind == "delivery"
        assert monitor.event_count == len(fabric.events)
        assert "quarantine" in monitor.render()

    def test_empty_monitor_renders(self):
        assert HealthMonitor().render() == "(no fault events)"


class TestValidation:
    def test_bad_m(self):
        with pytest.raises(ValueError):
            ResilientFabric(0)

    def test_bad_retry_budget(self, schedule):
        with pytest.raises(ValueError):
            ResilientFabric(M, schedule=schedule, retry_budget=-1)

    def test_pipeline_size_mismatch(self, schedule):
        with pytest.raises(ValueError, match="fault mask"):
            ResilientFabric(M, mask=build_fault_mask(2), schedule=schedule)

    def test_schedule_size_mismatch(self):
        with pytest.raises(ValueError, match="schedule"):
            ResilientFabric(2, schedule=build_bist_schedule(3))
