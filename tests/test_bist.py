"""BIST probe schedules: coverage, determinism, detection guarantee."""

import pytest

from repro.core import BNBNetwork
from repro.exceptions import FaultError
from repro.faults import (
    BISTSchedule,
    build_bist_schedule,
    candidate_probe_stream,
    enumerate_switch_coordinates,
)


@pytest.fixture(scope="module", params=[2, 3])
def schedule(request):
    return build_bist_schedule(request.param)


class TestCandidateStream:
    def test_starts_with_identity_and_reversal(self):
        stream = candidate_probe_stream(3)
        assert next(stream) == list(range(8))
        assert next(stream) == list(reversed(range(8)))

    def test_deterministic(self):
        a = candidate_probe_stream(3)
        b = candidate_probe_stream(3)
        for _ in range(10):
            assert next(a) == next(b)

    def test_yields_permutations(self):
        stream = candidate_probe_stream(2)
        for _ in range(10):
            assert sorted(next(stream)) == list(range(4))


class TestScheduleConstruction:
    def test_probes_are_permutations(self, schedule):
        for probe in schedule.probes:
            assert sorted(probe.addresses) == list(range(schedule.n))

    def test_deterministic_build(self, schedule):
        again = build_bist_schedule(schedule.m)
        assert [p.addresses for p in again.probes] == [
            p.addresses for p in schedule.probes
        ]

    def test_probe_count_small(self, schedule):
        """A handful of probes certifies all O(N log^2 N) switches —
        far fewer than the 2 * switch_count faults they cover."""
        faults = 2 * len(enumerate_switch_coordinates(schedule.m))
        assert schedule.probe_count < faults // 2

    def test_controls_match_healthy_route(self, schedule):
        """Cached control tables agree with a fresh healthy route."""
        from repro.core import Word
        from repro.faults import extract_controls

        probe = schedule.probes[0]
        words = [
            Word(address=a, payload=j) for j, a in enumerate(probe.addresses)
        ]
        _outputs, record = BNBNetwork(schedule.m).route(words, record=True)
        assert extract_controls(record) == probe.controls

    def test_rejects_bad_m(self):
        with pytest.raises(FaultError):
            build_bist_schedule(0)

    def test_exhaustion_raises(self):
        """An impossible candidate budget fails loudly, not silently."""
        with pytest.raises(FaultError, match="coverage incomplete"):
            build_bist_schedule(3, max_candidates=1)


class TestCoverage:
    def test_both_values_of_every_switch(self, schedule):
        assert schedule.uncovered() == []

    def test_coverage_maps_every_hypothesis(self, schedule):
        coverage = schedule.coverage()
        coordinates = enumerate_switch_coordinates(schedule.m)
        assert len(coverage) == 2 * len(coordinates)
        assert all(hits for hits in coverage.values())

    def test_skipping_detection_phase_still_covers(self):
        schedule = build_bist_schedule(3, ensure_detection=False)
        assert schedule.uncovered() == []


class TestDetectionGuarantee:
    def test_every_fault_detected(self, schedule):
        """ensure_detection=True means every single stuck-at fault has
        a probe with a visible adaptive syndrome."""
        for coordinate in enumerate_switch_coordinates(schedule.m):
            for value in (0, 1):
                assert schedule.detects(coordinate, value) is not None

    def test_healthy_fabric_runs_clean(self, schedule):
        observations = schedule.run(
            lambda words: BNBNetwork(schedule.m).route(words)[0]
        )
        assert all(observation.clean for observation in observations)

    def test_run_checks_output_width(self, schedule):
        with pytest.raises(FaultError, match="outputs"):
            schedule.run(lambda words: words[:-1])


def test_manual_schedule_reports_uncovered():
    """A hand-built single-probe schedule knows what it misses."""
    full = build_bist_schedule(2, ensure_detection=False)
    thin = BISTSchedule(m=2, probes=full.probes[:1])
    assert thin.uncovered()  # one probe cannot drive both values anywhere


class TestRelaxedCoverage:
    """``require_full_coverage=False``: inert pairs at m >= 5."""

    def test_strict_build_still_raises_at_m5(self):
        with pytest.raises(FaultError, match="coverage incomplete"):
            build_bist_schedule(5, ensure_detection=False, max_candidates=64)

    def test_shared_schedule_refuses_m5_before_searching(self):
        from repro.faults import shared_bist_schedule

        with pytest.raises(FaultError, match="only up to N = 16"):
            shared_bist_schedule(5)

    def test_small_m_builds_have_no_inert_pairs(self):
        for m in (2, 3):
            assert build_bist_schedule(m, ensure_detection=False).inert == ()

    @pytest.mark.slow
    def test_m5_inert_pairs_are_the_boundary_switches(self):
        """The pairs the stream cannot activate are exactly the
        control-invariant boundary switches: the first box of a final
        inner stage always steers 0, the last always 1."""
        schedule = build_bist_schedule(
            5,
            ensure_detection=False,
            require_full_coverage=False,
            max_candidates=400,
        )
        assert schedule.uncovered() == sorted(schedule.inert)
        for coordinate, value in schedule.inert:
            width_exp = 5 - coordinate.main_stage - coordinate.nested_stage
            assert width_exp == 1  # always a width-2 (final) inner stage
            last_box = (1 << coordinate.nested_stage) - 1
            assert (coordinate.box, value) in ((0, 0), (last_box, 1))

    @pytest.mark.slow
    def test_inert_faults_never_displace_traffic(self):
        """An inert stuck fault is benign: the fabric routes every
        seeded permutation perfectly with the fault installed."""
        from repro.permutations import random_permutation

        schedule = build_bist_schedule(
            5,
            ensure_detection=False,
            require_full_coverage=False,
            max_candidates=400,
        )
        assert schedule.inert
        from repro.core import Word
        from repro.faults import fault_mask_for, route_with_stuck_switch

        for coordinate, value in schedule.inert:
            mask = fault_mask_for(5, [(coordinate, value)])
            for seed in range(5):
                pi = random_permutation(32, rng=seed)
                words = [
                    Word(address=pi(j), payload=j) for j in range(32)
                ]
                outputs = route_with_stuck_switch(5, words, mask)
                assert [w.address for w in outputs] == list(range(32))
