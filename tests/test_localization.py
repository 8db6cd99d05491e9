"""Syndrome decoding: tracing misroutes back to the faulty switch."""

import pytest

from repro.core import BNBNetwork, Word
from repro.core.pipeline import PipelinedBNBFabric
from repro.exceptions import FaultError, LocalizationAmbiguousError
from repro.faults import (
    ProbeObservation,
    SwitchCoordinate,
    build_bist_schedule,
    candidate_switches,
    enumerate_switch_coordinates,
    extract_controls,
    fault_mask_for,
    inject_stuck_control,
    localize,
    replay_controls,
    route_with_stuck_switch,
    trace_switch_paths,
)
from repro.permutations import random_permutation


@pytest.fixture(scope="module")
def schedule3():
    return build_bist_schedule(3)


def faulty_observations(schedule, coordinate, value):
    """Run the schedule against an adaptively-faulty fabric."""
    pipeline = PipelinedBNBFabric(
        schedule.m, mask=fault_mask_for(schedule.m, [(coordinate, value)])
    )
    return schedule.run(lambda words: pipeline.route_batch(words))


class TestProbeObservation:
    def test_clean_has_empty_syndrome(self):
        observation = ProbeObservation(
            addresses=(3, 2, 1, 0), arrived=(0, 1, 2, 3)
        )
        assert observation.clean
        assert observation.syndrome == ()

    def test_syndrome_lists_misrouted_lines(self):
        observation = ProbeObservation(
            addresses=(0, 1, 2, 3), arrived=(1, 0, 2, 3)
        )
        assert observation.syndrome == (0, 1)
        assert sorted(observation.displaced_addresses()) == [0, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(FaultError):
            ProbeObservation(addresses=(0, 1), arrived=(0, 1, 2))


class TestTraceSwitchPaths:
    def test_every_line_crosses_every_stage(self):
        """Each input line traverses exactly one switch per (main
        stage, nested stage) pair it passes through."""
        m = 3
        addresses = random_permutation(1 << m, rng=0).to_list()
        words = [Word(address=a, payload=j) for j, a in enumerate(addresses)]
        _out, record = BNBNetwork(m).route(words, record=True)
        paths = trace_switch_paths(m, extract_controls(record))
        assert len(paths) == 1 << m
        for path in paths:
            # m main stages; main stage i contributes m - i nested stages.
            assert len(path) == sum(m - i for i in range(m))
            stages = {
                (c.main_stage, c.nested_stage) for c in path
            }
            assert len(stages) == len(path)  # one switch per stage slice

    def test_missing_splitter_raises(self):
        with pytest.raises(FaultError, match="missing splitter"):
            trace_switch_paths(2, {})


class TestFrozenLocalization:
    def test_candidate_switches_contains_fault(self, schedule3):
        """Under frozen replay the displaced pair traverses the fault,
        so path narrowing always keeps the true coordinate."""
        m = 3
        for coordinate in enumerate_switch_coordinates(m):
            for value in (0, 1):
                for probe in schedule3.probes:
                    words = probe.words()
                    table = probe.controls
                    outputs = replay_controls(
                        m, words, inject_stuck_control(table, coordinate, value)
                    )
                    observation = ProbeObservation(
                        addresses=probe.addresses,
                        arrived=tuple(w.address for w in outputs),
                    )
                    if observation.clean:
                        continue
                    assert coordinate in candidate_switches(
                        m, observation, table
                    )

    def test_clean_observation_keeps_all_switches(self, schedule3):
        probe = schedule3.probes[0]
        observation = ProbeObservation(
            addresses=probe.addresses,
            arrived=tuple(range(len(probe.addresses))),
        )
        assert candidate_switches(3, observation, probe.controls) == set(
            enumerate_switch_coordinates(3)
        )

    def test_frozen_localize_finds_fault(self, schedule3):
        m = 3
        coordinate = enumerate_switch_coordinates(m)[-1]
        value = 0
        observations = []
        for probe in schedule3.probes:
            outputs = replay_controls(
                m,
                probe.words(),
                inject_stuck_control(probe.controls, coordinate, value),
            )
            observations.append(
                ProbeObservation(
                    addresses=probe.addresses,
                    arrived=tuple(w.address for w in outputs),
                )
            )
        result = localize(
            m,
            observations,
            model="frozen",
            tables=[p.controls for p in schedule3.probes],
        )
        assert (coordinate, value) in result.candidates


class TestAdaptiveLocalization:
    def test_unique_for_every_fault_m3(self, schedule3):
        """The headline guarantee: against the full schedule every
        single stuck-at fault at m = 3 localizes to a singleton."""
        tables = [p.controls for p in schedule3.probes]
        for coordinate in enumerate_switch_coordinates(3):
            for value in (0, 1):
                observations = faulty_observations(
                    schedule3, coordinate, value
                )
                result = localize(3, observations, tables=tables)
                assert result.is_unique, result.describe()
                assert result.candidates == [(coordinate, value)]
                assert result.coordinates == [coordinate]

    def test_unique_for_every_fault_m2(self):
        schedule = build_bist_schedule(2)
        tables = [p.controls for p in schedule.probes]
        for coordinate in enumerate_switch_coordinates(2):
            for value in (0, 1):
                observations = [
                    ProbeObservation(
                        addresses=probe.addresses,
                        arrived=tuple(
                            w.address
                            for w in route_with_stuck_switch(
                                2,
                                probe.words(),
                                fault_mask_for(2, [(coordinate, value)]),
                            )
                        ),
                    )
                    for probe in schedule.probes
                ]
                result = localize(2, observations, tables=tables)
                assert result.candidates == [(coordinate, value)]

    def test_single_probe_can_be_ambiguous(self, schedule3):
        """Thin evidence leaves equivalence classes; require_unique
        converts them into LocalizationAmbiguousError."""
        tables = [p.controls for p in schedule3.probes]
        ambiguous = 0
        for coordinate in enumerate_switch_coordinates(3):
            for value in (0, 1):
                observations = faulty_observations(
                    schedule3, coordinate, value
                )
                first_dirty = next(
                    i for i, o in enumerate(observations) if not o.clean
                )
                result = localize(
                    3,
                    [observations[first_dirty]],
                    tables=[tables[first_dirty]],
                )
                assert (coordinate, value) in result.candidates
                if not result.is_unique:
                    ambiguous += 1
                    with pytest.raises(LocalizationAmbiguousError):
                        result.require_unique()
        assert ambiguous > 0  # m=3 has 2-element classes on one probe

    def test_all_clean_yields_no_candidates(self, schedule3):
        healthy = PipelinedBNBFabric(3)
        observations = schedule3.run(
            lambda words: healthy.route_batch(words)
        )
        result = localize(
            3, observations, tables=[p.controls for p in schedule3.probes]
        )
        assert result.candidates == []
        assert not result.is_unique
        with pytest.raises(LocalizationAmbiguousError):
            result.require_unique()
        assert "no single stuck-at fault" in result.describe()


class TestLocalizeValidation:
    def test_unknown_model(self):
        with pytest.raises(FaultError, match="model"):
            localize(2, [ProbeObservation((0, 1, 2, 3), (0, 1, 2, 3))],
                     model="quantum")

    def test_no_observations(self):
        with pytest.raises(FaultError, match="observation"):
            localize(2, [])

    def test_table_count_mismatch(self):
        with pytest.raises(FaultError, match="tables"):
            localize(
                2,
                [ProbeObservation((0, 1, 2, 3), (0, 1, 2, 3))],
                tables=[],
            )

    def test_describe_mentions_uniqueness(self, schedule3):
        observations = faulty_observations(
            schedule3, SwitchCoordinate(2, 0, 0, 0, 0), 1
        )
        result = localize(
            3, observations, tables=[p.controls for p in schedule3.probes]
        )
        assert "unique" in result.describe()
