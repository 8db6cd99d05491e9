"""Adaptive fault model: masking, cascades and recovery."""

import pytest

from repro.core import BNBNetwork, Word, build_fault_mask
from repro.exceptions import FaultError
from repro.faults import SwitchCoordinate, fault_mask_for, misrouted_outputs
from repro.faults.adaptive import (
    detect_and_reroute,
    recovery_experiment,
    route_with_stuck_switch,
)
from repro.permutations import random_permutation


def words_for(m, seed):
    pi = random_permutation(1 << m, rng=seed)
    return pi, [Word(address=pi(j), payload=j) for j in range(1 << m)]


class TestAdaptiveRouting:
    def test_no_fault_equals_reference(self):
        """Under a mask with no faults nothing is forced, so the
        adaptive router must agree with BNBNetwork exactly."""
        m = 3
        pi, words = words_for(m, 1)
        outputs = route_with_stuck_switch(m, words, build_fault_mask(m))
        reference, _ = BNBNetwork(m).route(words)
        assert [w.address for w in outputs] == [w.address for w in reference]

    def test_early_faults_often_masked(self):
        """The architecture self-heals early faults: a stuck switch in
        the FIRST nested stage is corrected by later splitters of the
        same bit-sorter network re-deciding on live data.  Measure how
        often stage-(0,0,0) faults are masked."""
        m = 4
        masked = 0
        trials = 30
        coordinate = SwitchCoordinate(0, 0, 0, 0, 0)
        for seed in range(trials):
            _pi, words = words_for(m, seed)
            for value in (0, 1):
                outputs = route_with_stuck_switch(
                    m, words, fault_mask_for(m, [(coordinate, value)])
                )
                if not misrouted_outputs(outputs):
                    masked += 1
        assert masked > trials  # more than half of (trial, value) pairs

    def test_final_stage_faults_always_bite_when_activated(self):
        """A stuck sp(1) in the LAST main stage has nobody downstream
        to fix it: whenever the stuck value disagrees with the needed
        setting, exactly two outputs misroute."""
        m = 3
        coordinate = SwitchCoordinate(
            main_stage=2, nested=0, nested_stage=0, box=0, switch=0
        )
        activated_and_bad = 0
        activated = 0
        for seed in range(30):
            _pi, words = words_for(m, seed)
            healthy = route_with_stuck_switch(m, words, build_fault_mask(m))
            for value in (0, 1):
                outputs = route_with_stuck_switch(
                    m, words, fault_mask_for(m, [(coordinate, value)])
                )
                bad = misrouted_outputs(outputs)
                if bad:
                    activated_and_bad += 1
                    assert len(bad) == 2
                    activated += 1
        assert activated_and_bad > 0

    def test_cascades_differ_from_frozen_model(self):
        """The frozen-replay model always displaces an even number of
        words (one swapped pair follows two fixed paths).  Adaptively,
        a displaced bit can unbalance a downstream block and misroute an
        ODD number of words — a cascade the replay model cannot show.
        Pin both facts: odd counts occur, and the blast stays bounded."""
        m = 3
        counts = set()
        for seed in range(10):
            _pi, words = words_for(m, seed)
            for stage, nested, nstage in ((0, 0, 1), (1, 0, 0), (1, 1, 1)):
                coordinate = SwitchCoordinate(stage, nested, nstage, 0, 0)
                outputs = route_with_stuck_switch(
                    m, words, fault_mask_for(m, [(coordinate, 1)])
                )
                bad = misrouted_outputs(outputs)
                counts.add(len(bad))
                # Cascades can spread widely but never corrupt every
                # output (at minimum the pair that lands correctly by
                # luck of the stuck value).
                assert len(bad) < (1 << m)
        assert any(count % 2 == 1 for count in counts), counts
        assert max(counts) > 2  # cascades exceed the frozen model's pair

    def test_value_validation(self):
        m = 2
        _pi, words = words_for(m, 0)
        with pytest.raises(FaultError):
            fault_mask_for(m, [(SwitchCoordinate(0, 0, 0, 0, 0), 2)])
        with pytest.raises(ValueError):
            route_with_stuck_switch(m, words[:2], build_fault_mask(m))
        with pytest.raises(ValueError):
            route_with_stuck_switch(m, words, build_fault_mask(m + 1))


class TestRecovery:
    def test_benign_fault_one_pass(self):
        m = 3
        pi = random_permutation(8, rng=3)
        # No fault: recovery must complete in a single pass.
        outcome = detect_and_reroute(m, pi.to_list(), build_fault_mask(m))
        assert outcome.recovered
        assert outcome.passes == 1
        assert outcome.misrouted_per_pass == [0]

    def test_delivered_words_are_correct(self):
        m = 3
        pi = random_permutation(8, rng=9)
        coordinate = SwitchCoordinate(2, 1, 0, 0, 0)
        outcome = detect_and_reroute(
            m, pi.to_list(), fault_mask_for(m, [(coordinate, 1)])
        )
        if outcome.recovered:
            for line, word in enumerate(outcome.outputs):
                assert word is not None
                assert word.address == line

    def test_experiment_statistics(self):
        stats = recovery_experiment(3, trials=30, seed=5)
        assert 0.7 < stats["recovery_rate"] <= 1.0
        assert stats["mean_passes"] < 3.0

    def test_persistent_fault_can_exhaust_passes(self):
        """Some (fault, workload) pairs never recover: the repair
        traffic keeps exercising the stuck switch.  The loop must give
        up cleanly rather than spin."""
        m = 3
        found_failure = False
        for seed in range(60):
            pi = random_permutation(8, rng=100 + seed)
            for nested in range(4):
                coordinate = SwitchCoordinate(2, nested, 0, 0, 0)
                for value in (0, 1):
                    outcome = detect_and_reroute(
                        m,
                        pi.to_list(),
                        fault_mask_for(m, [(coordinate, value)]),
                        max_passes=3,
                    )
                    if not outcome.recovered:
                        found_failure = True
                        assert outcome.passes == 3
                        assert len(outcome.misrouted_per_pass) == 3
                        return
        assert found_failure
