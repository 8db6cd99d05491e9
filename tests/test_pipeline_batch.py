"""The frame-axis batch kernel: word-for-word parity with every oracle.

``route_frame_batch`` must agree row for row with its own one-row
batches (the lone-frame path), with the arbiter-only stage kernel it
replaces on the stage-table tails, *and* with the reference object
pipeline — healthy and faulty alike — because it is the kernel the
gateway trusts for lone frames and whole windows of live frames alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import compiled_backend
from repro.core import Word
from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import route_frame_batch
from repro.core.plan import (
    DEAD_ADDRESS,
    batch_stage_take_indices,
    build_fault_mask,
    compiled_plan,
    tree_stage_take_indices,
)
from repro.permutations import random_permutation


def _frames(m, batch, seed=0):
    rng = np.random.default_rng(seed)
    n = 1 << m
    return np.stack(
        [rng.permutation(n) for _ in range(batch)]
    ).astype(np.int64)


def _lone(m, row, mask=None):
    """One frame on the lone-frame path: the backend's ``route_frame``."""
    return compiled_backend("bnb", m).route_frame(row, mask=mask)


def _tree_route(m, addresses, mask=None):
    """Every stage wholly on the arbiter, no stage table: the reference."""
    plan = compiled_plan(m)
    current = addresses
    sources = np.broadcast_to(plan.identity, addresses.shape)
    for stage in plan.stages:
        if mask is not None and stage.stage in mask.dead_links:
            current = np.where(
                mask.dead_links[stage.stage], DEAD_ADDRESS, current
            )
        take = tree_stage_take_indices(plan, stage, current, mask=mask)
        current = np.take_along_axis(current, take, axis=1)
        sources = np.take_along_axis(sources, take, axis=1)
    return sources


class TestHealthyParity:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 8])
    def test_rowwise_parity_with_single_frame_kernel(self, m):
        addresses = _frames(m, batch=13, seed=m)
        batched = route_frame_batch(m, addresses)
        assert np.array_equal(batched, _tree_route(m, addresses))
        for row in range(addresses.shape[0]):
            single = _lone(m, addresses[row])
            assert np.array_equal(batched[row], single), (m, row)

    def test_word_for_word_parity_with_object_pipeline_m6(self):
        """The acceptance-bar oracle: m=6 batch vs the object fabric.

        ``batched[b, line]`` claims the input line whose word reaches
        output ``line``; clocking the same permutations through the
        reference object pipeline must surface exactly those words, in
        exactly that order, on every frame of the batch.
        """
        m = 6
        addresses = _frames(m, batch=8, seed=42)
        batched = route_frame_batch(m, addresses)
        fabric = PipelinedBNBFabric(m)
        for b, row in enumerate(addresses):
            words = [
                Word(address=int(a), payload=(b, j))
                for j, a in enumerate(row)
            ]
            outputs = fabric.route_batch(words, tag=b)
            for line, word in enumerate(outputs):
                assert word.address == line  # delivered where addressed
                assert word.payload == (b, int(batched[b, line]))

    def test_single_row_batch_matches_single_frame(self):
        addresses = _frames(4, batch=1, seed=9)
        sources = _lone(4, addresses[0])
        assert np.array_equal(route_frame_batch(4, addresses)[0], sources)
        assert np.array_equal(addresses[0][sources], np.arange(16))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hypothesis_batch_parity(self, data):
        m = data.draw(st.integers(1, 5), label="m")
        n = 1 << m
        batch = data.draw(st.integers(1, 6), label="batch")
        rows = [
            data.draw(st.permutations(list(range(n))), label=f"frame{b}")
            for b in range(batch)
        ]
        addresses = np.asarray(rows, dtype=np.int64)
        batched = route_frame_batch(m, addresses)
        assert np.array_equal(batched, _tree_route(m, addresses))
        for row in range(batch):
            assert np.array_equal(batched[row], _lone(m, addresses[row]))


class TestFaultyParity:
    def test_stuck_and_dead_parity(self):
        m = 3
        mask = build_fault_mask(
            m,
            stuck=[((0, 0, 0, 0, 0), 1), ((1, 1, 1, 0, 0), 0)],
            dead_links=[(2, 5)],
        )
        addresses = _frames(m, batch=9, seed=5)
        batched = route_frame_batch(m, addresses, mask=mask)
        assert np.array_equal(batched, _tree_route(m, addresses, mask))
        for row in range(addresses.shape[0]):
            assert np.array_equal(
                batched[row], _lone(m, addresses[row], mask=mask)
            )

    def test_faulty_parity_m6(self):
        m = 6
        mask = build_fault_mask(
            m,
            stuck=[((2, 1, 2, 0, 1), 1)],
            dead_links=[(4, 17)],
        )
        addresses = _frames(m, batch=7, seed=6)
        batched = route_frame_batch(m, addresses, mask=mask)
        assert np.array_equal(batched, _tree_route(m, addresses, mask))
        for row in range(addresses.shape[0]):
            assert np.array_equal(
                batched[row], _lone(m, addresses[row], mask=mask)
            )


class TestStageKernel:
    def test_batch_stage_take_matches_single_stage_take(self):
        """Per stage, a batch equals its one-row batches and the
        arbiter-only stage: at m=4 every stage is a table tail, at m=6
        stages 0 and 1 cross from arbiter head to table tail."""
        for m in (4, 6):
            plan = compiled_plan(m)
            addresses = _frames(m, batch=6, seed=3)
            for stage in plan.stages:
                batched = batch_stage_take_indices(plan, stage, addresses)
                assert np.array_equal(
                    batched, tree_stage_take_indices(plan, stage, addresses)
                ), (m, stage.stage)
                for row in range(addresses.shape[0]):
                    single = batch_stage_take_indices(
                        plan, stage, addresses[row : row + 1]
                    )[0]
                    assert np.array_equal(batched[row], single), (
                        m,
                        stage.stage,
                    )


class TestValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            route_frame_batch(3, np.arange(8, dtype=np.int64))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            route_frame_batch(3, np.zeros((2, 7), dtype=np.int64))

    def test_input_rows_not_mutated(self):
        addresses = _frames(3, batch=4, seed=8)
        copy = addresses.copy()
        route_frame_batch(3, addresses)
        assert np.array_equal(addresses, copy)
