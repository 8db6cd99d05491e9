"""The compiled routing plan: cached index tables behind the fast path."""

import numpy as np
import pytest

from repro.core import BNBNetwork, compiled_plan
from repro.core.plan import (
    TABLE_WIDTH_EXP,
    batch_stage_take_indices,
    bit_sorter_table,
    tree_stage_take_indices,
    vector_splitter_controls,
)
from repro.core.splitter import Splitter
from repro.permutations import random_permutation


class TestPlanCache:
    def test_same_object_per_m(self):
        """The plan is built once per size and shared thereafter."""
        assert compiled_plan(4) is compiled_plan(4)
        assert compiled_plan(4) is not compiled_plan(5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_shape_matches_paper_recursion(self, m):
        """Stage i has 2^i nested networks of size 2^(m-i), each
        contributing m-i inner passes (Section III structure)."""
        plan = compiled_plan(m)
        assert plan.m == m and plan.n == 1 << m
        assert len(plan.stages) == m
        for i, stage in enumerate(plan.stages):
            assert stage.stage == i
            assert stage.nested_count == 1 << i
            assert stage.block_exp == m - i
            assert len(stage.inner_widths) == m - i
            assert stage.inner_widths[0] == 1 << (m - i)
            # Widths halve pass by pass down the nested recursion.
            for a, b in zip(stage.inner_widths, stage.inner_widths[1:]):
                assert b == a // 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_gathers_are_permutations(self, m):
        plan = compiled_plan(m)
        identity = np.arange(plan.n)
        for stage in plan.stages:
            for gather in stage.inner_gathers:
                if gather is not None:
                    assert np.array_equal(np.sort(gather), identity)
            if stage.stage_gather is not None:
                assert np.array_equal(np.sort(stage.stage_gather), identity)

    def test_tables_are_immutable(self):
        plan = compiled_plan(3)
        with pytest.raises(ValueError):
            plan.identity[0] = 99


class TestVectorKernels:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_splitter_controls_match_object_model(self, p):
        rng = np.random.default_rng(p)
        splitter = Splitter(p, check_balance=False)
        blocks = rng.integers(0, 2, size=(25, 1 << p))
        controls = vector_splitter_controls(blocks)
        for row in range(blocks.shape[0]):
            assert (
                controls[row].tolist()
                == splitter.controls(blocks[row].tolist())
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_stage_take_composition_equals_route(self, m):
        """Composing per-stage take indices reproduces the reference
        route for every stage prefix, not just end to end."""
        n = 1 << m
        net = BNBNetwork(m)
        plan = compiled_plan(m)
        for seed in range(5):
            pi = np.array(random_permutation(n, rng=seed).to_list())
            lines = pi
            for stage in plan.stages:
                take = batch_stage_take_indices(plan, stage, lines[None])
                lines = lines[take[0]]
            assert np.array_equal(lines, np.arange(n))
            assert np.array_equal(net.route_fast(pi), np.arange(n))


class TestStageTables:
    @pytest.mark.parametrize("width_exp", [1, 2, 3, 4])
    def test_every_row_equals_the_arbiter(self, width_exp):
        """Row r of the 2**p-line table is the arbiter kernel's line
        permutation for the bit pattern r (line x carries bit x of r):
        all 65,536 rows at 16 lines."""
        width = 1 << width_exp
        table = bit_sorter_table(width_exp)
        assert table.shape == (1 << width, width)
        assert table.dtype == np.uint8
        # One nested network spans the whole first stage of this plan.
        plan = compiled_plan(width_exp)
        stage = plan.stages[0]
        lines = np.arange(width)
        for start in range(0, 1 << width, 8192):
            rows = np.arange(start, min(start + 8192, 1 << width))
            bits = (rows[:, None] >> lines) & 1
            take = tree_stage_take_indices(plan, stage, bits << stage.shift)
            if stage.stage_gather is not None:
                # The table stops before the main-stage unshuffle.
                take = take[:, np.argsort(stage.stage_gather)]
            assert np.array_equal(table[rows], take), start

    @pytest.mark.parametrize("width_exp", [1, 2, 3, 4])
    def test_tables_are_read_only_and_shared(self, width_exp):
        table = bit_sorter_table(width_exp)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert bit_sorter_table(width_exp) is table

    def test_table_width_is_bounded(self):
        with pytest.raises(ValueError):
            bit_sorter_table(TABLE_WIDTH_EXP + 1)
        with pytest.raises(ValueError):
            bit_sorter_table(0)

    @pytest.mark.parametrize("m", [1, 3, 4, 6, 9])
    def test_stages_split_into_arbiter_head_and_table_tail(self, m):
        """Splitters wider than 16 lines stay on the arbiter; the rest
        of each stage is one bit-sorter table of min(16, 2**(m-i))
        lines.  The plan shares the per-process tables."""
        plan = compiled_plan(m)
        for stage in plan.stages:
            tail_exp = min(stage.block_exp, TABLE_WIDTH_EXP)
            assert stage.tail_width == 1 << tail_exp
            assert stage.head_depth == stage.block_exp - tail_exp
            assert all(
                width > 16 for width in stage.inner_widths[: stage.head_depth]
            )
            assert stage.tail_table is bit_sorter_table(tail_exp)
            assert not stage.tail_bases.flags.writeable
