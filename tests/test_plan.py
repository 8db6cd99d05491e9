"""The compiled routing plan: cached index tables behind the fast path."""

import numpy as np
import pytest

from repro.core import BNBNetwork, compiled_plan
from repro.core import plan as plan_module
from repro.core.pipeline_fast import route_frame_batch
from repro.core.plan import (
    DEAD_ADDRESS,
    TABLE_WIDTH_EXP,
    batch_stage_take_indices,
    bit_sorter_table,
    splitter_group_table,
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
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
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
        """Splitters wider than 16 lines form the stage's head (decided
        16 lines at a time); the rest of each stage is one bit-sorter
        table of min(16, 2**(m-i)) lines.  The plan shares the
        per-process tables."""
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


def _row_bits(rows, width=16):
    return ((np.asarray(rows)[:, None] >> np.arange(width)) & 1).astype(
        np.uint8
    )


def _bytes_of(bits):
    return np.packbits(bits, axis=1, bitorder="little")[:, 0]


class TestSplitterGroupTable:
    """The packed-row head: splitters wider than 16 lines, 16 at a time."""

    @pytest.mark.parametrize("flag", [0, 1])
    def test_every_entry_equals_a_32_line_splitter(self, flag):
        """All 65,536 rows per flag.  A 32-line splitter whose halves
        have equal parity sends flag 0 to lines 0-15 and flag 1 to lines
        16-31, so the row sits there beside a random partner of its
        parity; its controls and the bits the unshuffle carries from
        its upper and lower outputs must be the table entry's bytes."""
        rows = np.arange(1 << 16)
        row_bits = _row_bits(rows)
        rng = np.random.default_rng(flag)
        partner = _row_bits(rng.integers(0, 1 << 16, 1 << 16))
        partner[:, 0] ^= (partner.sum(axis=1) ^ row_bits.sum(axis=1)) & 1
        halves = [row_bits, partner] if flag == 0 else [partner, row_bits]
        bits = np.concatenate(halves, axis=1)
        controls = vector_splitter_controls(bits)
        switched = np.take_along_axis(
            bits, np.arange(32) ^ np.repeat(controls, 2, axis=1), axis=1
        )
        # The 32-line unshuffle: upper outputs of lines 0-15 land on
        # 0-7, of lines 16-31 on 8-15; lower outputs on 16-23, 24-31.
        unshuffled = switched[:, compiled_plan(5).stages[0].inner_gathers[0]]
        own = slice(0, 8) if flag == 0 else slice(8, 16)
        entries = splitter_group_table()[(flag << 16) | rows]
        assert np.array_equal(entries[:, 0], _bytes_of(controls[:, own]))
        assert np.array_equal(entries[:, 1], _bytes_of(unshuffled[:, own]))
        lower = slice(own.start + 16, own.stop + 16)
        assert np.array_equal(entries[:, 2], _bytes_of(unshuffled[:, lower]))

    def test_a_whole_16_line_splitter_is_the_parity_flag_row(self):
        """The root echoes its own parity: flag = parity(r) is sp(4)."""
        rows = np.arange(1 << 16)
        bits = _row_bits(rows)
        parity = bits.sum(axis=1).astype(np.int64) & 1
        entries = splitter_group_table()[(parity << 16) | rows]
        controls = vector_splitter_controls(bits)
        assert np.array_equal(entries[:, 0], _bytes_of(controls))

    def test_flagged_controls_match_the_object_arbiter(self):
        """``vector_splitter_controls(bits, flag)`` is the subtree of a
        wider splitter: the object model's 32-line splitter, half by
        half, on random balanced inputs."""
        rng = np.random.default_rng(3)
        splitter = Splitter(5, check_balance=False)
        bits = rng.integers(0, 2, size=(40, 32))
        for row in bits:
            whole = splitter.controls(row.tolist())
            halves = row.reshape(2, 16)
            parity = halves.sum() & 1
            # The root sends (0, 1) at even parity and echoes 1 at odd.
            flags = np.array([parity, 1])
            controls = vector_splitter_controls(halves, flags)
            assert controls.ravel().tolist() == whole

    @pytest.mark.parametrize("count", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_subtree_flags_equal_the_tree_above_them(self, count):
        """Eight parities per lookup, recursively: the flags equal the
        arbiter tree's own flag-down pass over the subtree parities."""
        parities = np.random.default_rng(count).integers(
            0, 2, size=(50, count)
        ).astype(np.uint8)
        flags = plan_module._subtree_flags(parities)
        assert np.array_equal(flags, plan_module._arbiter_flags(parities))

    def test_head_tables_are_small_frozen_and_shared(self):
        tables = [
            splitter_group_table(),
            plan_module._row_parity(),
            plan_module._subtree_flag_table(),
            plan_module._root_flag_table(),
        ]
        assert sum(table.nbytes for table in tables) <= 512 * 1024
        for table in tables:
            assert not table.flags.writeable
        assert splitter_group_table() is tables[0]

    @pytest.mark.parametrize("m", range(5, 13))
    def test_healthy_routing_runs_no_arbiter_pass(self, m, monkeypatch):
        """Once the plan is compiled, a healthy batch never calls the
        per-line arbiter: every splitter is a table row."""
        compiled_plan(m)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-line arbiter pass on the healthy path")

        monkeypatch.setattr(plan_module, "vector_splitter_controls", forbidden)
        monkeypatch.setattr(plan_module, "_arbiter_take", forbidden)
        n = 1 << m
        rng = np.random.default_rng(m)
        for batch in (1, 7):
            addresses = np.stack([rng.permutation(n) for _ in range(batch)])
            sources = route_frame_batch(m, addresses)
            assert np.array_equal(
                np.take_along_axis(addresses, sources, axis=1),
                np.broadcast_to(np.arange(n), addresses.shape),
            )


def _stage_rows(kind, m, batch, rng):
    n = 1 << m
    if kind == "junk":
        return rng.integers(-3 * n, 3 * n, size=(batch, n))
    rows = np.argsort(rng.random((batch, n)), axis=1)  # permutations
    if kind == "random":
        return rows
    rows[rng.random((batch, n)) < 0.3] = DEAD_ADDRESS
    if batch:
        rows[0] = DEAD_ADDRESS
    return rows


class TestHeadEqualsArbiter:
    @pytest.mark.parametrize("batch", [0, 1, 7, 32])
    @pytest.mark.parametrize("m", range(5, 13))
    def test_every_stage_equals_the_arbiter_stage(self, m, batch):
        """Per main stage, the packed-row head and table tail equal the
        arbiter-only stage on random, junk and DEAD_ADDRESS rows."""
        plan = compiled_plan(m)
        rng = np.random.default_rng(100 * m + batch)
        for kind in ("random", "junk", "dead"):
            addresses = _stage_rows(kind, m, batch, rng)
            for stage in plan.stages:
                take = batch_stage_take_indices(plan, stage, addresses)
                assert take.shape == addresses.shape
                assert np.array_equal(
                    take, tree_stage_take_indices(plan, stage, addresses)
                ), (kind, stage.stage)
