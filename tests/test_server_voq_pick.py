"""The memo-table tenant pick against the frame-by-frame loop it replaced.

:meth:`~repro.server.VirtualOutputQueues._weighted_picks` answers from a
memo of per-destination class sequences and falls back to
:meth:`~repro.server.VirtualOutputQueues._weighted_picks_loop`, which
stays as the reference.  A hypothesis sweep drives two queue sets
through the same admissions, pops, requeues and tenant registrations —
one picking by table, its twin always by the loop — and compares every
pick, ring slot, head, length, credit, served count and rescue count.
The unit tests pin when the table runs and when the loop must.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.voq as voq_module
from repro.server import VirtualOutputQueues


def _hot_mix(rng, n, count):
    """70% of the words to the first eighth of the outputs."""
    hot = rng.random(count) < 0.7
    return np.where(
        hot,
        rng.integers(0, max(1, n // 8), size=count),
        rng.integers(0, n, size=count),
    ).astype(np.int64)


def _recording(voqs, pick):
    """Route *voqs*' pops through *pick*, recording what it returns."""
    calls = []

    def recorded(frames, frame_of, dests):
        tids, slots = pick(frames, frame_of, dests)
        calls.append((tids.copy(), slots.copy()))
        return tids, slots

    voqs._weighted_picks = recorded
    return calls


def _state(voqs):
    return {
        "heads": voqs._head,
        "lengths": voqs._len,
        "credits": voqs._credit,
        "depths": voqs._depth,
        "served": voqs._served,
        "rescues": voqs._rescues,
    }


def _assert_same_state(table, loop):
    for name, array in _state(table).items():
        assert np.array_equal(array, _state(loop)[name]), name
    assert table.total == loop.total
    assert table.tenant_snapshot() == loop.tenant_snapshot()


def _twins(n, capacity, weights, starvation):
    tenants = {f"t{tid}": weight for tid, weight in enumerate(weights)}
    table = VirtualOutputQueues(n, capacity, tenants, starvation)
    loop = VirtualOutputQueues(n, capacity, tenants, starvation)
    table_calls = _recording(table, table._weighted_picks)
    loop_calls = _recording(loop, loop._loop_picks)
    return table, loop, table_calls, loop_calls


class TestTableEqualsLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 4),
        capacity=st.integers(1, 40),
        weights=st.lists(st.integers(1, 100), min_size=2, max_size=4),
        starvation=st.one_of(st.integers(1, 6), st.just(1024)),
        data=st.data(),
    )
    def test_every_pick_and_state_matches(
        self, m, capacity, weights, starvation, data
    ):
        n = 1 << m
        table, loop, table_calls, loop_calls = _twins(
            n, capacity, weights, starvation
        )
        names = [f"t{tid}" for tid in range(len(weights))]
        cycle = 0
        last = None
        for _step in range(data.draw(st.integers(4, 30))):
            op = data.draw(
                st.sampled_from(["admit", "admit", "pop", "pop", "requeue"])
            )
            if op == "admit":
                cycle += data.draw(st.integers(0, 4))
                dests = np.array(
                    data.draw(
                        st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n)
                    ),
                    dtype=np.int64,
                )
                # Now and then a new tenant registers at weight 1.
                tenant = data.draw(st.sampled_from(names + ["walkin"]))
                if tenant == "walkin":
                    tenant = names[-1] + "+"
                    names.append(tenant)
                for voqs in (table, loop):
                    voqs.admit_batch(dests, cycle, 1, None, tenant)
            elif op == "pop":
                frames = data.draw(st.integers(1, 12))
                block = table.pop_heads(frames)
                twin = loop.pop_heads(frames)
                assert (block is None) == (twin is None)
                if block is not None:
                    assert np.array_equal(block.addresses, twin.addresses)
                    assert np.array_equal(block.words, twin.words)
                    if block.tenants is None:
                        assert twin.tenants is None
                    else:
                        assert np.array_equal(block.tenants, twin.tenants)
                    last = (block, twin)
            elif last is not None:
                table.requeue_front([last[0]])
                loop.requeue_front([last[1]])
                last = None
            assert len(table_calls) == len(loop_calls)
            for (tids, slots), (picks, loop_slots) in zip(
                table_calls, loop_calls
            ):
                assert np.array_equal(tids, picks)
                assert np.array_equal(slots, loop_slots)
            table_calls.clear()
            loop_calls.clear()
            _assert_same_state(table, loop)


def _hotspot(seed, n=256, capacity=32):
    rng = np.random.default_rng(seed)
    voqs = VirtualOutputQueues(n, capacity, {"gold": 8, "bronze": 1})
    for tenant in ("gold", "bronze"):
        voqs.admit_batch(_hot_mix(rng, n, 8 * n), 1, 1, None, tenant)
    return voqs


class TestWhenTheTableRuns:
    def test_served_shape_never_runs_the_loop(self, monkeypatch):
        """Hotspot queues popped a window at a time: every pop is
        answered from the table."""

        def refuse(self, frames):
            raise AssertionError("the loop ran")

        voqs = _hotspot(1)
        monkeypatch.setattr(
            VirtualOutputQueues, "_weighted_picks_loop", refuse
        )
        popped = 0
        while voqs.total:
            popped += voqs.pop_heads(32).size
        assert popped == voqs.accepted
        assert voqs._memo is not None

    def test_a_possible_rescue_takes_the_loop(self, monkeypatch):
        """A head older than the bound where two classes meet: the loop
        runs and serves the old word first, where weights alone would
        serve it last."""
        voqs = VirtualOutputQueues(4, 8, {"a": 5, "b": 1}, starvation_cycles=2)
        voqs.admit_batch(np.array([0]), 1, tenant="b")
        voqs.admit_batch(np.array([0, 0, 0]), 10, tenant="a")
        ran = []
        loop = VirtualOutputQueues._weighted_picks_loop

        def spy(self, frames):
            ran.append(frames)
            return loop(self, frames)

        monkeypatch.setattr(VirtualOutputQueues, "_weighted_picks_loop", spy)
        block = voqs.pop_heads(4)
        assert ran == [4]
        assert block.tenants.tolist() == [1, 0, 0, 0]
        assert voqs.tenant_snapshot()["b"]["starvation_rescues"] == 1

    def test_a_key_past_int64_takes_the_loop(self, monkeypatch):
        """Four classes with weights this large leave no room in an
        int64 key."""
        weights = {name: 10**6 for name in "abcd"}
        voqs = VirtualOutputQueues(4, 8, weights)
        for name in weights:
            voqs.admit_batch(np.array([0, 1, 1]), 1, tenant=name)
        ran = []
        loop = VirtualOutputQueues._weighted_picks_loop
        monkeypatch.setattr(
            VirtualOutputQueues,
            "_weighted_picks_loop",
            lambda self, frames: ran.append(frames) or loop(self, frames),
        )
        voqs.pop_heads(3)
        assert ran == [3]

    def test_memo_restarts_when_a_tenant_registers(self):
        voqs = _hotspot(2, n=16, capacity=8)
        voqs.pop_heads(2)
        assert voqs._memo is not None
        voqs.admit(3, 2, tenant="walkin")
        assert voqs._memo is None
        voqs.pop_heads(2)
        assert voqs._memo.taken.shape[1] == 3

    @pytest.mark.parametrize("rows", [4, 16])
    def test_a_full_memo_starts_over(self, monkeypatch, rows):
        """With room for only a few keys the memo clears and refills,
        or, when one pop alone has more distinct keys, the loop runs —
        the answers stay the loop's."""
        monkeypatch.setattr(voq_module, "_MEMO_ROWS", rows)
        table, loop, table_calls, loop_calls = _twins(32, 12, [3, 1], 1024)
        rng = np.random.default_rng(rows)
        for cycle in range(1, 9):
            for tenant in ("t0", "t1"):
                dests = _hot_mix(rng, 32, 40)
                for voqs in (table, loop):
                    voqs.admit_batch(dests, cycle, 1, None, tenant)
            frames = int(rng.integers(1, 6))
            block, twin = table.pop_heads(frames), loop.pop_heads(frames)
            assert np.array_equal(block.words, twin.words)
            _assert_same_state(table, loop)
        assert len(table._memo.keys) - 1 <= rows
        for (tids, slots), (picks, loop_slots) in zip(table_calls, loop_calls):
            assert np.array_equal(tids, picks)
            assert np.array_equal(slots, loop_slots)
