"""The memo-table tenant pick against the frame-by-frame loop it replaced.

With two or more tenant classes, ``VirtualOutputQueues.pop_heads``
takes each destination's class sequence for the block from a memo
table, one lookup per distinct (frames, capped lengths, credits) key;
the reference is the same pop with every pick on the frame-by-frame
loop, ``_weighted_picks_loop`` — the pick's answer before the table
existed, and still the path a block takes when a key does not fit an
int64 or the age override could fire.

Shape: the served ``tenant_hotspot_m8`` queues — n=256, tenants
gold:8/bronze:1, capacity 32, a window of 32 frames — filled by
alternating 256-word hot-mix requests of the two tenants (70% of the
words to the first 32 outputs) until every hot queue is full, then
popped whole, as a window-32 plane pops them.  Each timed pop starts
from one of eight such fillings.

Method: every round times a block of pops of each side in thread CPU
time (refills untimed), the side that goes first alternating, and the
round's ratio is loop time over table time; the artifact records
microseconds per pop for both sides and the median and quartiles of
the paired ratios over at least 15 rounds.  Both sides must compose
identical blocks on every timed pop.  The table side's memo is warm,
as in serving: the fillings are popped once before any clock starts.

The bar (see ``benchmarks/out/voq_pop.json``): the table pop must be
**>= 2.5x** faster than the loop pop in the median paired ratio.

``BENCH_VOQ_QUICK=1`` (the CI smoke) shortens each round's blocks; the
round count and the bar stay.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.server import VirtualOutputQueues

QUICK = bool(os.environ.get("BENCH_VOQ_QUICK"))
ROUNDS = 15 if QUICK else 25
#: Target thread CPU seconds per timed block of the table side.
BLOCK_SECONDS = 0.01 if QUICK else 0.04
SPEEDUP_BAR = 2.5
N = 256
TENANTS = {"gold": 8, "bronze": 1}
CAPACITY = 32
WINDOW = 32
FILLINGS = 8
REQUEST_WORDS = 256
HOT_OUTPUTS = 32
HOT_SHARE = 0.7


class LoopPickQueues(VirtualOutputQueues):
    """The queues with every tenant pick on the frame-by-frame loop."""

    def _weighted_picks(self, frames, frame_of, dests):
        return self._loop_picks(frames, frame_of, dests)


def _fillings(seed: int) -> list:
    """Per filling, the (tenant, destinations) requests that fill
    every hot queue."""
    rng = np.random.default_rng(seed)
    fillings = []
    for _ in range(FILLINGS):
        probe = VirtualOutputQueues(N, CAPACITY, TENANTS)
        requests = []
        while min(probe.depths()[:HOT_OUTPUTS]) < CAPACITY:
            for tenant in TENANTS:
                hot = rng.random(REQUEST_WORDS) < HOT_SHARE
                dests = np.where(
                    hot,
                    rng.integers(0, HOT_OUTPUTS, size=REQUEST_WORDS),
                    rng.integers(0, N, size=REQUEST_WORDS),
                ).astype(np.int64)
                probe.admit_batch(dests, 0, tenant=tenant)
                requests.append((tenant, dests))
        fillings.append(requests)
    return fillings


def _block(voqs, fillings, first: int, calls: int):
    """Thread CPU microseconds per pop over *calls* pops, each from a
    fresh filling, and the blocks they composed."""
    elapsed = 0.0
    blocks = []
    for call in range(first, first + calls):
        for tenant, dests in fillings[call % len(fillings)]:
            voqs.admit_batch(dests, call, tenant=tenant)
        start = time.thread_time()
        block = voqs.pop_heads(WINDOW)
        elapsed += time.thread_time() - start
        assert not voqs.total, "a window-32 pop takes every queue whole"
        blocks.append(block)
    return elapsed / calls * 1e6, blocks


def _same(blocks, twins) -> bool:
    return all(
        np.array_equal(block.addresses, twin.addresses)
        and np.array_equal(block.words, twin.words)
        and np.array_equal(block.tenants, twin.tenants)
        for block, twin in zip(blocks, twins)
    )


def _measure(seed: int) -> dict:
    fillings = _fillings(seed)
    sides = {
        "table": VirtualOutputQueues(N, CAPACITY, TENANTS),
        "loop": LoopPickQueues(N, CAPACITY, TENANTS),
    }
    # Warm the memo, and check the sides agree, before any clock starts.
    _, warm = _block(sides["table"], fillings, 0, len(fillings))
    _, twins = _block(sides["loop"], fillings, 0, len(fillings))
    assert _same(warm, twins)
    probe, _ = _block(sides["table"], fillings, 0, 3)
    _block(sides["loop"], fillings, 0, 3)
    calls = max(1, int(BLOCK_SECONDS * 1e6 / max(probe, 1.0)))
    table_us, loop_us, ratios = [], [], []
    words = frames = 0
    for turn in range(ROUNDS):
        order = ["table", "loop"] if turn % 2 == 0 else ["loop", "table"]
        timed = {
            name: _block(sides[name], fillings, turn * calls, calls)
            for name in order
        }
        assert _same(timed["table"][1], timed["loop"][1])
        table_us.append(timed["table"][0])
        loop_us.append(timed["loop"][0])
        ratios.append(timed["loop"][0] / timed["table"][0])
        words += sum(block.size for block in timed["table"][1])
        frames += sum(block.k for block in timed["table"][1])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    pops = ROUNDS * calls
    return {
        "n": N,
        "tenants": TENANTS,
        "capacity": CAPACITY,
        "window": WINDOW,
        "rounds": ROUNDS,
        "pops_per_block": calls,
        "words_per_pop": words / pops,
        "frames_per_pop": frames / pops,
        "table_us_per_pop": float(np.median(table_us)),
        "loop_us_per_pop": float(np.median(loop_us)),
        "speedup_median": float(median),
        "speedup_q1": float(q1),
        "speedup_q3": float(q3),
        "speedup_iqr": float(q3 - q1),
        "blocks_match": True,
    }


def test_voq_pop_speedup(write_artifact):
    """The table pop clears the 2.5x bar over the loop pop."""
    result = _measure(seed=9)
    assert result["speedup_median"] >= SPEEDUP_BAR, result
    artifact = {
        "benchmark": "voq_pop",
        "quick": QUICK,
        "clock": "thread_time",
        "speedup_bar": SPEEDUP_BAR,
        **result,
    }
    write_artifact("voq_pop.json", json.dumps(artifact, indent=2))
