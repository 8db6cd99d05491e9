"""The VOQs and the frame composer against a pure-Python reference.

A hypothesis state machine admits words one at a time and a request at
a time, pops blocks of ``k`` frames and requeues the last block, on
untenanted and tenanted queue sets, and checks the struct-of-arrays
:class:`~repro.server.VirtualOutputQueues` against
:class:`_Reference`: per-(tenant, destination) deques, the smoothed
weighted round-robin + starvation pick as ``docs/traffic.md`` states it
(ties to the class registered first), and
:func:`~repro.core.traffic.coalesce_frame` for the line layout.
"""

from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.traffic import coalesce_frame
from repro.exceptions import AdmissionRejectedError
from repro.server import DEFAULT_TENANT, FrameScheduler, VirtualOutputQueues
from repro.server.voq import REQUEUES


class _Reference:
    def __init__(self, n, capacity, tenants, starvation):
        self.n, self.capacity, self.starvation = n, capacity, starvation
        self.tenanted = tenants is not None
        self.weights = dict(tenants or {DEFAULT_TENANT: 1})
        self.fifos, self.credit = {}, {}
        self.served = {name: 0 for name in self.weights}
        self.rescues = dict(self.served)
        self.rr = self.offered = self.accepted = self.rejected = 0
        self.requeued = self.max_depth = 0

    def depth(self, dest):
        return sum(len(self.fifos.get((t, dest), ())) for t in self.weights)

    def admit(self, dest, row, tenant):
        """Enqueue *row*; return None, or the rejection hint."""
        self.offered += 1
        depth = self.depth(dest)
        if depth >= self.capacity:
            self.rejected += 1
            return depth
        tenant = tenant if self.tenanted else DEFAULT_TENANT
        if tenant not in self.weights:
            self.weights[tenant] = 1
            self.served[tenant] = self.rescues[tenant] = 0
        self.fifos.setdefault((tenant, dest), deque()).append(list(row))
        self.accepted += 1
        self.max_depth = max(self.max_depth, depth + 1)
        return None

    def pop(self, dest):
        live = [t for t in self.weights if self.fifos.get((t, dest))]
        pick = live[0]
        if len(live) > 1:
            for t in live:
                self.credit[t, dest] = self.credit.get((t, dest), 0) + self.weights[t]
            pick = max(live, key=lambda t: (self.credit[t, dest], -live.index(t)))
            head = {t: self.fifos[t, dest][0][2] for t in live}
            oldest = min(live, key=lambda t: head[t])
            if head[oldest] + self.starvation < head[pick]:
                self.rescues[oldest] += 1
                pick = oldest
            self.credit[pick, dest] -= sum(self.weights[t] for t in live)
        row = self.fifos[pick, dest].popleft()
        if not self.fifos[pick, dest]:
            self.credit[pick, dest] = 0
        self.served[pick] += 1
        return pick, row

    def frame(self):
        order = [(self.rr + k) % self.n for k in range(self.n)]
        heads = [d for d in order if self.depth(d)]
        self.rr = (self.rr + 1) % self.n
        words = [(d, *self.pop(d)) for d in heads]
        return coalesce_frame(heads, self.n).addresses, words

    def requeue(self, words):
        for dest, tenant, row in reversed(words):
            row[REQUEUES] += 1
            self.fifos[tenant, dest].appendleft(row)
            self.requeued += 1
            self.max_depth = max(self.max_depth, self.depth(dest))


tenant_sets = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["gold", "silver", "bronze"]),
        st.integers(1, 5),
        min_size=1,
        max_size=3,
    ),
)


class VOQModel(RuleBasedStateMachine):
    @initialize(
        m=st.integers(1, 3),
        capacity=st.integers(1, 16),
        tenants=tenant_sets,
        starvation=st.integers(1, 6),
    )
    def setup(self, m, capacity, tenants, starvation):
        n = 1 << m
        self.voqs = VirtualOutputQueues(n, capacity, tenants, starvation)
        self.scheduler = FrameScheduler(n)
        self.ref = _Reference(n, capacity, tenants, starvation)
        self.names = list(tenants or {}) + ["walkin", DEFAULT_TENANT]
        self.cycle = self.owner = 0
        self.last = None

    def _tenant(self, data):
        return data.draw(st.sampled_from(self.names))

    @rule()
    def tick(self):
        self.cycle += 1

    @rule(data=st.data())
    def admit(self, data):
        dest = data.draw(st.integers(0, self.voqs.n - 1))
        tenant = self._tenant(data)
        self.owner += 1
        hint = self.ref.admit(dest, (self.owner, 0, self.cycle, 0), tenant)
        try:
            self.voqs.admit(dest, self.cycle, self.owner, tenant)
            assert hint is None
        except AdmissionRejectedError as error:
            assert error.retry_after_cycles == hint

    @rule(data=st.data())
    def admit_batch(self, data):
        n = self.voqs.n
        dests = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)),
            dtype=np.int64,
        )
        indices = np.array(
            data.draw(
                st.one_of(
                    st.none(),
                    st.lists(st.integers(0, len(dests) - 1), unique=True).map(sorted),
                )
            )
            or range(len(dests)),
            dtype=np.int64,
        )
        tenant = self._tenant(data)
        self.owner += 1
        expected = {}
        for index in indices.tolist():
            row = (self.owner, index, self.cycle, 0)
            expected[index] = self.ref.admit(int(dests[index]), row, tenant)
        accepted, rejected, hints = self.voqs.admit_batch(
            dests, self.cycle, self.owner, indices, tenant
        )
        assert accepted.tolist() == [i for i, h in expected.items() if h is None]
        assert rejected.tolist() == [i for i, h in expected.items() if h is not None]
        assert hints.tolist() == [h for h in expected.values() if h is not None]

    # Frames and capacity wide enough that a FIFO is sometimes longer
    # than frames + 1, the most the tenant pick's memo key keeps.
    @rule(frames=st.integers(1, 10))
    def pop(self, frames):
        block = self.scheduler.next_frame(self.voqs, frames)
        expected = []
        while len(expected) < frames and any(self.ref.depth(d) for d in range(self.voqs.n)):
            expected.append(self.ref.frame())
        if block is None:
            assert not expected
            return
        assert block.k == len(expected)
        names = self.voqs.tenant_names
        words = []
        for j, (addresses, frame_words) in enumerate(expected):
            assert block.addresses[j].tolist() == addresses
            rows = block.words[block.frame_slice(j)]
            assert rows.tolist() == [row for _d, _t, row in frame_words]
            assert block.dests[block.frame_slice(j)].tolist() == [
                d for d, _t, _row in frame_words
            ]
            words.extend(frame_words)
        tids = block.tenants if block.tenants is not None else [0] * block.size
        assert [names[t] for t in tids] == [t for _d, t, _row in words]
        self.last = (block, words)

    @precondition(lambda self: self.last is not None)
    @rule()
    def requeue_last(self):
        block, words = self.last
        self.voqs.requeue_front([block])
        self.ref.requeue(words)
        self.last = None

    @invariant()
    def counters_agree(self):
        voqs, ref = self.voqs, self.ref
        assert voqs.depths() == [ref.depth(d) for d in range(voqs.n)]
        assert voqs.total == sum(voqs.depths())
        assert (voqs.offered, voqs.accepted, voqs.rejected, voqs.requeued) == (
            ref.offered,
            ref.accepted,
            ref.rejected,
            ref.requeued,
        )
        assert voqs.max_depth == ref.max_depth
        rows = voqs.tenant_snapshot()
        if rows is not None:
            assert {t: r["served"] for t, r in rows.items()} == ref.served
            assert {t: r["starvation_rescues"] for t, r in rows.items()} == ref.rescues


VOQModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestVOQModel = VOQModel.TestCase
