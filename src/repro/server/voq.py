"""Virtual output queues with bounded-depth admission control.

One FIFO per destination (the classic VOQ arrangement that defeats
head-of-line blocking: a burst for output 3 never delays a word for
output 5).  Depth is bounded — an arrival to a full queue is **rejected
at admission** with a retry-after hint instead of buffered, so offered
load beyond capacity degrades into client-visible backpressure rather
than unbounded memory growth.

The queues are struct-of-arrays: one int64 ring per (tenant class,
destination), each slot holding a word's (owner id, batch index,
enqueue cycle, requeue count) — the :data:`OWNER`, :data:`INDEX`,
:data:`CYCLE` and :data:`REQUEUES` columns.  No Python object exists
per word: :meth:`VirtualOutputQueues.admit_batch` admits a whole
request with a handful of array operations, and
:meth:`VirtualOutputQueues.pop_heads` composes ``k`` frames as one
:class:`Block`.  Frame ``j`` of a block carries the ``j``-th queued
word of every destination deeper than ``j`` — the rounds-of-matchings
decomposition :func:`repro.traffic.multicast.expand_copies` uses
offline — laid out exactly as :func:`repro.core.traffic.coalesce_frame`
would: real words on consecutive lines in round-robin order from a
start that advances one destination per frame, idle lines taking the
unused addresses in ascending order.

With ``tenants`` configured, each destination's FIFO splits into one
sub-FIFO per tenant class and the head pick becomes smoothed weighted
round-robin over the backlogged classes — the deficit-style scheduler
that gives a weight-8 tenant 8× the service of a weight-1 tenant
sharing the same hot output, plus an age override so no class can be
starved past ``starvation_cycles`` of relative delay.  Ties go to the
class registered first (configuration order, then first seen).  With
one class the pick is trivial and a whole block composes in one pass;
with two or more the block is built frame by frame, each frame's pick
vectorized across destinations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import AdmissionRejectedError

__all__ = [
    "CYCLE",
    "DEFAULT_TENANT",
    "INDEX",
    "NO_OWNER",
    "OWNER",
    "REQUEUES",
    "Block",
    "VirtualOutputQueues",
]

#: Tenant class words belong to when the sender names none.
DEFAULT_TENANT = "default"

#: Columns of a queued word's row.
OWNER, INDEX, CYCLE, REQUEUES = range(4)

#: Owner id of words nobody awaits (the synchronous bench harnesses).
NO_OWNER = -1

# A one-word block's frame counts and frame indices, shared read-only.
_ONE_WORD = np.ones(1, dtype=np.int64)
_FRAME_ZERO = np.zeros(1, dtype=np.int64)
_ONE_WORD.flags.writeable = False
_FRAME_ZERO.flags.writeable = False


class Block:
    """``k`` composed frames, ready for one plane.

    ``addresses[j]`` is frame ``j``'s full destination permutation
    (line -> destination); its first ``counts[j]`` lines carry real
    words, the rest idle filler.  ``words`` holds one row per real word
    (the VOQ columns), ordered by frame and then line, with the
    word's frame index in ``frame_of`` and its destination in
    ``dests``; ``tenants`` gives each word's tenant class index, or is
    ``None`` when every word belongs to class 0.  ``full`` marks a
    block with no idle line.  The scheduler stamps ``tag`` (frame
    ``j`` is tag ``tag + j``) and ``scheduled_cycle``.
    """

    __slots__ = (
        "tag",
        "scheduled_cycle",
        "addresses",
        "counts",
        "full",
        "words",
        "frame_of",
        "dests",
        "tenants",
    )

    def __init__(
        self,
        addresses: np.ndarray,
        counts: np.ndarray,
        full: bool,
        words: np.ndarray,
        frame_of: np.ndarray,
        dests: np.ndarray,
        tenants: Optional[np.ndarray] = None,
    ) -> None:
        self.tag = -1
        self.scheduled_cycle = -1
        self.addresses = addresses
        self.counts = counts
        self.full = full
        self.words = words
        self.frame_of = frame_of
        self.dests = dests
        self.tenants = tenants

    @property
    def k(self) -> int:
        """Frames in the block."""
        return len(self.counts)

    @property
    def size(self) -> int:
        """Real words in the block."""
        return len(self.words)

    @property
    def fills(self) -> np.ndarray:
        """Each frame's fill ratio (real lines over all lines)."""
        return self.counts / self.addresses.shape[1]

    def frame_slice(self, j: int) -> slice:
        """The rows of :attr:`words` riding frame *j*."""
        end = int(self.counts[: j + 1].sum())
        return slice(end - int(self.counts[j]), end)

    def frame(self, j: int) -> "Block":
        """Frame *j* alone, as a one-frame block tagged ``tag + j``."""
        rows = self.frame_slice(j)
        count = self.counts[j : j + 1]
        block = Block(
            self.addresses[j : j + 1],
            count,
            bool(count[0] == self.addresses.shape[1]),
            self.words[rows],
            self.frame_of[rows] - j,
            self.dests[rows],
            None if self.tenants is None else self.tenants[rows],
        )
        block.tag = self.tag + j
        block.scheduled_cycle = self.scheduled_cycle
        return block

    def __repr__(self) -> str:
        return (
            f"Block(tag={self.tag}, frames={self.k}, words={self.size}, "
            f"n={self.addresses.shape[1]}, cycle={self.scheduled_cycle})"
        )


def _validate_tenants(tenants: Mapping[str, int]) -> None:
    if not tenants:
        raise ValueError("tenants must name at least one class")
    for name, weight in tenants.items():
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"tenant names must be non-empty strings, got {name!r}"
            )
        if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
            raise ValueError(
                f"tenant {name!r} needs an integer weight >= 1, got {weight!r}"
            )


def _pad_class(array: np.ndarray) -> np.ndarray:
    """*array* with one more all-zero row on the tenant axis."""
    return np.concatenate([array, np.zeros_like(array[:1])])


class VirtualOutputQueues:
    """``n`` bounded FIFOs, one per output, drained a block at a time.

    The round-robin start makes composition fair: frame ``j`` puts the
    destinations on lines starting from a start that rotates by one
    per frame, so no output always rides line 0.
    """

    def __init__(
        self,
        n: int,
        capacity: int,
        tenants: Optional[Mapping[str, int]] = None,
        starvation_cycles: int = 1024,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one output queue, got n={n}")
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.n = n
        self.capacity = capacity
        self.tenanted = tenants is not None
        if tenants is not None:
            _validate_tenants(tenants)
            if starvation_cycles < 1:
                raise ValueError(
                    f"starvation_cycles must be >= 1, got {starvation_cycles}"
                )
        classes = dict(tenants) if tenants is not None else {DEFAULT_TENANT: 1}
        self.starvation_cycles = starvation_cycles
        self._names: List[str] = list(classes)
        self._ids: Dict[str, int] = {
            name: tid for tid, name in enumerate(self._names)
        }
        self._weights = np.array(list(classes.values()), dtype=np.int64)
        classes_n = len(self._names)
        # Rings start small and double on demand (requeue may push a
        # queue past capacity); the length stays a power of two so a
        # slot is ``position & mask``.
        length = 1 << max(2, (min(capacity, 64) - 1).bit_length())
        self._ring = np.zeros((classes_n, n, length, 4), dtype=np.int64)
        self._head = np.zeros((classes_n, n), dtype=np.int64)
        self._len = np.zeros((classes_n, n), dtype=np.int64)
        #: Words queued per destination, summed over tenant classes —
        #: the quantity the capacity bound applies to.
        self._depth = np.zeros(n, dtype=np.int64)
        self._credit = np.zeros((classes_n, n), dtype=np.int64)
        self._served = np.zeros(classes_n, dtype=np.int64)
        self._rescues = np.zeros(classes_n, dtype=np.int64)
        self._admission: Dict[str, Dict[str, int]] = (
            {name: self._new_row() for name in classes}
            if tenants is not None
            else {}
        )
        self._lines = np.arange(n, dtype=np.int64)
        self._sort_dtype = (
            np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else np.int64
        )
        self._rr_start = 0
        self._queued = 0  # maintained so ``total`` is O(1) on the hot path
        # Admission counters (offered = accepted + rejected).
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.requeued = 0
        self.max_depth = 0

    @staticmethod
    def _new_row() -> Dict[str, int]:
        return {"offered": 0, "accepted": 0, "rejected": 0, "requeued": 0}

    @property
    def tenants(self) -> Optional[Dict[str, int]]:
        """Live tenant weights (including auto-registered ones), or
        ``None`` when tenant scheduling is off."""
        if not self.tenanted:
            return None
        return dict(zip(self._names, self._weights.tolist()))

    @property
    def tenant_names(self) -> List[str]:
        """Tenant class names by class index (registration order)."""
        return list(self._names)

    def _tenant_row(self, tenant: str) -> Dict[str, int]:
        row = self._admission.get(tenant)
        if row is None:
            row = self._admission[tenant] = self._new_row()
        return row

    def _class_of(self, tenant: str) -> int:
        """Class index of *tenant*, auto-registering it at weight 1 by
        growing the tenant axis (untenanted queues have one class)."""
        if not self.tenanted:
            return 0
        tid = self._ids.get(tenant)
        if tid is None:
            tid = self._ids[tenant] = len(self._names)
            self._names.append(tenant)
            self._weights = np.append(self._weights, 1)
            self._ring = _pad_class(self._ring)
            self._head = _pad_class(self._head)
            self._len = _pad_class(self._len)
            self._credit = _pad_class(self._credit)
            self._served = np.append(self._served, 0)
            self._rescues = np.append(self._rescues, 0)
        return tid

    def _grow(self, need: int) -> None:
        """Double the rings until a queue can hold *need* words."""
        length = self._ring.shape[2]
        size = length
        while size < need:
            size *= 2
        slots = (self._head[..., None] + np.arange(length)) & (length - 1)
        ring = np.zeros(self._ring.shape[:2] + (size, 4), dtype=np.int64)
        ring[:, :, :length] = np.take_along_axis(
            self._ring, slots[..., None], axis=2
        )
        self._ring = ring
        self._head[:] = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        destination: int,
        cycle: int,
        owner: int = NO_OWNER,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Enqueue one word or raise :class:`AdmissionRejectedError`.

        The retry-after hint is the queue's current depth: the fabric
        drains at most one word per destination per frame, so a full
        queue needs at least ``depth`` cycles before a slot frees.
        """
        self.offered += 1
        row = self._tenant_row(tenant) if self.tenanted else None
        if row is not None:
            row["offered"] += 1
        if not 0 <= destination < self.n:
            self.rejected += 1
            if row is not None:
                row["rejected"] += 1
            raise AdmissionRejectedError(destination, 0, 0)
        depth = self._depth.item(destination)
        if depth >= self.capacity:
            self.rejected += 1
            if row is not None:
                row["rejected"] += 1
            raise AdmissionRejectedError(destination, depth, depth)
        tid = self._class_of(tenant)
        length = self._len.item(tid, destination)
        if length >= self._ring.shape[2]:
            self._grow(length + 1)
        ring = self._ring
        slot = (self._head.item(tid, destination) + length) & (ring.shape[2] - 1)
        ring[tid, destination, slot] = (owner, 0, cycle, 0)
        self._len[tid, destination] = length + 1
        self._depth[destination] = depth + 1
        self.accepted += 1
        if row is not None:
            row["accepted"] += 1
        self._queued += 1
        if depth + 1 > self.max_depth:
            self.max_depth = depth + 1

    def admit_batch(
        self,
        dests: np.ndarray,
        cycle: int,
        owner: int = NO_OWNER,
        indices: Optional[np.ndarray] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Admit the words of one request; return ``(accepted, rejected,
        hints)`` as arrays of request indices and rejection hints.

        *dests* is the request's int64 destination array, already
        range-checked; *indices* selects the words to offer (all of
        them by default — retry rounds pass the previous rejects).  A
        word's rank is its position among the offered words for the
        same destination; it is accepted iff ``depth + rank <
        capacity``, which is word for word what admitting them one at
        a time in index order does, and a rejected word's hint is
        ``max(depth, capacity)`` — the depth that loop would report.
        The capacity bound is per destination, summed over tenant
        classes.  Accepted words keep their index in the ``INDEX``
        column, so delivery can scatter into the owner's result arrays.
        """
        if indices is None:
            indices = np.arange(len(dests), dtype=np.int64)
            picked = dests
        else:
            picked = dests[indices]
        count = len(picked)
        n = self.n
        order = np.argsort(picked.astype(self._sort_dtype), kind="stable")
        ordered = picked[order]
        per_dest = np.bincount(picked, minlength=n)
        rank = np.arange(count) - (np.cumsum(per_dest) - per_dest)[ordered]
        depth = self._depth
        room = np.maximum(self.capacity - depth, 0)
        take = np.minimum(per_dest, room)
        if np.array_equal(take, per_dest):
            accepted = indices
            rejected = hints = indices[:0]
            keep = None
        else:
            keep = rank < room[ordered]
            ok = np.empty(count, dtype=bool)
            ok[order] = keep
            accepted = indices[ok]
            rejected = indices[~ok]
            hints = np.maximum(depth[picked[~ok]], self.capacity)
        admitted = len(accepted)
        self.offered += count
        self.accepted += admitted
        self.rejected += count - admitted
        if self.tenanted:
            row = self._tenant_row(tenant)
            row["offered"] += count
            row["accepted"] += admitted
            row["rejected"] += count - admitted
        if admitted:
            tid = self._class_of(tenant)
            lengths = self._len[tid]
            need = int((lengths + take).max())
            if need > self._ring.shape[2]:
                self._grow(need)
            mask = self._ring.shape[2] - 1
            sources = order
            if keep is not None:
                ordered, rank, sources = ordered[keep], rank[keep], order[keep]
            slots = (self._head[tid, ordered] + lengths[ordered] + rank) & mask
            rows = np.empty((admitted, 4), dtype=np.int64)
            rows[:, OWNER] = owner
            rows[:, INDEX] = indices[sources]
            rows[:, CYCLE] = cycle
            rows[:, REQUEUES] = 0
            self._ring[tid, ordered, slots] = rows
            lengths += take
            self.max_depth = max(self.max_depth, int((depth + take).max()))
            depth += take
            self._queued += admitted
        return accepted, rejected, hints

    def requeue_front(self, blocks: Sequence[Block]) -> None:
        """Put the words of stranded *blocks* back at the head of their
        (tenant, destination) FIFOs, the oldest frame's word first.

        Used when a plane dies with frames in flight: the words were
        admitted once and must not be re-rejected, so this may push a
        queue transiently above capacity (new admissions still bounce
        until it drains).  Each word's ``REQUEUES`` count goes up by
        one.
        """
        blocks = [block for block in blocks if block.size]
        if not blocks:
            return
        words = np.concatenate([block.words for block in blocks])
        dests = np.concatenate([block.dests for block in blocks])
        tids = np.concatenate(
            [
                block.tenants
                if block.tenants is not None
                else np.zeros(block.size, dtype=np.int64)
                for block in blocks
            ]
        )
        words[:, REQUEUES] += 1
        count = len(words)
        n = self.n
        queue = tids * n + dests
        order = np.argsort(queue, kind="stable")
        ordered = queue[order]
        per_queue = np.bincount(queue, minlength=self._len.size)
        rank = np.arange(count) - (np.cumsum(per_queue) - per_queue)[ordered]
        lengths = self._len.reshape(-1)
        heads = self._head.reshape(-1)
        need = int((lengths + per_queue).max())
        if need > self._ring.shape[2]:
            self._grow(need)  # resets the heads in place
        mask = self._ring.shape[2] - 1
        # The group's new head sits per_queue slots before the old one;
        # rank 0 (the oldest frame's word) lands there.
        slots = (heads[ordered] - per_queue[ordered] + rank) & mask
        ring = self._ring.reshape((-1,) + self._ring.shape[2:])
        ring[ordered, slots] = words[order]
        heads -= per_queue
        heads &= mask
        lengths += per_queue
        per_dest = np.bincount(dests, minlength=n)
        self._depth += per_dest
        self._queued += count
        self.requeued += count
        self.max_depth = max(self.max_depth, int(self._depth.max()))
        if self.tenanted:
            per_class = np.bincount(tids, minlength=len(self._names))
            for name, added in zip(self._names, per_class.tolist()):
                if added:
                    self._tenant_row(name)["requeued"] += added

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def pop_heads(self, frames: int = 1) -> Optional[Block]:
        """Pop up to *frames* frames' worth of head words as one block.

        Frame ``j`` takes one word from every destination that still
        has one, so each frame's destinations are pairwise distinct —
        exactly the conflict-free partial traffic one frame can carry.
        Returns ``None`` when nothing is queued.
        """
        if not self._queued or frames < 1:
            return None
        if self._queued == 1:
            return self._pop_lone()
        return self._pop_block(frames)

    def _pop_lone(self) -> Block:
        """The unicast hot path: one word queued in total rides line 0
        of a one-frame block, idle lines taking the other addresses in
        ascending order."""
        n = self.n
        tid, dest = divmod(int(self._len.argmax()), n)
        head = self._head.item(tid, dest)
        words = self._ring[tid, dest, head : head + 1].copy()
        self._head[tid, dest] = (head + 1) & (self._ring.shape[2] - 1)
        self._len[tid, dest] = 0
        self._depth[dest] = 0
        if self.tenanted:
            self._credit[tid, dest] = 0
            self._served[tid] += 1
        self._queued = 0
        self._rr_start = (self._rr_start + 1) % n
        # Line l >= 1 carries l - 1 up to the destination, l above it.
        addresses = self._lines - (self._lines <= dest)
        addresses[0] = dest
        return Block(
            addresses[None, :],
            _ONE_WORD,
            n == 1,
            words,
            _FRAME_ZERO,
            addresses[:1],
            None if tid == 0 else np.array([tid], dtype=np.int64),
        )

    def _starts(self, frames: int) -> np.ndarray:
        """Each frame's round-robin start, and advance the pointer."""
        starts = (self._rr_start + np.arange(frames)) % self.n
        self._rr_start = (self._rr_start + frames) % self.n
        return starts

    def _layout(self, present: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Line -> destination rows for frames whose real destinations
        are *present*: real ones in round-robin order from each frame's
        start, idle lines taking the absent addresses in ascending
        order (:func:`repro.core.traffic.coalesce_frame`'s layout)."""
        n = self.n
        lines = self._lines
        key = np.where(present, (lines - starts[:, None]) % n, n + lines)
        return np.argsort(key, axis=1)

    def _pop_block(self, frames: int) -> Block:
        """Compose up to *frames* frames in one pass.

        Which destinations ride frame ``j`` (every one deeper than
        ``j``), and so the layout, does not depend on the tenant
        classes; with one class the word taken is simply the ``j``-th
        of the destination's FIFO, with two or more the classes are
        picked frame by frame (:meth:`_weighted_picks`).
        """
        n = self.n
        depth = self._depth
        frames = min(frames, int(depth.max()))
        starts = self._starts(frames)
        full = int(depth.min()) >= frames
        if full:
            # Every destination rides every frame: frame j is the
            # rotation starting at its round-robin start.
            addresses = (self._lines + starts[:, None]) % n
            counts = np.full(frames, n, dtype=np.int64)
            dests = addresses.reshape(-1)
            frame_of = np.repeat(np.arange(frames, dtype=np.int64), n)
        else:
            present = depth > np.arange(frames)[:, None]
            addresses = self._layout(present, starts)
            counts = present.sum(axis=1)
            frame_of, line = np.nonzero(self._lines < counts[:, None])
            dests = addresses[frame_of, line]
        length = self._ring.shape[2]
        mask = length - 1
        taken = np.minimum(depth, frames)
        if len(self._names) == 1:
            tids = None
            heads = self._head[0]
            # Class 0's rings are the first n * length rows.
            rows = dests * length + ((heads[dests] + frame_of) & mask)
            heads += taken
            heads &= mask
            self._len[0] -= taken
            self._served[0] += len(dests)
        else:
            picks, slots = self._weighted_picks(frames)
            tids = picks[frame_of, dests]
            rows = (tids * n + dests) * length + slots[frame_of, dests]
            self._served += np.bincount(tids, minlength=len(self._names))
        words = self._ring.reshape(-1, 4).take(rows, axis=0)
        depth -= taken
        self._queued -= len(words)
        return Block(addresses, counts, full, words, frame_of, dests, tids)

    def _weighted_picks(self, frames: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pop one word per non-empty destination for each of *frames*
        frames; return each (frame, destination)'s class and ring slot.

        The pick is smoothed weighted round-robin, frame by frame and
        vectorized across destinations.  Per destination, with two or
        more classes backlogged: credit each backlogged class its
        weight, serve the largest credit (ties to the class registered
        first) unless the oldest head is more than
        ``starvation_cycles`` older than the pick's head — then serve
        the oldest and count a rescue — and debit the winner by the
        total weight.  A class's credit resets when its FIFO empties,
        so an idle class banks nothing.
        """
        n = self.n
        mask = self._ring.shape[2] - 1
        lengths, heads, credit = self._len, self._head, self._credit
        weights = self._weights[:, None]
        classes = len(self._names)
        picks = np.zeros((frames, n), dtype=np.int64)
        slots = np.zeros((frames, n), dtype=np.int64)
        lowest, highest = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        for j in range(frames):
            backlogged = lengths > 0
            backlog = backlogged.sum(axis=0)
            pick = backlogged.argmax(axis=0)
            multi = backlog > 1
            if multi.any():
                cols = np.flatnonzero(multi)
                live = backlogged[:, cols]
                offered = np.where(live, weights, 0)
                credit[:, cols] += offered
                weighted = np.where(live, credit[:, cols], lowest).argmax(axis=0)
                head_cycles = self._ring[
                    np.arange(classes)[:, None], cols, heads[:, cols], CYCLE
                ]
                oldest = np.where(live, head_cycles, highest).argmin(axis=0)
                span = np.arange(len(cols))
                rescue = (oldest != weighted) & (
                    head_cycles[oldest, span] + self.starvation_cycles
                    < head_cycles[weighted, span]
                )
                winner = np.where(rescue, oldest, weighted)
                if rescue.any():
                    self._rescues += np.bincount(
                        oldest[rescue], minlength=classes
                    )
                credit[winner, cols] -= offered.sum(axis=0)
                pick[cols] = winner
            dests = np.flatnonzero(backlog)
            tids = pick[dests]
            slot = heads[tids, dests]
            picks[j, dests] = tids
            slots[j, dests] = slot
            heads[tids, dests] = (slot + 1) & mask
            lengths[tids, dests] -= 1
            emptied = lengths[tids, dests] == 0
            credit[tids[emptied], dests[emptied]] = 0
        return picks, slots

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self, destination: int) -> int:
        return int(self._depth[destination])

    @property
    def total(self) -> int:
        return self._queued

    def depths(self) -> List[int]:
        return self._depth.tolist()

    def drain_all(self) -> np.ndarray:
        """Remove every queued word (gateway shutdown); return their rows."""
        length = self._ring.shape[2]
        offsets = np.arange(length)
        live = offsets < self._len[..., None]
        slots = (self._head[..., None] + offsets) & (length - 1)
        rows = np.take_along_axis(self._ring, slots[..., None], axis=2)[live]
        self._len[:] = 0
        self._depth[:] = 0
        self._credit[:] = 0
        self._queued = 0
        return rows

    def tenant_snapshot(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Per-tenant fairness accounting, or ``None`` when tenants are off.

        ``served`` counts words placed onto frames and ``rescues``
        counts starvation-override picks — a non-zero rescue count is
        the signal that one class was held off long enough for the age
        guard to intervene.
        """
        if not self.tenanted:
            return None
        queued = self._len.sum(axis=1).tolist()
        served = self._served.tolist()
        rescues = self._rescues.tolist()
        rows: Dict[str, Dict[str, Any]] = {}
        for tid, tenant in enumerate(self._names):
            rows[tenant] = {
                "weight": int(self._weights[tid]),
                "queued": queued[tid],
                "served": served[tid],
                "starvation_rescues": rescues[tid],
                **self._tenant_row(tenant),
            }
        return rows

    def snapshot(self) -> Dict[str, Any]:
        depths = self.depths()
        snap = {
            "capacity": self.capacity,
            "queued": sum(depths),
            "depths": depths,
            "max_depth": self.max_depth,
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "requeued": self.requeued,
        }
        tenants = self.tenant_snapshot()
        if tenants is not None:
            snap["tenants"] = tenants
        return snap

    def __repr__(self) -> str:
        return (
            f"VirtualOutputQueues(n={self.n}, capacity={self.capacity}, "
            f"queued={self.total})"
        )
