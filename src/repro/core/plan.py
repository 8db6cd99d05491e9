"""Compiled routing plans: precomputed index tables for the vector dataplane.

The BNB network's wiring is entirely static — only the splitter
*controls* depend on the words in flight.  The object model nonetheless
recomputes ``unshuffle_index`` per line per stage per cycle, which is
exactly the kind of work a hardware fabric does zero of.  A
:class:`CompiledPlan` hoists all of it out of the hot loop: for each
main stage it precomputes, as numpy arrays,

* the **inner gathers** — the within-splitter-block unshuffle of every
  nested-GBN stage, expressed as one full-width gather index so a stage
  transition is a single fancy-indexing operation;
* the **main-stage gather** — the ``U_{m-i}^m`` unshuffle following the
  stage's nested networks;
* the **bit-sorter tables** — each tail of at most 16 lines as one
  lookup (:func:`bit_sorter_table`).

Plans are cached per ``m`` (:func:`compiled_plan`), so every fabric,
plane and worker process of a given size shares one set of tables.

The per-stage kernels live here too.  :func:`stage_flat_take` is one
main stage of :func:`~repro.core.pipeline_fast.route_frame_batch`, the
one frame kernel.  It packs the stage's address-bit slice into one
16-bit row per 16 lines and never touches the lines again until the
stage's gather is composed:

* a **splitter wider than 16 lines** (the stage's *head*) is decided
  16 lines at a time.  The arbiter is a tree of identical nodes, so a
  16-line subtree's switches depend only on its 16 bits and the one
  flag its parent node sends down: a row-parity lookup gives every
  group's XOR-up value, :func:`_subtree_flags` sends the flags down
  over those parities by lookups of 8 at a time, and one row of
  :func:`splitter_group_table` per (flag, 16-bit row) gives the
  group's 8 controls and the bits its upper and lower outputs carry
  into the unshuffle — so the next inner stage reads its rows from a
  byte reshuffle;
* every **bit-sorter tail** of at most 16 lines is one lookup in a
  :func:`bit_sorter_table`.

:func:`vector_splitter_controls` (the log-depth XOR-up/flag-down
arbiter pass over all boxes of a stage at once) builds those tables
and drives :func:`tree_stage_take_indices`, the arbiter-only stage that
the tables equal and that a masked stage runs on.

Faults are data here, not control flow: a :class:`FaultMask` carries
per-(main stage, inner stage) stuck-control override arrays plus
per-stage dead-link flags.  A main stage with a stuck override runs
wholly on the arbiter (:func:`tree_stage_take_indices`), where each
override is one masked ``where`` over the freshly computed control
column.  Because the kernels re-decide every splitter from the
addresses actually present on its inputs — exactly like the adaptive
object model (:class:`~repro.core.walk.AdaptiveModel`) — a masked pass
reproduces that model under the same mask bit for bit (pinned
exhaustively in the tests), so a faulty fabric is the same numpy
gather pipeline plus a masked ``where``.  Dead links
propagate as an int64 sentinel: :data:`DEAD_ADDRESS` is ``-1``, whose
every address bit reads 1, so a word crossing a dead link keeps
routing (as garbage, through the tables too) and keeps the sentinel
through every later stage until the output-side address check flags
it.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..bits import cached_shuffle_permutation
from ..exceptions import FaultError

__all__ = [
    "CompiledPlan",
    "DEAD_ADDRESS",
    "FaultMask",
    "StagePlan",
    "TABLE_WIDTH_EXP",
    "batch_stage_take_indices",
    "bit_sorter_table",
    "build_fault_mask",
    "compiled_plan",
    "frame_offsets",
    "splitter_group_table",
    "stage_flat_take",
    "tree_stage_take_indices",
    "vector_splitter_controls",
]

#: The dead-link sentinel.  As an int64, ``(-1 >> shift) & 1 == 1`` for
#: every shift, so a clobbered word still routes deterministically (as
#: an all-ones address) and the sentinel survives every later stage.
DEAD_ADDRESS = np.int64(-1)

#: Bit-sorter tails of at most ``2**TABLE_WIDTH_EXP`` lines route by one
#: lookup in :func:`bit_sorter_table`; wider splitters are decided
#: ``2**TABLE_WIDTH_EXP`` lines at a time by :func:`splitter_group_table`.
TABLE_WIDTH_EXP = 4

#: Rows per step of a table build, so its temporaries stay small.
_TABLE_CHUNK_ROWS = 4096


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """Precomputed index tables for one main stage of the BNB network.

    ``inner_gathers[j]`` implements the interstage unshuffle after inner
    (nested-GBN) stage ``j`` as a full-width gather: ``new = old[g]``.
    The last inner stage has no trailing unshuffle (``None``), matching
    the object model.  ``stage_gather`` is the main-network unshuffle
    ``U_{m-i}^m`` following the stage (``None`` on the last main stage).

    The first ``head_depth`` inner stages (splitters wider than 16
    lines) are decided 16 lines at a time by
    :func:`splitter_group_table`; the rest form bit-sorter tails of
    ``tail_width`` lines, routed by ``tail_table``
    (:func:`bit_sorter_table`).  ``tail_bases[y]`` is the first line of
    the tail block that feeds stage output ``y``, after the stage
    gather.
    """

    stage: int
    block_exp: int  # nested networks have size 2**block_exp
    shift: int  # address bit b^stage sits at this LSB-first position
    inner_widths: Tuple[int, ...]
    inner_gathers: Tuple[Optional[np.ndarray], ...]
    stage_gather: Optional[np.ndarray]
    head_depth: int
    tail_width: int
    tail_table: np.ndarray
    tail_bases: np.ndarray

    @property
    def nested_count(self) -> int:
        return 1 << self.stage


@dataclasses.dataclass(frozen=True)
class CompiledPlan:
    """All static routing structure of an ``N = 2**m`` BNB network."""

    m: int
    n: int
    stages: Tuple[StagePlan, ...]
    #: ``identity[j] == j`` — the scratch index base for swap composition.
    identity: np.ndarray


@dataclasses.dataclass(frozen=True)
class FaultMask:
    """Physical faults of one fabric instance, as dataplane arrays.

    ``overrides[(i, j)]`` is a ``(forced, values)`` pair of arrays
    shaped ``(2**(i + j), width // 2)`` — one row per splitter box of
    inner stage ``j`` of main stage ``i`` (row ``l * 2**j + box``, the
    order ``current.reshape(-1, width)`` produces), one column per
    switch.  Where ``forced`` is True the switch control is stuck at
    ``values`` regardless of what the arbiter decided; everywhere else
    the healthy control passes through.  ``dead_links[i]`` flags input
    lines of main stage ``i`` whose words are clobbered to
    :data:`DEAD_ADDRESS` on entry.

    The declarative ``stuck`` / ``dead`` tuples that built the mask are
    retained so fault sets can be merged (live injection rebuilds the
    mask from the union) and reported.
    """

    m: int
    stuck: Tuple[Tuple[Tuple[int, int, int, int, int], int], ...]
    dead: Tuple[Tuple[int, int], ...]
    overrides: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]
    dead_links: Dict[int, np.ndarray]

    def describe(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "stuck": [
                {"coordinate": list(coordinate), "value": value}
                for coordinate, value in self.stuck
            ],
            "dead_links": [
                {"main_stage": stage, "line": line}
                for stage, line in self.dead
            ],
        }


def build_fault_mask(
    m: int,
    stuck: Iterable[Tuple[Tuple[int, int, int, int, int], int]] = (),
    dead_links: Iterable[Tuple[int, int]] = (),
) -> FaultMask:
    """Compile a declarative fault set into per-stage override arrays.

    *stuck* items are ``((main_stage, nested, nested_stage, box,
    switch), value)`` — the same five-axis coordinates the object fault
    model uses (:class:`repro.faults.injector.SwitchCoordinate` fields,
    kept as plain tuples so the core layer stays import-free of the
    faults layer).  *dead_links* items are ``(main_stage, line)``.
    """
    if m < 1:
        raise ValueError(f"a fault mask needs m >= 1, got {m}")
    n = 1 << m
    stuck = tuple(
        (tuple(int(c) for c in coordinate), int(value))
        for coordinate, value in stuck
    )
    dead = tuple((int(stage), int(line)) for stage, line in dead_links)
    overrides: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    for coordinate, value in stuck:
        if len(coordinate) != 5:
            raise FaultError(
                f"stuck coordinate needs 5 axes (main_stage, nested, "
                f"nested_stage, box, switch), got {coordinate}"
            )
        i, nested, j, box, switch = coordinate
        if not 0 <= i < m:
            raise FaultError(f"main stage {i} out of range for m={m}")
        block_exp = m - i
        if not 0 <= nested < (1 << i):
            raise FaultError(f"nested index {nested} out of range at stage {i}")
        if not 0 <= j < block_exp:
            raise FaultError(f"nested stage {j} out of range at stage {i}")
        width = 1 << (block_exp - j)
        if not 0 <= box < (1 << j):
            raise FaultError(f"box {box} out of range at stage ({i}, {j})")
        if not 0 <= switch < width // 2:
            raise FaultError(
                f"switch {switch} out of range for width-{width} boxes"
            )
        if value not in (0, 1):
            raise FaultError(f"stuck value must be 0 or 1, got {value}")
        key = (i, j)
        if key not in overrides:
            rows = 1 << (i + j)
            overrides[key] = (
                np.zeros((rows, width // 2), dtype=bool),
                np.zeros((rows, width // 2), dtype=np.int64),
            )
        forced, values = overrides[key]
        row = (nested << j) + box
        forced[row, switch] = True
        values[row, switch] = value
    dead_map: Dict[int, np.ndarray] = {}
    for stage, line in dead:
        if not 0 <= stage < m:
            raise FaultError(f"main stage {stage} out of range for m={m}")
        if not 0 <= line < n:
            raise FaultError(f"line {line} out of range for n={n}")
        if stage not in dead_map:
            dead_map[stage] = np.zeros(n, dtype=bool)
        dead_map[stage][line] = True
    for forced, values in overrides.values():
        forced.flags.writeable = False
        values.flags.writeable = False
    for flags in dead_map.values():
        flags.flags.writeable = False
    return FaultMask(
        m=m, stuck=stuck, dead=dead, overrides=overrides, dead_links=dead_map
    )


def _block_gather(n: int, width_exp: int) -> np.ndarray:
    """Gather array applying the same unshuffle inside every width block.

    The scatter form used by the object model is
    ``new[U(x)] = old[x]`` within each block of ``2**width_exp`` lines;
    the equivalent gather is ``new[x] = old[S(x)]`` with ``S`` the
    shuffle (inverse) wiring.  Composed over all blocks of the full
    ``n``-line column.
    """
    width = 1 << width_exp
    inverse = np.fromiter(
        cached_shuffle_permutation(width_exp, width_exp),
        dtype=np.int64,
        count=width,
    )
    bases = np.arange(0, n, width, dtype=np.int64)
    return (bases[:, None] + inverse[None, :]).reshape(-1)


def _pattern_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """The table row of every run of *width* (2 to 16) lines in *bits*.

    Line ``x`` of a run, read as 1 when nonzero, is bit ``x`` of its
    row: ``packbits`` puts line 0 in the least significant bit.  A bool
    *bits* packs several times faster than an integer one.
    """
    packed = np.packbits(bits, axis=None, bitorder="little")
    if width == 16:
        return packed.view("<u2")
    if width == 8:
        return packed
    runs = _byte_runs(width).take(packed, axis=0)
    return runs.ravel()[: bits.size // width]


@functools.lru_cache(maxsize=None)
def _byte_runs(width: int) -> np.ndarray:
    """Row ``b``: the runs of *width* (2 or 4) bits of byte ``b``."""
    runs = np.arange(256)[:, None] >> np.arange(0, 8, width)
    runs = (runs & ((1 << width) - 1)).astype(np.uint8)
    runs.flags.writeable = False
    return runs


@functools.lru_cache(maxsize=None)
def bit_sorter_table(width_exp: int) -> np.ndarray:
    """The line permutation of a ``2**width_exp``-line bit-sorter network.

    Row ``r`` is the bit-sorter driven by bit ``(r >> x) & 1`` on input
    line ``x`` and holds the gather ``out[y] = in[table[r, y]]``.  One
    address-bit slice decides every switch of it, so the table is the
    whole network.  Built once per process by Definition 2's recursion
    — one splitter column decided by :func:`vector_splitter_controls`,
    the unshuffle, two lookups in the table one size down — so it
    equals the arbiter by construction; in 4,096-row chunks, so the
    16-line table (65,536 x 16 ``uint8``, 1 MiB) is the only large
    allocation.
    """
    if not 1 <= width_exp <= TABLE_WIDTH_EXP:
        raise ValueError(
            f"bit-sorter tables cover 2 to {1 << TABLE_WIDTH_EXP} lines, "
            f"got 2**{width_exp}"
        )
    width = 1 << width_exp
    half = width // 2
    lines = np.arange(width, dtype=np.uint8)
    if width_exp > 1:
        halves = bit_sorter_table(width_exp - 1)
        unshuffle = _block_gather(width, width_exp)
    table = np.empty((1 << width, width), dtype=np.uint8)
    for start in range(0, len(table), _TABLE_CHUNK_ROWS):
        rows = np.arange(
            start, min(start + _TABLE_CHUNK_ROWS, len(table)), dtype=np.uint16
        )
        bits = ((rows[:, None] >> lines) & 1).astype(np.uint8)
        controls = vector_splitter_controls(bits)
        # The splitter column: each line swaps with its pair partner
        # exactly when its switch says exchange.
        step = lines ^ np.repeat(controls, 2, axis=1)
        if width_exp > 1:
            step = step[:, unshuffle]
            moved = np.take_along_axis(bits, step, axis=1)
            inner = np.concatenate(
                [
                    halves[_pattern_rows(moved[:, :half], half)],
                    halves[_pattern_rows(moved[:, half:], half)]
                    + np.uint8(half),
                ],
                axis=1,
            )
            step = np.take_along_axis(step, inner, axis=1)
        table[start : start + len(rows)] = step
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _row_parity() -> np.ndarray:
    """The XOR of the 16 bits of every 16-bit row (64 KiB)."""
    rows = np.arange(1 << 16, dtype=np.uint16)
    for shift in (8, 4, 2, 1):
        rows ^= rows >> shift
    parity = (rows & 1).astype(np.uint8)
    parity.flags.writeable = False
    return parity


@functools.lru_cache(maxsize=None)
def _subtree_flag_table() -> np.ndarray:
    """The flags an 8-leaf arbiter subtree sends to its leaves.

    Row ``(flag << 8) | p`` holds them, one per leaf, for leaf values
    ``(p >> x) & 1`` when the subtree's root receives *flag* (512 x 8
    ``uint8``).  A run of ``2**k < 8`` leaves padded with zeros reads
    its own flags off the first ``2**k`` columns: with zeros beside
    them, every node on the path down to the run passes *flag* through
    when the run's parity is 1, and when it is 0 the run's root sends
    (0, 1) whatever it receives.
    """
    index = np.arange(512)
    leaves = ((index[:, None] >> np.arange(8)) & 1).astype(np.uint8)
    table = _arbiter_flags(leaves, index >> 8)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _root_flag_table() -> np.ndarray:
    """:func:`_subtree_flag_table` where the 8 subtrees make up a whole
    splitter, whose root echoes its parity: row ``p`` (256 x 8)."""
    leaves = np.arange(256)
    parity = _row_parity()[leaves].astype(np.intp)
    table = _subtree_flag_table()[(parity << 8) | leaves]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def splitter_group_table() -> np.ndarray:
    """Every 16-line group of a splitter wider than 16 lines, decided.

    The arbiter is a tree of identical function nodes, so the switches
    under a 16-input subtree depend only on its 16 bits and the one
    flag its parent node sends down.  Row ``(flag << 16) | r`` holds,
    for the group whose line ``x`` carries bit ``(r >> x) & 1``, three
    bytes: the 8 switch controls (bit ``t`` for switch ``t``), then the
    bits its 8 upper and its 8 lower outputs carry into the unshuffle
    (131,072 x 3 ``uint8``, 384 KiB).  A whole splitter's root echoes
    its own parity, so a 16-line splitter is the row with ``flag`` equal
    to the parity of ``r``.  Built once per process by
    :func:`vector_splitter_controls` with the parent flag given, in
    4,096-row chunks.
    """
    lines = np.arange(16, dtype=np.uint16)
    table = np.empty((2 << 16, 3), dtype=np.uint8)
    for start in range(0, len(table), _TABLE_CHUNK_ROWS):
        index = np.arange(start, start + _TABLE_CHUNK_ROWS)
        rows = (index & 0xFFFF).astype(np.uint16)
        bits = ((rows[:, None] >> lines) & 1).astype(np.uint8)
        controls = vector_splitter_controls(bits, index >> 16)
        even, odd = bits[:, 0::2], bits[:, 1::2]
        upper = even ^ (controls & (even ^ odd))
        for column, values in enumerate((controls, upper, upper ^ even ^ odd)):
            table[start : start + _TABLE_CHUNK_ROWS, column] = np.packbits(
                values, axis=1, bitorder="little"
            )[:, 0]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def compiled_plan(m: int) -> CompiledPlan:
    """Build (once per process per ``m``) the compiled routing plan."""
    if m < 1:
        raise ValueError(f"a routing plan needs m >= 1, got {m}")
    n = 1 << m
    stages = []
    for i in range(m):
        block_exp = m - i
        widths = tuple(1 << (block_exp - j) for j in range(block_exp))
        gathers = tuple(
            _block_gather(n, block_exp - j) if j < block_exp - 1 else None
            for j in range(block_exp)
        )
        stage_gather = _block_gather(n, block_exp) if i < m - 1 else None
        tail_exp = min(block_exp, TABLE_WIDTH_EXP)
        tail_bases = (np.arange(n, dtype=np.int64) >> tail_exp) << tail_exp
        if stage_gather is not None:
            tail_bases = tail_bases[stage_gather]
        stages.append(
            StagePlan(
                stage=i,
                block_exp=block_exp,
                shift=m - 1 - i,
                inner_widths=widths,
                inner_gathers=gathers,
                stage_gather=stage_gather,
                head_depth=block_exp - tail_exp,
                tail_width=1 << tail_exp,
                tail_table=bit_sorter_table(tail_exp),
                tail_bases=tail_bases,
            )
        )
    if stages[0].head_depth:
        # Splitters wider than 16 lines: build their tables now, not on
        # the first routed frame.
        _row_parity()
        _root_flag_table()
        splitter_group_table()
    plan = CompiledPlan(
        m=m,
        n=n,
        stages=tuple(stages),
        identity=np.arange(n, dtype=np.int64),
    )
    # The plan is cached and shared by every fabric, plane and worker of
    # this size; freeze the tables so no caller can corrupt the cache.
    for stage in plan.stages:
        for gather in stage.inner_gathers:
            if gather is not None:
                gather.flags.writeable = False
        if stage.stage_gather is not None:
            stage.stage_gather.flags.writeable = False
        stage.tail_bases.flags.writeable = False
    plan.identity.flags.writeable = False
    return plan


def _arbiter_flags(
    bits: np.ndarray, flag: Optional[np.ndarray] = None
) -> np.ndarray:
    """The flag the arbiter tree sends down to every input line.

    *bits* is ``(blocks, width)``; *flag* the ``(blocks,)`` flags each
    block's root receives from a parent node, or None for a whole
    splitter, whose root echoes its own up-value.
    """
    # Upward pass.
    ups = []
    current = bits
    while current.shape[1] > 1:
        current = current[:, 0::2] ^ current[:, 1::2]
        ups.append(current)
    # Downward pass.  All values are 0/1 ints, so the per-node selection
    # "u == 0 picks (0, 1), u == 1 echoes the parent flag" is pure bit
    # arithmetic: y1 = z & u, y2 = z | ~u — cheaper than the equivalent
    # ``where``.
    if flag is None:
        z_down = ups[-1]  # shape (blocks, 1)
    else:
        z_down = np.asarray(flag, dtype=bits.dtype).reshape(-1, 1)
    for level in range(len(ups) - 1, -1, -1):
        u = ups[level]
        interleaved = np.empty((u.shape[0], u.shape[1] * 2), dtype=bits.dtype)
        interleaved[:, 0::2] = z_down & u
        interleaved[:, 1::2] = z_down | (u ^ 1)
        z_down = interleaved
    return z_down  # shape (blocks, width): one flag per input line


def vector_splitter_controls(
    bits: np.ndarray, flag: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized arbiter + switch-setting over blocks of bit rows.

    *bits* has shape ``(blocks, width)``; returns controls of shape
    ``(blocks, width // 2)``.  Mirrors :class:`~repro.core.arbiter.Arbiter`
    exactly (tests enforce agreement element by element).  With *flag*
    (``(blocks,)`` 0/1 values) each block is instead a subtree of a
    wider splitter whose root receives that flag from its parent node;
    a whole splitter is the case flag = parity of its bits.
    """
    if bits.shape[1] == 2 and flag is None:
        # sp(1): the upper input bit is the control.
        return bits[:, 0:1].copy()
    return bits[:, 0::2] ^ _arbiter_flags(bits, flag)[:, 0::2]


def frame_offsets(plan: CompiledPlan, batch: int) -> np.ndarray:
    """Each frame's first line in a ravelled ``(batch, n)`` batch."""
    return np.arange(0, batch * plan.n, plan.n)[:, None]


def _arbiter_take(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask],
) -> np.ndarray:
    """Run every inner stage of a main stage on the arbiter.

    Returns the composed ``(batch, n)`` gather index.  Every splitter
    column of every frame is decided in one arbiter pass (the frames
    stack onto the block axis), and a stuck override in *mask* holds
    its forced controls — the same physical switch stuck in every
    frame.
    """
    batch = addresses.shape[0]
    offsets = frame_offsets(plan, batch)
    take: Optional[np.ndarray] = None
    current = addresses
    for j in range(stage.block_exp):
        width = stage.inner_widths[j]
        gather = stage.inner_gathers[j]
        # (batch * blocks, width): frames stack onto the block axis.
        blocks = current.reshape(-1, width)
        controls = vector_splitter_controls((blocks >> stage.shift) & 1)
        if mask is not None:
            override = mask.overrides.get((stage.stage, j))
            if override is not None:
                forced, values = override
                per_frame = controls.reshape(batch, *forced.shape)
                controls = np.where(
                    forced[None, :, :], values[None, :, :], per_frame
                )
        # identity ^ control sends a line to its pair partner exactly
        # when its splitter says exchange (controls are 0/1 ints).
        swap = plan.identity ^ np.repeat(
            controls.reshape(batch, plan.n // 2), 2, axis=1
        )
        # gather is frame-independent wiring, so fancy-indexing the
        # column axis applies it to every frame at once.
        step = swap if gather is None else swap[:, gather]
        # Row offsets turn per-frame gathers into one flat ``take`` over
        # the ravelled batch — much cheaper than ``take_along_axis``.
        flat = step + offsets
        current = current.ravel().take(flat)
        # First step composes with identity — the step IS the take.
        take = step if take is None else take.ravel().take(flat)
    return take


def tree_stage_take_indices(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """One main stage decided wholly by the arbiter, over a batch.

    *addresses* is ``(batch, n)``, the per-line destination addresses
    at the stage's input; the returned ``take`` has the same shape:
    ``new = old[take]`` row by row.  A :class:`FaultMask`'s stuck
    switches hold their forced value in place of the arbiter's
    decision, and downstream splitters re-decide from the addresses in
    front of them, as in the adaptive object model.  (Dead links
    clobber words at stage input, in the caller.)  The reference the
    stage tables equal.
    """
    take = _arbiter_take(plan, stage, addresses, mask)
    if stage.stage_gather is not None:
        take = take[:, stage.stage_gather]
    return take


def _subtree_flags(parities: np.ndarray) -> np.ndarray:
    """The flag a splitter's arbiter sends to each of its subtrees.

    *parities* is ``(splitters, count)``: the XOR-up values of
    ``count`` (a power of two) equal subtrees of each splitter, in line
    order; the result is their flags, same shape.  Up to eight subtrees
    are one :func:`_root_flag_table` row.  More are grouped by eight:
    the groups' flags come from their own parities the same way, and
    each group's subtrees then read theirs off its
    :func:`_subtree_flag_table` row.
    """
    count = parities.shape[1]
    packed = np.packbits(parities, axis=1, bitorder="little")
    if packed.shape[1] == 1:
        flags = _root_flag_table().take(packed[:, 0], axis=0)
    else:
        groups = _subtree_flags(_row_parity().take(packed))
        index = np.left_shift(groups, 8, dtype=np.intp)
        index |= packed
        flags = _subtree_flag_table().take(index, axis=0)
    return flags.reshape(-1, packed.shape[1] * 8)[:, :count]


def _head_step(
    rows: np.ndarray, width: int, gather: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One inner stage of splitters wider than 16 lines, on packed rows.

    *rows* holds the slice bits of every 16 lines, in line order,
    *gather* is the stage's unshuffle and *offsets* each frame's first
    line in the ravelled batch.  Returns the rows after the unshuffle
    and the stage's flat gather (the switches, then the unshuffle).
    """
    groups = width // 16
    flags = _subtree_flags(_row_parity().take(rows).reshape(-1, groups))
    index = np.left_shift(flags, 16, dtype=np.intp).ravel()
    index |= rows
    entries = splitter_group_table().take(index, axis=0)
    entries = entries.reshape(-1, groups, 3)
    # The unshuffle puts every group's upper outputs, in group order, on
    # the splitter's upper half and its lower outputs on the lower half.
    halves = np.ascontiguousarray(entries[:, :, 1:].transpose(0, 2, 1))
    # Output y of a splitter's upper or lower half comes from switch
    # y % (width / 2); the unshuffle alone takes it from that switch's
    # upper or lower input, and an exchanging switch flips the choice.
    controls = np.unpackbits(entries[:, :, 0], axis=1, bitorder="little")
    step = np.add(offsets, gather)
    halved = step.reshape(-1, 2, width // 2)
    np.bitwise_xor(halved, controls[:, None, :], out=halved)
    return halves.view("<u2").ravel(), step.ravel()


def _tail_step(
    stage: StagePlan, rows: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """The stage's bit-sorter tails and its unshuffle, as one flat gather.

    Looks up each tail's row in ``stage.tail_table`` and offsets the
    row's in-tail gather by the tail's first line in the ravelled batch.
    """
    local = stage.tail_table.take(rows, axis=0)
    local = local.reshape(-1, stage.tail_bases.size)
    if stage.stage_gather is not None:
        local = local.take(stage.stage_gather, axis=1)
    flat = np.add(offsets, stage.tail_bases)
    flat += local
    return flat.ravel()


def stage_flat_take(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    offsets: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """One main stage over a batch, as one gather over the whole batch.

    *addresses* holds ``batch`` frames of ``n`` lines (shape
    ``(batch, n)``, or ravelled) and *offsets* is ``(batch, 1)``: frame
    ``b``'s first line, ``b * n``.  The result ``flat`` is
    ``(batch * n,)`` and ``addresses.ravel()[flat]`` is the batch after
    the stage.  Same decisions as :func:`tree_stage_take_indices`: the
    stage's slice bits are packed once, each inner stage of splitters
    wider than 16 lines is decided on the packed rows
    (:func:`splitter_group_table`) and each bit-sorter tail after them
    is one table row.  A stage with a stuck override in *mask* runs
    wholly on the arbiter; dead links need no such care, since
    :data:`DEAD_ADDRESS` reads as all ones in the rows too.
    """
    if mask is not None and any(i == stage.stage for i, _j in mask.overrides):
        frames = addresses.reshape(-1, plan.n)
        take = tree_stage_take_indices(plan, stage, frames, mask)
        return (take + offsets).ravel()
    rows = _pattern_rows(
        (addresses & (1 << stage.shift)) != 0, stage.tail_width
    )
    take = None
    for j in range(stage.head_depth):
        rows, step = _head_step(
            rows, stage.inner_widths[j], stage.inner_gathers[j], offsets
        )
        take = step if take is None else take.take(step)
    tail = _tail_step(stage, rows, offsets)
    return tail if take is None else take.take(tail)


def batch_stage_take_indices(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """:func:`stage_flat_take` per frame: ``new = old[take]`` row by row.

    Same contract and answer as :func:`tree_stage_take_indices`.
    """
    offsets = frame_offsets(plan, addresses.shape[0])
    flat = stage_flat_take(plan, stage, addresses, offsets, mask)
    return flat.reshape(addresses.shape) - offsets
