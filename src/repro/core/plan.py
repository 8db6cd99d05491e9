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

The per-stage kernels live here too: :func:`vector_splitter_controls`
(the log-depth XOR-up/flag-down arbiter pass over all boxes of a stage
at once) and :func:`batch_stage_take_indices`, which runs a stage's
splitters wider than 16 lines on it and every bit-sorter tail of at
most 16 lines as one lookup in a :func:`bit_sorter_table`.  They are
the steps of :func:`~repro.core.pipeline_fast.route_frame_batch`, the
one frame kernel.

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
    "tree_stage_take_indices",
    "vector_splitter_controls",
]

#: The dead-link sentinel.  As an int64, ``(-1 >> shift) & 1 == 1`` for
#: every shift, so a clobbered word still routes deterministically (as
#: an all-ones address) and the sentinel survives every later stage.
DEAD_ADDRESS = np.int64(-1)

#: Bit-sorter tails of at most ``2**TABLE_WIDTH_EXP`` lines route by one
#: lookup in :func:`bit_sorter_table`; wider splitters use the arbiter.
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
    lines) run on the arbiter; the rest form bit-sorter tails of
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
    row: ``packbits`` puts line 0 in the least significant bit.
    """
    packed = np.packbits(bits, axis=None, bitorder="little")
    if width == 16:
        return packed.view("<u2")
    if width == 8:
        return packed
    runs = packed[:, None] >> np.arange(0, 8, width, dtype=np.uint8)
    return (runs & ((1 << width) - 1)).ravel()[: bits.size // width]


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


def vector_splitter_controls(bits: np.ndarray) -> np.ndarray:
    """Vectorized arbiter + switch-setting over blocks of bit rows.

    *bits* has shape ``(blocks, width)``; returns controls of shape
    ``(blocks, width // 2)``.  Mirrors :class:`~repro.core.arbiter.Arbiter`
    exactly (tests enforce agreement element by element).
    """
    width = bits.shape[1]
    if width == 2:
        # sp(1): the upper input bit is the control.
        return bits[:, 0:1].copy()
    # Upward pass.
    ups = []
    current = bits
    while current.shape[1] > 1:
        current = current[:, 0::2] ^ current[:, 1::2]
        ups.append(current)
    # Downward pass; the root echoes its own up-value as its parent flag.
    # All values are 0/1 ints, so the per-node selection "u == 0 picks
    # (0, 1), u == 1 echoes the parent flag" is pure bit arithmetic:
    # y1 = z & u, y2 = z | ~u — cheaper than the equivalent ``where``.
    z_down = ups[-1]  # shape (blocks, 1)
    for level in range(len(ups) - 1, -1, -1):
        u = ups[level]
        interleaved = np.empty((u.shape[0], u.shape[1] * 2), dtype=bits.dtype)
        interleaved[:, 0::2] = z_down & u
        interleaved[:, 1::2] = z_down | (u ^ 1)
        z_down = interleaved
    flags = z_down  # shape (blocks, width): one flag per input line
    return bits[:, 0::2] ^ flags[:, 0::2]


def _arbiter_take(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    depth: int,
    mask: Optional[FaultMask],
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the first *depth* (at least one) inner stages on the arbiter.

    Returns ``(take, current)``: the composed ``(batch, n)`` gather
    index and the addresses it leaves on the lines.  Every splitter
    column of every frame is decided in one arbiter pass (the frames
    stack onto the block axis), and a stuck override in *mask* holds
    its forced controls — the same physical switch stuck in every
    frame.
    """
    batch = addresses.shape[0]
    take: Optional[np.ndarray] = None
    current = addresses
    for j in range(depth):
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
    return take, current


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
    offsets = (np.arange(addresses.shape[0], dtype=np.int64) * plan.n)[:, None]
    take, _current = _arbiter_take(
        plan, stage, addresses, stage.block_exp, mask, offsets
    )
    if stage.stage_gather is not None:
        take = take[:, stage.stage_gather]
    return take


def _table_step(stage: StagePlan, addresses: np.ndarray) -> np.ndarray:
    """The stage's bit-sorter tails, and its unshuffle, as one gather.

    Packs each tail's slice bits into its row of ``stage.tail_table``
    and offsets the row's in-tail gather by the tail's first line.
    """
    rows = _pattern_rows(addresses & (1 << stage.shift), stage.tail_width)
    local = stage.tail_table.take(rows, axis=0).reshape(addresses.shape)
    if stage.stage_gather is not None:
        local = local.take(stage.stage_gather, axis=1)
    return local + stage.tail_bases


def batch_stage_take_indices(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """One main stage over a batch: arbiter head, table tail.

    Same contract and answer as :func:`tree_stage_take_indices`.  The
    stage's first ``head_depth`` inner stages (splitters wider than 16
    lines) run on the arbiter, and each bit-sorter tail after them is
    one table row.  A stage with a stuck override in *mask* runs wholly
    on the arbiter; dead links need no such care, since
    :data:`DEAD_ADDRESS` reads as all ones in the table row too.
    """
    if mask is not None and any(i == stage.stage for i, _j in mask.overrides):
        return tree_stage_take_indices(plan, stage, addresses, mask)
    if not stage.head_depth:
        return _table_step(stage, addresses)
    offsets = (np.arange(addresses.shape[0], dtype=np.int64) * plan.n)[:, None]
    take, current = _arbiter_take(
        plan, stage, addresses, stage.head_depth, None, offsets
    )
    return take.ravel().take(_table_step(stage, current) + offsets)
