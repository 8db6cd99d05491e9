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
* the **nested-network line groupings** — which contiguous lines form
  each NB(i, l), for boundary checks and sampled verification;
* the **pair indices** — even/odd line index arrays the switch columns
  pair up.

Plans are cached per ``m`` (:func:`compiled_plan`), so every fabric,
plane and worker process of a given size shares one set of tables.

The two routing kernels live here too: :func:`vector_splitter_controls`
(the log-depth XOR-up/flag-down arbiter pass over all boxes of a stage
at once) and :func:`vector_apply_controls`.  They are the single vector
implementation behind both the combinational
:meth:`~repro.core.bnb.BNBNetwork.route_fast` and the frame kernels
of :mod:`repro.core.pipeline_fast`.

Faults are data here, not control flow: a :class:`FaultMask` carries
per-(main stage, inner stage) stuck-control override arrays plus
per-stage dead-link flags, and :func:`stage_take_indices` applies them
as one masked ``where`` over the freshly computed control column.
Because the vector kernels re-decide every splitter from the addresses
actually present on its inputs — exactly like the adaptive object model
in :mod:`repro.faults.adaptive` — a masked vector pass reproduces
:func:`~repro.faults.adaptive.route_with_stuck_switch` bit for bit
(pinned exhaustively in the tests), so a faulty fabric is the same
numpy gather pipeline plus a masked ``where``.  Dead links propagate as
an int64 sentinel: :data:`DEAD_ADDRESS` is ``-1``, whose every address
bit reads 1, so a word crossing a dead link keeps routing (as garbage)
and keeps the sentinel through every later stage until the output-side
address check flags it.
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
    "batch_stage_take_indices",
    "build_fault_mask",
    "compiled_plan",
    "stage_take_indices",
    "vector_splitter_controls",
    "vector_apply_controls",
]

#: The dead-link sentinel.  As an int64, ``(-1 >> shift) & 1 == 1`` for
#: every shift, so a clobbered word still routes deterministically (as
#: an all-ones address) and the sentinel survives every later stage.
DEAD_ADDRESS = np.int64(-1)


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """Precomputed index tables for one main stage of the BNB network.

    ``inner_gathers[j]`` implements the interstage unshuffle after inner
    (nested-GBN) stage ``j`` as a full-width gather: ``new = old[g]``.
    The last inner stage has no trailing unshuffle (``None``), matching
    the object model.  ``stage_gather`` is the main-network unshuffle
    ``U_{m-i}^m`` following the stage (``None`` on the last main stage).
    """

    stage: int
    block_exp: int  # nested networks have size 2**block_exp
    shift: int  # address bit b^stage sits at this LSB-first position
    inner_widths: Tuple[int, ...]
    inner_gathers: Tuple[Optional[np.ndarray], ...]
    stage_gather: Optional[np.ndarray]

    @property
    def nested_count(self) -> int:
        return 1 << self.stage


@dataclasses.dataclass(frozen=True)
class CompiledPlan:
    """All static routing structure of an ``N = 2**m`` BNB network."""

    m: int
    n: int
    stages: Tuple[StagePlan, ...]
    #: ``line_groups[i]`` has shape ``(2**i, 2**(m-i))``: row ``l`` lists
    #: the contiguous lines of nested network NB(i, l).
    line_groups: Tuple[np.ndarray, ...]
    #: Even/odd members of every switch pair (``pair_even[t]`` and
    #: ``pair_odd[t]`` are the two lines of pair ``t``).
    pair_even: np.ndarray
    pair_odd: np.ndarray
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
        stages.append(
            StagePlan(
                stage=i,
                block_exp=block_exp,
                shift=m - 1 - i,
                inner_widths=widths,
                inner_gathers=gathers,
                stage_gather=stage_gather,
            )
        )
    line_groups = tuple(
        np.arange(n, dtype=np.int64).reshape(1 << i, 1 << (m - i))
        for i in range(m)
    )
    plan = CompiledPlan(
        m=m,
        n=n,
        stages=tuple(stages),
        line_groups=line_groups,
        pair_even=np.arange(0, n, 2, dtype=np.int64),
        pair_odd=np.arange(1, n, 2, dtype=np.int64),
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
    for group in plan.line_groups:
        group.flags.writeable = False
    for array in (plan.pair_even, plan.pair_odd, plan.identity):
        array.flags.writeable = False
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


def vector_apply_controls(
    blocks: np.ndarray, controls: np.ndarray
) -> np.ndarray:
    """Apply pairwise exchange controls to blocks of lines."""
    out = np.empty_like(blocks)
    even = blocks[:, 0::2]
    odd = blocks[:, 1::2]
    exchange = controls.astype(bool)
    out[:, 0::2] = np.where(exchange, odd, even)
    out[:, 1::2] = np.where(exchange, even, odd)
    return out


def stage_take_indices(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """One main stage's full line permutation, as a gather index array.

    Runs the stage's nested networks over *addresses* (the per-line
    destination addresses at the stage's input) exactly as the hardware
    would — all boxes of each inner stage decided at once by the
    log-depth arbiter pass — and composes the resulting exchanges with
    the precompiled unshuffle gathers.  The caller applies the returned
    ``take`` to every per-line array it carries:
    ``new_arr = arr[take]``.

    With a :class:`FaultMask`, each inner stage's stuck switches hold
    their forced value in place of the arbiter's decision — a single
    masked ``where`` over the control column.  Downstream splitters
    still re-decide from the addresses actually in front of them, so
    the faulty vector pass matches the adaptive object model exactly.
    (Dead-link clobbering happens at stage *input*, in the caller —
    see :data:`DEAD_ADDRESS`.)
    """
    take = plan.identity
    current = addresses
    shift = stage.shift
    for j, (width, gather) in enumerate(
        zip(stage.inner_widths, stage.inner_gathers)
    ):
        blocks = current.reshape(-1, width)
        bits = (blocks >> shift) & 1
        controls = vector_splitter_controls(bits)
        if mask is not None:
            override = mask.overrides.get((stage.stage, j))
            if override is not None:
                forced, values = override
                controls = np.where(forced, values, controls)
        # One full-width "swap with partner" index per line...
        exchange = np.repeat(controls.reshape(-1).astype(bool), 2)
        swap = np.where(exchange, plan.identity ^ 1, plan.identity)
        # ...composed with the (precompiled) interstage unshuffle.
        step = swap if gather is None else swap[gather]
        take = take[step]
        current = current[step]
    if stage.stage_gather is not None:
        take = take[stage.stage_gather]
    return take


def batch_stage_take_indices(
    plan: CompiledPlan,
    stage: StagePlan,
    addresses: np.ndarray,
    mask: Optional[FaultMask] = None,
) -> np.ndarray:
    """One main stage over a whole **batch** of frames at once.

    The frame-axis form of :func:`stage_take_indices`: *addresses* has
    shape ``(batch, n)`` — one row per independent frame — and the
    returned ``take`` has the same shape, row ``b`` being the gather
    index array for frame ``b``.  Every splitter column of every frame
    is decided in one arbiter pass (the frames stack onto the block
    axis, so the log-depth XOR-up/flag-down recursion is identical),
    and the per-frame exchange/unshuffle compositions become
    ``take_along_axis`` gathers with the frame axis leading.  A
    :class:`FaultMask` broadcasts over the batch: the same physical
    switch is stuck in every frame, exactly as hardware would be.
    """
    batch = addresses.shape[0]
    # Row offsets turn per-frame gathers into one flat ``take`` over the
    # ravelled batch — much cheaper than ``take_along_axis``, which
    # rebuilds a full index grid on every call.
    offsets = (np.arange(batch, dtype=np.int64) * plan.n)[:, None]
    take: Optional[np.ndarray] = None
    current = addresses
    shift = stage.shift
    for j, (width, gather) in enumerate(
        zip(stage.inner_widths, stage.inner_gathers)
    ):
        # (batch * blocks, width): frames stack onto the block axis.
        blocks = current.reshape(-1, width)
        bits = (blocks >> shift) & 1
        controls = vector_splitter_controls(bits)
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
            controls.reshape(batch, -1), 2, axis=1
        )
        # gather is frame-independent wiring, so fancy-indexing the
        # column axis applies it to every frame at once.
        step = swap if gather is None else swap[:, gather]
        flat = step + offsets
        current = current.ravel().take(flat)
        # First step composes with identity — the step IS the take.
        take = step if take is None else take.ravel().take(flat)
    if stage.stage_gather is not None:
        take = take[:, stage.stage_gather]
    return take
