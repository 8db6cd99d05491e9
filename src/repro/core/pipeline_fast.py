"""The compiled BNB kernels: whole frames routed as numpy gathers.

:func:`route_frame_sources` routes one frame and
:func:`route_frame_batch` a ``(batch, n)`` stack of frames through all
``m`` main stages of the BNB network.  Each stage's splitter decisions
run as log-depth XOR-up/flag-down array passes over **all** boxes of
the stage at once, and every interstage wire is a precompiled gather
from the per-``m`` :class:`~repro.core.plan.CompiledPlan` cache, so no
Python-level ``Word``, ``Splitter`` or ``Arbiter`` is touched.  They
are the ``"bnb"`` routing backend (:mod:`repro.backends.bnb`) that the
gateway's ``vector``, ``batch`` and ``bnb`` engines serve on.

Physical faults ride along as data rather than as the object engine's
``control_override`` callback: pass a
:class:`~repro.core.plan.FaultMask` and every stuck switch becomes a
masked ``where`` over the stage's control column, while dead links
clobber their line's address to :data:`~repro.core.plan.DEAD_ADDRESS`
at stage input so the sentinel propagates to the output-side check.
Because each stage re-decides its splitters from live addresses, the
masked kernels agree with the adaptive object model
(``route_with_stuck_switch`` /
``PipelinedBNBFabric(control_override=...)``) bit for bit; the
differential fuzz suite checks them frame by frame.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .plan import (
    DEAD_ADDRESS,
    FaultMask,
    batch_stage_take_indices,
    compiled_plan,
    stage_take_indices,
)

__all__ = ["route_frame_batch", "route_frame_sources"]


def route_frame_sources(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route one frame; return source line per output.

    All ``m`` main stages in one call: ``result[line]`` is the input
    line whose word arrives on output ``line``.  For a valid
    permutation on a healthy fabric, output ``line`` carries the word
    addressed to it; with a :class:`~repro.core.plan.FaultMask` the
    result is the (possibly misrouting) faulty fabric's arrival order.
    The ``"bnb"`` backend's ``route_frame``: the lone-frame path of
    every BNB plane.
    """
    plan = compiled_plan(m)
    current = np.asarray(addresses, dtype=np.int64)
    sources = plan.identity
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead, DEAD_ADDRESS, current)
        take = stage_take_indices(plan, stage, current, mask=mask)
        current = current[take]
        sources = sources[take]
    return sources


def route_frame_batch(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route a whole **batch** of frames in one pass.

    The frame-axis form of :func:`route_frame_sources`: *addresses* has
    shape ``(batch, n)`` — each row an independent full permutation —
    and the result has the same shape, ``result[b, line]`` being the
    input line of frame ``b`` whose word arrives on output ``line``.
    Every stage steps **all** frames with one set of numpy gathers
    (:func:`~repro.core.plan.batch_stage_take_indices`), so the
    per-frame Python overhead of the single-shot path amortizes across
    the batch — this is the kernel behind the gateway's batched wire
    protocol (``send_batch`` riding a ``batch``-engine
    :class:`~repro.server.planes.BackendPlane`).  Row-for-row
    identical to :func:`route_frame_sources` on each frame alone, with
    or without a :class:`~repro.core.plan.FaultMask` (the mask
    broadcasts: the same physical fault afflicts every frame).
    """
    plan = compiled_plan(m)
    current = np.array(addresses, dtype=np.int64, copy=True)
    if current.ndim != 2 or current.shape[1] != plan.n:
        raise ValueError(
            f"a frame batch for m={m} needs shape (batch, {plan.n}), "
            f"got {current.shape}"
        )
    batch = current.shape[0]
    sources = np.broadcast_to(plan.identity, (batch, plan.n)).copy()
    # Flat row-offset gathers instead of take_along_axis: one shared
    # index array per stage, no per-call index-grid rebuild.
    offsets = (np.arange(batch, dtype=np.int64) * plan.n)[:, None]
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead[None, :], DEAD_ADDRESS, current)
        take = batch_stage_take_indices(plan, stage, current, mask=mask)
        flat = take + offsets
        current = current.ravel().take(flat)
        sources = sources.ravel().take(flat)
    return sources
