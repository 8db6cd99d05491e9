"""The compiled BNB kernel: whole frames routed as numpy gathers.

:func:`route_frame_batch` routes a ``(batch, n)`` stack of frames
through all ``m`` main stages of the BNB network; a lone frame is a
one-row batch.  Each main stage packs its address-bit slice into one
16-bit row per 16 lines, decides its splitters wider than 16 lines on
those rows by table lookups (16 lines and one parent flag at a time),
routes every bit-sorter tail of at most 16 lines by one lookup in a
precompiled table, and composes all of it, with the stage's wiring,
into one gather — see :func:`~repro.core.plan.stage_flat_take` and the
per-``m`` :class:`~repro.core.plan.CompiledPlan` cache — so no
Python-level ``Word``, ``Splitter`` or ``Arbiter`` is touched.  It is
the ``"bnb"`` routing backend (:mod:`repro.backends.bnb`) that the
gateway's ``batch`` and ``bnb`` engines serve on.

Physical faults ride along as data: pass a
:class:`~repro.core.plan.FaultMask` and every stuck switch becomes a
masked ``where`` over its stage's control column (that stage runs
wholly on the arbiter), while dead links clobber their line's address
to :data:`~repro.core.plan.DEAD_ADDRESS` at stage input so the sentinel
propagates to the output-side check.  Because each stage re-decides
its splitters from live addresses, the masked kernel agrees bit for
bit with the adaptive object model
(:class:`~repro.core.walk.AdaptiveModel`, behind
``PipelinedBNBFabric(m, mask=...)``) fed the same mask; the
differential fuzz suite checks it frame by frame.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .plan import (
    DEAD_ADDRESS,
    FaultMask,
    compiled_plan,
    frame_offsets,
    stage_flat_take,
)

__all__ = ["route_frame_batch"]


def route_frame_batch(
    m: int, addresses: np.ndarray, mask: Optional[FaultMask] = None
) -> np.ndarray:
    """Combinationally route a whole **batch** of frames in one pass.

    *addresses* has shape ``(batch, n)`` — each row an independent
    frame — and the result has the same shape, ``result[b, line]``
    being the input line of frame ``b`` whose word arrives on output
    ``line``.  For a valid permutation on a healthy fabric, output
    ``line`` carries the word addressed to it; with a
    :class:`~repro.core.plan.FaultMask` the result is the (possibly
    misrouting) faulty fabric's arrival order, and the mask broadcasts:
    the same physical fault afflicts every frame.  Every stage steps
    **all** frames with one gather
    (:func:`~repro.core.plan.stage_flat_take`), so the Python overhead
    per call amortizes across the batch.
    """
    plan = compiled_plan(m)
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.ndim != 2 or addresses.shape[1] != plan.n:
        raise ValueError(
            f"a frame batch for m={m} needs shape (batch, {plan.n}), "
            f"got {addresses.shape}"
        )
    # Only an address's low m bits steer it, so each word travels as one
    # int64 key, its input line above those bits: one gather per stage
    # moves both.  DEAD_ADDRESS reads as all ones in the low bits.
    low = plan.n - 1
    keys = ((addresses & low) | (plan.identity << m)).ravel()
    offsets = frame_offsets(plan, addresses.shape[0])
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                frames = keys.reshape(addresses.shape)
                keys = np.where(dead, frames | (DEAD_ADDRESS & low), frames)
                keys = keys.ravel()
        keys = keys.take(stage_flat_take(plan, stage, keys, offsets, mask))
    return (keys >> m).reshape(addresses.shape)
