"""The compiled BNB kernel: whole frames routed as numpy gathers.

:func:`route_frame_batch` routes a ``(batch, n)`` stack of frames
through all ``m`` main stages of the BNB network; a lone frame is a
one-row batch.  Each stage's splitters wider than 16 lines run as
log-depth XOR-up/flag-down array passes over **all** boxes of the stage
at once, every bit-sorter tail of at most 16 lines is one lookup in a
precompiled table, and every interstage wire is a precompiled gather
from the per-``m`` :class:`~repro.core.plan.CompiledPlan` cache, so no
Python-level ``Word``, ``Splitter`` or ``Arbiter`` is touched.  It is
the ``"bnb"`` routing backend (:mod:`repro.backends.bnb`) that the
gateway's ``vector``, ``batch`` and ``bnb`` engines serve on.

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
    batch_stage_take_indices,
    compiled_plan,
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
    **all** frames with one set of numpy gathers
    (:func:`~repro.core.plan.batch_stage_take_indices`), so the Python
    overhead per call amortizes across the batch.
    """
    plan = compiled_plan(m)
    current = np.asarray(addresses, dtype=np.int64)
    if current.ndim != 2 or current.shape[1] != plan.n:
        raise ValueError(
            f"a frame batch for m={m} needs shape (batch, {plan.n}), "
            f"got {current.shape}"
        )
    sources = np.broadcast_to(plan.identity, current.shape)
    # Flat row-offset gathers instead of take_along_axis: one shared
    # index array per stage, no per-call index-grid rebuild.
    offsets = (np.arange(current.shape[0], dtype=np.int64) * plan.n)[:, None]
    for stage in plan.stages:
        if mask is not None:
            dead = mask.dead_links.get(stage.stage)
            if dead is not None:
                current = np.where(dead[None, :], DEAD_ADDRESS, current)
        flat = batch_stage_take_indices(plan, stage, current, mask=mask)
        flat += offsets
        current = current.ravel().take(flat)
        sources = sources.ravel().take(flat)
    return sources
