"""One walk through the BNB wiring, with the switch controls left open.

The BNB network is fixed wiring — columns of 2 x 2 switches joined by
unshuffles (Definitions 2-5) — in which only the switch controls
change.  :func:`walk_stage` carries items (words, or line numbers)
through one main stage of that wiring and asks its caller for every
splitter box's controls, so one loop serves each object-model reading
of a fabric:

* :class:`AdaptiveModel` decides each box with its arbiter from the
  words in front of it, holds a :class:`~repro.core.plan.FaultMask`'s
  stuck switches and clobbers words on its dead links — the faulty
  :class:`~repro.core.pipeline.PipelinedBNBFabric` and
  :func:`~repro.faults.adaptive.route_with_stuck_switch`;
* :func:`~repro.faults.injector.replay_controls` reads a recorded
  control table;
* :func:`~repro.faults.localization.trace_switch_paths` reads the table
  while noting which switches each line crosses.

The healthy :meth:`BNBNetwork.route <repro.core.bnb.BNBNetwork.route>`
keeps the paper's nested loops, with their balance checks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple, TypeVar

from ..bits import cached_unshuffle_permutation
from .plan import DEAD_ADDRESS, FaultMask
from .splitter import Splitter
from .switchbox import apply_pair_controls
from .words import Word

__all__ = ["AdaptiveModel", "BoxControls", "walk", "walk_stage"]

T = TypeVar("T")

#: ``(main_stage, nested, nested_stage, box, items) -> controls``: the
#: controls of one splitter box, given the items entering it.
BoxControls = Callable[[int, int, int, int, List[T]], Sequence[int]]


def walk_stage(
    m: int, stage: int, items: Sequence[T], controls_of: BoxControls
) -> List[T]:
    """Carry *items* through main stage *stage* of the ``2**m``-line
    network: every splitter column of its nested networks, then the
    main-stage unshuffle ``U_{m-stage}^m`` (none after the last stage).

    Column ``j`` holds boxes of ``2**(m-stage-j)`` lines; its box ``b``,
    counted across the whole column, is box ``b mod 2**j`` of nested
    network ``b >> j``.  The unshuffles inside a nested network fix
    every bit above their own width, so each is one full-width wiring.
    """
    block_exp = m - stage
    current = list(items)
    for j in range(block_exp):
        width_exp = block_exp - j
        width = 1 << width_exp
        routed: List[T] = []
        for first in range(0, len(current), width):
            b = first >> width_exp
            sub = current[first : first + width]
            controls = controls_of(stage, b >> j, j, b & ((1 << j) - 1), sub)
            routed += apply_pair_controls(sub, controls)
        if j < block_exp - 1:
            wiring = cached_unshuffle_permutation(width_exp, m)
        elif stage < m - 1:
            wiring = cached_unshuffle_permutation(block_exp, m)
        else:
            return routed
        current = [None] * len(routed)  # type: ignore[list-item]
        for line, item in enumerate(routed):
            current[wiring[line]] = item
    return current


def walk(m: int, items: Sequence[T], controls_of: BoxControls) -> List[T]:
    """Carry *items* through all ``m`` main stages (:func:`walk_stage`)."""
    for stage in range(m):
        items = walk_stage(m, stage, items, controls_of)
    return list(items)


class AdaptiveModel:
    """The object model of a fabric under a :class:`FaultMask`.

    Every splitter decides from the address bits actually in front of
    it, without balance checks (a stuck switch can unbalance a
    downstream block — the physics being modelled); a stuck switch
    holds its value whatever its arbiter decided, and a word entering
    main stage ``i`` on a dead line continues with address
    :data:`~repro.core.plan.DEAD_ADDRESS`, payload kept.  The model
    reads only the mask's declarative ``stuck`` and ``dead`` tuples,
    never its compiled override arrays, so comparing the kernel with
    it checks those arrays.
    """

    def __init__(self, mask: FaultMask) -> None:
        self.m = mask.m
        self._splitters = {
            p: Splitter(p, check_balance=False) for p in range(1, self.m + 1)
        }
        # (main stage, nested, nested stage, box) -> [(switch, value)];
        # later faults on one switch win, as in build_fault_mask.
        self._stuck: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        for (i, nested, j, box, switch), value in mask.stuck:
            self._stuck.setdefault((i, nested, j, box), []).append(
                (switch, value)
            )
        self._dead: Dict[int, Set[int]] = {}
        for stage, line in mask.dead:
            self._dead.setdefault(stage, set()).add(line)

    def controls(
        self,
        stage: int,
        nested: int,
        nested_stage: int,
        box: int,
        words: List[Word],
    ) -> List[int]:
        """The box's arbiter decision, with its stuck switches forced."""
        shift = self.m - 1 - stage
        controls = self._splitters[len(words).bit_length() - 1].controls(
            [(word.address >> shift) & 1 for word in words]
        )
        for switch, value in self._stuck.get(
            (stage, nested, nested_stage, box), ()
        ):
            controls[switch] = value
        return controls

    def route_stage(self, stage: int, words: Sequence[Word]) -> List[Word]:
        """Main stage *stage*: its dead links, boxes and unshuffle."""
        dead = self._dead.get(stage)
        if dead:
            words = [
                Word(address=int(DEAD_ADDRESS), payload=word.payload)
                if line in dead
                else word
                for line, word in enumerate(words)
            ]
        return walk_stage(self.m, stage, words, self.controls)

    def route(self, words: Sequence[Word]) -> List[Word]:
        """All ``m`` main stages, combinationally."""
        for stage in range(self.m):
            words = self.route_stage(stage, words)
        return list(words)
