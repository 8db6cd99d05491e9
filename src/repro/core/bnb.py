"""The BNB self-routing permutation network (Definition 5, Theorem 2).

An ``N = 2**m``-input BNB network is a GBN whose stage-``i`` switching
boxes are themselves ``q``-bit-slice GBNs ("nested networks") of size
``2**(m-i)``.  Slice ``i`` of every stage-``i`` nested network is a
bit-sorter network driven by address bit ``b^i`` (MSB-first numbering);
the remaining slices follow its switch settings.  Routing the words
through all ``m`` main stages radix-sorts the destination addresses
MSB-first, so a permutation of ``0 .. N-1`` arrives fully sorted:
word with address ``a`` on output line ``a``.

Two implementations share this module:

* :meth:`BNBNetwork.route` — the reference object model.  Accepts plain
  addresses or :class:`~repro.core.words.Word` instances with payloads,
  optionally records every splitter decision and per-packet path.
* :meth:`BNBNetwork.route_fast` — a vectorized numpy implementation of
  the same algorithm used by the throughput benchmarks.  Tests pin it
  to the reference model.

Structural accounting (switch slices, function nodes, critical-path
delays) lives here too, since it follows directly from the
construction; closed-form counterparts are in
:mod:`repro.analysis.complexity` and the two are reconciled in tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bits import address_bit, unshuffle_index
from ..exceptions import NotAPermutationError, RoutingError
from ..permutations.permutation import Permutation
from .bsn import BitSorterNetwork, BSNRecord
from .pipeline_fast import route_frame_batch
from .plan import compiled_plan
from .routing import PacketPath, RouteStep
from .words import Word

__all__ = ["BNBNetwork", "BNBRoutingRecord", "NestedNetworkSpec"]


@dataclasses.dataclass(frozen=True)
class NestedNetworkSpec:
    """Inventory entry for one nested network NB(i, l) (Fig. 3).

    ``slice_count`` is the number of one-bit slices the hardware
    carries at this point: the ``m - i`` not-yet-consumed address bits
    plus ``w`` data bits (Eq. 2 of the paper charges exactly this).
    """

    main_stage: int
    index: int
    size_exponent: int
    slice_count: int
    bsn_slice: int

    @property
    def size(self) -> int:
        return 1 << self.size_exponent

    @property
    def label(self) -> str:
        return f"NB({self.main_stage},{self.index})"

    @property
    def bsn_label(self) -> str:
        return f"BSN({self.main_stage},{self.index})"


@dataclasses.dataclass
class BNBRoutingRecord:
    """Everything one BNB routing pass decided.

    ``nested_records[(i, l)]`` holds the BSN record of NB(i, l);
    ``stage_outputs[i]`` snapshots the (line -> input index) arrangement
    after main stage ``i``'s nested networks (before the following
    unshuffle).
    """

    m: int
    input_addresses: List[int]
    nested_records: Dict[Tuple[int, int], BSNRecord]
    stage_outputs: List[List[int]]
    output_indices: List[int]

    def packet_path(self, input_line: int, words: Sequence[Word]) -> PacketPath:
        """Reconstruct the trajectory of the word that entered *input_line*."""
        steps: List[RouteStep] = []
        for stage, arrangement in enumerate(self.stage_outputs):
            line = arrangement.index(input_line)
            nested = line >> (self.m - stage)
            steps.append(
                RouteStep(main_stage=stage, nested_network=nested, line=line)
            )
        output_line = self.output_indices.index(input_line)
        word = words[input_line]
        return PacketPath(
            input_line=input_line,
            output_line=output_line,
            address=word.address,
            payload=word.payload,
            steps=tuple(steps),
        )

    def all_packet_paths(self, words: Sequence[Word]) -> List[PacketPath]:
        return [self.packet_path(j, words) for j in range(len(words))]

    def total_exchanges(self) -> int:
        """Number of switches set to exchange across the whole pass."""
        return sum(
            sum(sum(rec.controls) for rec in bsn.splitters.values())
            for bsn in self.nested_records.values()
        )


WordLike = Union[int, Word]


class BNBNetwork:
    """The ``N = 2**m``-input BNB self-routing permutation network.

    Parameters
    ----------
    m:
        Address width; the network has ``N = 2**m`` lines.
    w:
        Data-word width in bits.  Functionally payloads ride along for
        free; *w* matters for hardware accounting (the paper's ``q = m + w``
        slices) and is validated non-negative here so cost queries are
        always meaningful.
    check_inputs:
        Verify the destination addresses form a permutation before
        routing (Theorem 2's precondition).  Disable only in fault
        studies.
    """

    def __init__(self, m: int, w: int = 0, check_inputs: bool = True) -> None:
        if m < 1:
            raise ValueError(f"the BNB network needs m >= 1, got {m}")
        if w < 0:
            raise ValueError(f"data width must be non-negative, got {w}")
        self.m = m
        self.n = 1 << m
        self.w = w
        self.check_inputs = check_inputs
        self._bsns: Dict[int, BitSorterNetwork] = {
            k: BitSorterNetwork(k) for k in range(1, m + 1)
        }

    # ------------------------------------------------------------------
    # Structure (Fig. 3 profile and hardware accounting)
    # ------------------------------------------------------------------
    def nested_network_specs(self) -> List[NestedNetworkSpec]:
        """All NB(i, l) entries, stage by stage (the Fig. 3 profile)."""
        specs: List[NestedNetworkSpec] = []
        for i in range(self.m):
            for l in range(1 << i):
                specs.append(
                    NestedNetworkSpec(
                        main_stage=i,
                        index=l,
                        size_exponent=self.m - i,
                        slice_count=(self.m - i) + self.w,
                        bsn_slice=i,
                    )
                )
        return specs

    def profile(self) -> List[List[NestedNetworkSpec]]:
        """Nested-network inventory grouped by main stage."""
        grouped: List[List[NestedNetworkSpec]] = [[] for _ in range(self.m)]
        for spec in self.nested_network_specs():
            grouped[spec.main_stage].append(spec)
        return grouped

    @property
    def switch_count(self) -> int:
        """Total ``2 x 2`` switch slices across all nested networks.

        A nested network of size ``P = 2**p`` carries ``p + w`` one-bit
        slices, each a ``p``-stage GBN with ``P/2`` switches per stage
        (Eqs. 2-3).  Summed over the main network this reproduces the
        ``C_SW`` polynomial of Eq. 6; the test suite checks equality.
        """
        total = 0
        for spec in self.nested_network_specs():
            p = spec.size_exponent
            per_slice = (spec.size // 2) * p
            total += per_slice * spec.slice_count
        return total

    @property
    def function_node_count(self) -> int:
        """Total arbiter function nodes (Eq. 4 summed; ``A(1)`` is wiring)."""
        return sum(
            self._bsns[spec.size_exponent].function_node_count
            for spec in self.nested_network_specs()
        )

    @property
    def switch_stage_depth(self) -> int:
        """Switch columns on the critical path: ``m (m + 1) / 2`` (Eq. 7)."""
        return sum(self.m - i for i in range(self.m))

    @property
    def function_node_depth(self) -> int:
        """Arbiter nodes on the critical path (Eq. 8's sum).

        Each splitter ``sp(p)`` with ``p >= 2`` costs an up-and-down
        traversal of its ``p``-level tree; ``sp(1)`` costs nothing.
        """
        total = 0
        for i in range(self.m):
            for p in range(2, (self.m - i) + 1):
                total += 2 * p
        return total

    def propagation_delay(self, d_sw: float = 1.0, d_fn: float = 1.0) -> float:
        """Total delay with per-element delays ``D_SW`` and ``D_FN`` (Eq. 9)."""
        return self.switch_stage_depth * d_sw + self.function_node_depth * d_fn

    # ------------------------------------------------------------------
    # Routing (reference object model)
    # ------------------------------------------------------------------
    @staticmethod
    def _as_words(inputs: Sequence[WordLike]) -> List[Word]:
        return [
            item if isinstance(item, Word) else Word(address=int(item))
            for item in inputs
        ]

    def _validate_addresses(self, words: Sequence[Word]) -> None:
        addresses = [word.address for word in words]
        seen = [False] * self.n
        for a in addresses:
            if not 0 <= a < self.n or seen[a]:
                raise NotAPermutationError(addresses)
            seen[a] = True

    def route(
        self,
        inputs: Sequence[WordLike],
        record: bool = False,
    ) -> Tuple[List[Word], Optional[BNBRoutingRecord]]:
        """Self-route *inputs* (a permutation of addresses) to the outputs.

        Returns ``(outputs, record)`` where ``outputs[a]`` is the word
        addressed to ``a``.  With ``record=True`` the second element
        carries every splitter decision and per-stage arrangement.
        """
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        words = self._as_words(inputs)
        if self.check_inputs:
            self._validate_addresses(words)

        # Carry (word, original input line) pairs so records can
        # reconstruct packet paths without guessing.
        current: List[Tuple[Word, int]] = [(word, j) for j, word in enumerate(words)]
        nested_records: Dict[Tuple[int, int], BSNRecord] = {}
        stage_outputs: List[List[int]] = []
        m = self.m
        for i in range(m):
            block_exp = m - i
            block = 1 << block_exp
            bsn = self._bsns[block_exp]
            bit_index = i

            def key_of(item: Tuple[Word, int]) -> int:
                return address_bit(item[0].address, bit_index, m)

            routed: List[Tuple[Word, int]] = [None] * self.n  # type: ignore[list-item]
            for l in range(1 << i):
                lo = l * block
                sub = current[lo : lo + block]
                out, rec = bsn.route_words(sub, key_of, record=record)
                if record and rec is not None:
                    nested_records[(i, l)] = rec
                routed[lo : lo + block] = out
            if record:
                stage_outputs.append([idx for _w, idx in routed])
            if i < m - 1:
                k = m - i
                connected: List[Tuple[Word, int]] = [None] * self.n  # type: ignore[list-item]
                for j, value in enumerate(routed):
                    connected[unshuffle_index(j, k, m)] = value
                current = connected
            else:
                current = routed

        outputs = [word for word, _idx in current]
        if self.check_inputs:
            for line, word in enumerate(outputs):
                if word.address != line:
                    raise RoutingError(
                        f"word addressed to {word.address} arrived on line "
                        f"{line}; this indicates a library bug since "
                        f"Theorem 2 guarantees delivery"
                    )
        record_obj = None
        if record:
            record_obj = BNBRoutingRecord(
                m=m,
                input_addresses=[word.address for word in words],
                nested_records=nested_records,
                stage_outputs=stage_outputs,
                output_indices=[idx for _w, idx in current],
            )
        return outputs, record_obj

    def route_permutation(self, pi: Permutation) -> bool:
        """Route permutation *pi* and report whether delivery succeeded."""
        words = [Word(address=pi(j), payload=j) for j in range(self.n)]
        outputs, _ = self.route(words)
        return all(outputs[a].address == a for a in range(self.n))

    # ------------------------------------------------------------------
    # Routing (vectorized fast path)
    # ------------------------------------------------------------------
    def route_fast(self, addresses: "np.ndarray") -> "np.ndarray":
        """Vectorized routing of raw addresses; returns the output lines.

        Same algorithm as :meth:`route`, expressed as whole-array
        operations: the frame is a one-row batch of
        :func:`~repro.core.pipeline_fast.route_frame_batch`, the kernel
        over the per-``m`` :func:`~repro.core.plan.compiled_plan`
        tables.  ``result[line] == line`` for every line when the
        input is a permutation; the function returns the array of
        addresses in output-line order so callers can assert that.

        Validation parity with :meth:`route` (honouring
        ``check_inputs``): a wrong input count raises the same
        ``ValueError``, a non-permutation raises
        :class:`~repro.exceptions.NotAPermutationError` with the same
        message, and a misdelivered output (impossible by Theorem 2
        without a fault) raises :class:`~repro.exceptions.RoutingError`.
        """
        lines = np.asarray(addresses, dtype=np.int64)
        if lines.ndim != 1:
            raise ValueError(f"expected shape ({self.n},), got {lines.shape}")
        if lines.shape[0] != self.n:
            raise ValueError(
                f"expected {self.n} inputs, got {lines.shape[0]}"
            )
        plan = compiled_plan(self.m)
        if self.check_inputs:
            if not np.array_equal(np.sort(lines), plan.identity):
                raise NotAPermutationError(lines.tolist())
        lines = lines[route_frame_batch(self.m, lines[None])[0]]
        if self.check_inputs and not np.array_equal(lines, plan.identity):
            line = int(np.argmin(lines == plan.identity))
            raise RoutingError(
                f"word addressed to {int(lines[line])} arrived on line "
                f"{line}; this indicates a library bug since "
                f"Theorem 2 guarantees delivery"
            )
        return lines

    def __repr__(self) -> str:
        return f"BNBNetwork(m={self.m}, n={self.n}, w={self.w})"

