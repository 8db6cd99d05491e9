"""Three-stage Clos networks with rearrangeable routing.

The Koppelman & Oruc SRPN the paper compares against "was derived from
a particular Clos network called the complementary Benes network", so
the Clos family is part of this reproduction's context.  We implement
the symmetric three-stage Clos ``C(n, m, r)``:

* ``r`` ingress crossbars of size ``n x m``,
* ``m`` middle crossbars of size ``r x r``,
* ``r`` egress crossbars of size ``m x n``,

with ``N = n * r`` terminals.  For ``m >= n`` the network is
rearrangeable (Slepian-Duguid): any permutation decomposes into ``m``
rounds of middle-stage assignments.  Routing is by repeated perfect
matching on the ingress/egress bipartite demand multigraph — Hall's
theorem guarantees each round a perfect matching, found here with
networkx.  (With ``n = m = 2`` and recursion this is exactly how the
Benes network arises.)
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.words import Word
from ..exceptions import ConfigurationError, NotAPermutationError, RoutingError
from ..permutations.permutation import Permutation

__all__ = ["ClosNetwork", "ClosRoute"]


@dataclasses.dataclass(frozen=True)
class ClosRoute:
    """One word's path: which middle switch carries it."""

    source: int
    destination: int
    ingress_switch: int
    middle_switch: int
    egress_switch: int


class ClosNetwork:
    """A symmetric three-stage Clos network ``C(n, m, r)``.

    Parameters
    ----------
    n:
        Terminals per ingress/egress switch.
    m:
        Middle switches.  ``m >= n`` is required (the rearrangeability
        condition); ``m >= 2n - 1`` would make it strictly non-blocking,
        which this implementation doesn't need since it routes whole
        permutations at once.
    r:
        Ingress (= egress) switches; the network has ``N = n * r``
        terminals.
    """

    def __init__(self, n: int, m: int, r: int) -> None:
        if n < 1 or m < 1 or r < 1:
            raise ConfigurationError(
                f"Clos parameters must be positive, got n={n}, m={m}, r={r}"
            )
        if m < n:
            raise ConfigurationError(
                f"rearrangeability needs m >= n, got n={n}, m={m}"
            )
        self.n = n
        self.m = m
        self.r = r
        self.terminals = n * r

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def crosspoint_count(self) -> int:
        """Total crosspoints: ``2 r n m + m r^2``.

        Minimized over ``m = n`` at ``2 N n + n (N/n)^2`` — the classic
        Clos saving over the single ``N^2`` crossbar.
        """
        return 2 * self.r * self.n * self.m + self.m * self.r * self.r

    def ingress_of(self, terminal: int) -> int:
        if not 0 <= terminal < self.terminals:
            raise ValueError(f"terminal {terminal} out of range")
        return terminal // self.n

    # ------------------------------------------------------------------
    # Routing (Slepian-Duguid via repeated perfect matchings)
    # ------------------------------------------------------------------
    def middle_assignments(self, pi: Permutation) -> List[Dict[int, int]]:
        """Assign each source terminal a middle switch.

        Returns one dict per middle switch: ``{source: destination}``
        pairs carried by that middle switch.  Within one middle switch
        every ingress and every egress appears at most once — that is
        the conflict-freedom invariant, asserted before returning.
        """
        if len(pi) != self.terminals:
            raise ValueError(
                f"expected a permutation of {self.terminals} terminals"
            )
        # networkx loads here, on first use, not when repro is imported.
        import networkx as nx

        # Demand multigraph: one edge (ingress, egress) per word.
        remaining: List[Tuple[int, int, int]] = []  # (ingress, egress, source)
        for source in range(self.terminals):
            destination = pi(source)
            remaining.append(
                (self.ingress_of(source), self.ingress_of(destination), source)
            )
        assignments: List[Dict[int, int]] = []
        for _middle in range(self.m):
            if not remaining:
                assignments.append({})
                continue
            graph = nx.Graph()
            left = {f"i{i}" for i, _e, _s in remaining}
            right = {f"e{e}" for _i, e, _s in remaining}
            graph.add_nodes_from(left, bipartite=0)
            graph.add_nodes_from(right, bipartite=1)
            edge_words: Dict[Tuple[str, str], List[int]] = {}
            for ingress, egress, source in remaining:
                key = (f"i{ingress}", f"e{egress}")
                edge_words.setdefault(key, []).append(source)
                graph.add_edge(*key)
            matching = nx.algorithms.bipartite.maximum_matching(
                graph, top_nodes=left
            )
            chosen: Dict[int, int] = {}
            used_sources = set()
            for node, partner in matching.items():
                if not node.startswith("i"):
                    continue
                source = edge_words[(node, partner)][0]
                chosen[source] = pi(source)
                used_sources.add(source)
            assignments.append(chosen)
            remaining = [
                entry for entry in remaining if entry[2] not in used_sources
            ]
        if remaining:
            raise RoutingError(
                f"{len(remaining)} words unassigned after {self.m} middle "
                f"switches; Slepian-Duguid guarantees this cannot happen "
                f"for m >= n"
            )
        for middle, chosen in enumerate(assignments):
            ingresses = [self.ingress_of(s) for s in chosen]
            egresses = [self.ingress_of(d) for d in chosen.values()]
            if len(set(ingresses)) != len(ingresses) or len(
                set(egresses)
            ) != len(egresses):
                raise RoutingError(
                    f"middle switch {middle} double-booked; matching bug"
                )
        return assignments

    def routes_for(self, pi: Permutation) -> List[ClosRoute]:
        """Full per-word routes realizing *pi*."""
        routes: List[Optional[ClosRoute]] = [None] * self.terminals
        for middle, chosen in enumerate(self.middle_assignments(pi)):
            for source, destination in chosen.items():
                routes[source] = ClosRoute(
                    source=source,
                    destination=destination,
                    ingress_switch=self.ingress_of(source),
                    middle_switch=middle,
                    egress_switch=self.ingress_of(destination),
                )
        assert all(route is not None for route in routes)
        return routes  # type: ignore[return-value]

    def route(self, inputs: Sequence[Any]) -> List[Word]:
        """Route a permutation of addresses; same contract as the BNB."""
        words = [
            item if isinstance(item, Word) else Word(address=int(item))
            for item in inputs
        ]
        addresses = [word.address for word in words]
        if sorted(addresses) != list(range(self.terminals)):
            raise NotAPermutationError(addresses)
        routes = self.routes_for(Permutation(addresses))
        outputs: List[Word] = [None] * self.terminals  # type: ignore[list-item]
        for route in routes:
            outputs[route.destination] = words[route.source]
        return outputs

    def __repr__(self) -> str:
        return (
            f"ClosNetwork(n={self.n}, m={self.m}, r={self.r}, "
            f"terminals={self.terminals})"
        )
