"""Topological equivalence of multistage networks.

Wu and Feng showed that the baseline, omega, flip and indirect-binary-
cube networks are *topologically equivalent*: one can be redrawn into
another by relabeling lines, without changing which switch connects to
which.  We formalize a network as a directed graph — terminals and
switches as nodes, wires as edges — and test equivalence by graph
isomorphism (networkx VF2), constrained so terminals map to terminals
and switches to switches.  networkx is imported by the two functions
that use it, so importing :mod:`repro` (and serving) never loads it.

This is quadratic-ish and meant for the small sizes the test suite
uses; it documents and verifies the claim that the GBN underlying the
BNB network is "the" log-stage network in the same sense.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from .multistage import MultistageNetwork

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["network_graph", "topologically_equivalent"]


def network_graph(network: MultistageNetwork) -> "nx.DiGraph":
    """Build the wiring graph of *network*.

    Nodes: ``("in", j)`` and ``("out", j)`` terminals and
    ``("sw", stage, t)`` switches, each tagged with a ``kind``
    attribute.  Edges follow the physical wires; switch internals are
    collapsed to a single node because a 2 x 2 switch is symmetric in
    its ports, which is exactly the freedom topological equivalence
    allows.
    """
    import networkx as nx

    graph = nx.DiGraph()
    n = network.n
    for j in range(n):
        graph.add_node(("in", j), kind="input")
        graph.add_node(("out", j), kind="output")
    for stage in range(network.stage_count):
        for t in range(n // 2):
            graph.add_node(("sw", stage, t), kind="switch")

    def switch_of(stage: int, line: int) -> Tuple[str, int, int]:
        return ("sw", stage, line // 2)

    # Input terminals to first column (through the optional input wiring).
    for j in range(n):
        line = network.input_wiring[j] if network.input_wiring else j
        graph.add_edge(("in", j), switch_of(0, line))
    # Interstage wires.
    for stage in range(network.stage_count - 1):
        wiring = network.wirings[stage]
        for j in range(n):
            graph.add_edge(
                switch_of(stage, j), switch_of(stage + 1, wiring[j])
            )
    # Last column to output terminals (through the optional output wiring).
    last = network.stage_count - 1
    for j in range(n):
        line = network.output_wiring[j] if network.output_wiring else j
        graph.add_edge(switch_of(last, j), ("out", line))
    return graph


def topologically_equivalent(
    first: MultistageNetwork, second: MultistageNetwork
) -> bool:
    """``True`` when the two networks' wiring graphs are isomorphic.

    Terminal nodes may only map to terminal nodes of the same side and
    switches to switches; this matches Wu & Feng's notion of redrawing
    a network by renaming lines.
    """
    import networkx as nx

    if first.n != second.n or first.stage_count != second.stage_count:
        return False
    graph_a = network_graph(first)
    graph_b = network_graph(second)

    def node_match(attrs_a: Dict, attrs_b: Dict) -> bool:
        return attrs_a["kind"] == attrs_b["kind"]

    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        graph_a, graph_b, node_match=node_match
    )
    return matcher.is_isomorphic()
