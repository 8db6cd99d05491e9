"""Cluster soak: a million words across four nodes, one killed mid-run.

The acceptance benchmark for the cluster tier
(:mod:`repro.cluster`): four in-process gateway nodes behind a
:class:`~repro.cluster.ClusterRouter`, a
:class:`~repro.cluster.ClusterClient` pushing concurrent
``send_batch`` bursts through the real loopback wire, and a deliberate
node kill at ~40% progress.  The bar is absolute, not statistical:

* **100% delivery** — every requested word acknowledged by a node;
  the run raises (and the artifact is never written) if even one is
  lost across the failover.
* **zero misdeliveries** — interleaved single-``send`` echo probes
  must land on the node and local line the shard map predicted, on
  top of the plane's own verification of every routed frame.

The harness is :func:`repro.cluster.run_soak` — the same code path as
``repro cluster --smoke`` — so the CI smoke and this soak differ only
in scale.  The artifact (``benchmarks/out/cluster_soak.json``) is
schema-gated by ``benchmarks/check_artifacts.py``; at the measured
~300k words/s the full million-word soak fits CI without a quick mode.
"""

from __future__ import annotations

import asyncio
import json

from repro.cluster import run_soak

NODES = 4
M = 6                       # N=64 per node -> global N=256
WORDS = 1_000_000
BURST = 16_384
IN_FLIGHT = 4


def test_cluster_soak(write_artifact):
    """>=1M words, >=4 nodes, one killed mid-run, nothing lost."""
    report = asyncio.run(
        run_soak(
            nodes=NODES,
            m=M,
            words=WORDS,
            burst=BURST,
            in_flight=IN_FLIGHT,
            kill=True,
            kill_at=0.4,
            seed=7,
        )
    )
    artifact = {"benchmark": "cluster_soak", **report}
    write_artifact("cluster_soak.json", json.dumps(artifact, indent=2))

    assert report["nodes"] >= 4
    assert report["requested_words"] >= 1_000_000
    assert report["delivered_words"] >= report["requested_words"]
    assert report["delivery_rate"] >= 1.0
    assert report["misdeliveries"] == 0
    assert report["killed_node"] is not None, "the kill never fired"
    assert report["map_version"] >= 2, "the death never resharded the map"
    assert report["node_states"][report["killed_node"]] == "down"
    assert report["client_counters"]["failovers"] >= 1
