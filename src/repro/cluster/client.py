"""The cluster-aware client: shard routing plus transparent failover.

:class:`ClusterClient` speaks only the public wire protocol through
per-node :class:`~repro.client.GatewayClient` connections — it needs
no in-process handle on the router, just one or more *seed* addresses.
On :meth:`connect` it bootstraps the shard map from the first seed
that has one (every node serves its latest copy via the ``shard_map``
op), then routes ``send`` / ``send_batch`` by global destination:
locate the shard, translate to the node-local line, forward.

The failover contract is **at-least-once**:

* ``admission-rejected`` (backpressure or a draining node) sleeps the
  server's ``retry_after_cycles`` hint, refreshes the map — a drain is
  usually accompanied by a pushed reshard — and retries wherever the
  destination now lives.
* ``gateway-disconnected`` / ``gateway-closed`` / connect failures
  drop that node's connection, refresh the map from the surviving
  nodes, and re-send.  A word is only counted delivered when some node
  acknowledged it, so a node dying mid-run costs retries, never words.

Both verbs give up with :class:`~repro.exceptions.ClusterError` after
``max_attempts`` rounds, so a dead *cluster* fails loudly instead of
retrying forever.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..client import GatewayClient
from ..exceptions import (
    ClusterError,
    GatewayRequestError,
    InputError,
)
from .shardmap import ShardMap

__all__ = ["ClusterClient"]

#: Error slugs that mean "this node cannot take the word right now,
#: but the cluster might": re-route after a map refresh.
_FAILOVER_SLUGS = ("gateway-closed", "plane-unavailable")


class ClusterClient:
    """Route words across the cluster by destination shard."""

    def __init__(
        self,
        seeds: Sequence[Tuple[str, int]],
        *,
        binary: bool = True,
        seconds_per_cycle: float = 0.001,
        max_attempts: int = 16,
        retry_floor_seconds: float = 0.05,
    ) -> None:
        if not seeds:
            raise InputError("the cluster client needs at least one seed")
        self.seeds: List[Tuple[str, int]] = [
            (host, int(port)) for host, port in seeds
        ]
        self.binary = binary
        self.seconds_per_cycle = seconds_per_cycle
        self.max_attempts = max_attempts
        #: Minimum sleep before a failover retry — long enough for the
        #: router's health loop to notice a death and push a new map.
        self.retry_floor_seconds = retry_floor_seconds
        self.map: Optional[ShardMap] = None
        self._clients: Dict[str, GatewayClient] = {}
        #: Wire/behaviour counters for tests and the soak harness.
        self.counters: Dict[str, int] = {
            "sends": 0,
            "batches": 0,
            "retries": 0,
            "failovers": 0,
            "map_refreshes": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "ClusterClient":
        await self.refresh_map(require=True)
        return self

    async def aclose(self) -> None:
        clients, self._clients = self._clients, {}
        for client in clients.values():
            await client.aclose()

    async def __aenter__(self) -> "ClusterClient":
        return await self.connect()

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    @property
    def n_global(self) -> int:
        if self.map is None:
            raise ClusterError("the cluster client is not connected")
        return self.map.n_global

    # ------------------------------------------------------------------
    # Map bootstrap / refresh
    # ------------------------------------------------------------------
    def _candidate_addresses(self) -> List[Tuple[str, int]]:
        addresses = list(self.seeds)
        if self.map is not None:
            for address in self.map.nodes.values():
                if address not in addresses:
                    addresses.append(address)
        return addresses

    async def refresh_map(self, require: bool = False) -> bool:
        """Adopt the newest shard map any reachable node will serve.

        Returns True when the map's version advanced.  With *require*
        (the connect path) an unreachable-or-mapless cluster raises
        :class:`ClusterError` instead of returning False.
        """
        self.counters["map_refreshes"] += 1
        best: Optional[Dict[str, Any]] = None
        for host, port in self._candidate_addresses():
            client = GatewayClient(host, port, binary=self.binary)
            try:
                await client.connect()
                response = await client.shard_map()
            except (ConnectionError, OSError, GatewayRequestError):
                continue
            finally:
                await client.aclose()
            doc = response.get("map")
            if doc and (
                best is None or doc["version"] > best["version"]
            ):
                best = doc
        if best is None:
            if require:
                raise ClusterError(
                    "no seed served a shard map — is the cluster router "
                    "running?"
                )
            return False
        if self.map is not None and best["version"] <= self.map.version:
            return False
        old_version = self.map.version if self.map is not None else None
        self.map = ShardMap.from_doc(best)
        # Connections to nodes that no longer serve any shard stay
        # cached — harmless, and a rejoin will want them again.
        return old_version != self.map.version

    async def _client_for(self, node_id: str) -> GatewayClient:
        client = self._clients.get(node_id)
        if client is not None and client.connected:
            return client
        assert self.map is not None
        address = self.map.nodes.get(node_id)
        if address is None:
            raise ClusterError(f"the shard map knows no node {node_id!r}")
        client = GatewayClient(*address, binary=self.binary)
        try:
            await client.connect()
        except BaseException:
            await client.aclose()
            raise
        # Concurrent senders race to reconnect after a failover; only
        # one connection per node may live in the cache, so the losers
        # close theirs and adopt the winner's.
        cached = self._clients.get(node_id)
        if cached is not None and cached is not client:
            if cached.connected:
                await client.aclose()
                return cached
            await cached.aclose()
        self._clients[node_id] = client
        return client

    async def _drop_client(self, node_id: str) -> None:
        client = self._clients.pop(node_id, None)
        if client is not None:
            await client.aclose()

    async def _failover_pause(self, attempt: int) -> None:
        """Sleep, refresh; gives the router time to publish a reshard."""
        await asyncio.sleep(self.retry_floor_seconds * min(attempt, 8))
        await self.refresh_map()

    # ------------------------------------------------------------------
    # send
    # ------------------------------------------------------------------
    async def send(
        self, dest: int, payload: Any = None
    ) -> Dict[str, Any]:
        """Send one word to a *global* destination, riding out failures.

        Returns the delivering node's receipt response, augmented with
        the global ``dest`` and the ``node_id`` that served it (the
        ``receipt.dest`` inside remains node-local).
        """
        if self.map is None:
            raise ClusterError("the cluster client is not connected")
        self.counters["sends"] += 1
        last_error: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            node_id, local = self.map.locate(dest)
            try:
                client = await self._client_for(node_id)
                response = await client.send(local, payload)
            except GatewayRequestError as error:
                last_error = error
                if error.slug == "admission-rejected":
                    self.counters["retries"] += 1
                    hint = max(1, error.retry_after_cycles)
                    await asyncio.sleep(
                        min(1.0, hint * self.seconds_per_cycle)
                    )
                    await self.refresh_map()
                    continue
                if error.slug in _FAILOVER_SLUGS:
                    self.counters["failovers"] += 1
                    await self._drop_client(node_id)
                    await self._failover_pause(attempt)
                    continue
                raise
            except (ConnectionError, OSError) as error:
                # Includes GatewayDisconnectedError: the node died with
                # our request pending — we cannot know whether the word
                # landed, so re-send (at-least-once).
                last_error = error
                self.counters["failovers"] += 1
                await self._drop_client(node_id)
                await self._failover_pause(attempt)
                continue
            # Preserve the node's own echo (the *local* line it
            # delivered to) before stamping the global view on top —
            # the soak harness cross-checks echo against expectation.
            response["local_dest"] = response.get("dest")
            response["dest"] = dest
            response["node_id"] = node_id
            return response
        raise ClusterError(
            f"word for destination {dest} undeliverable after "
            f"{self.max_attempts} attempts: {last_error!r}"
        )

    # ------------------------------------------------------------------
    # send_batch
    # ------------------------------------------------------------------
    async def send_batch(
        self,
        dests: Any,
        *,
        retry: int = 8,
    ) -> Dict[str, Any]:
        """Send a batch of global destinations; every word lands.

        Splits the batch by serving node (one vectorized pass), runs
        the per-node ``send_batch`` requests concurrently, then
        re-pends any word whose node rejected it or died, refreshes
        the map, and goes again — up to ``max_attempts`` rounds.
        *retry* is forwarded as the per-node server-side re-admission
        budget.  Returns per-word ``statuses`` / ``latencies`` (global
        order) plus per-node delivery counts and the round count.
        """
        if self.map is None:
            raise ClusterError("the cluster client is not connected")
        array = np.ascontiguousarray(dests, dtype=np.int64)
        if array.ndim != 1:
            raise InputError(
                f"dests must be one-dimensional, got shape {array.shape}"
            )
        self.counters["batches"] += 1
        statuses = np.zeros(array.size, dtype=np.int64)
        latencies = np.full(array.size, -1, dtype=np.int64)
        node_counts: Dict[str, int] = {}
        pending = np.arange(array.size, dtype=np.int64)
        rounds = 0
        last_error: Optional[Exception] = None
        while pending.size:
            rounds += 1
            if rounds > self.max_attempts:
                raise ClusterError(
                    f"{pending.size} of {array.size} words undeliverable "
                    f"after {self.max_attempts} rounds: {last_error!r}"
                )
            groups = self.map.locate_batch(array[pending])

            async def _one_node(node_id, positions, local_dests):
                try:
                    client = await self._client_for(node_id)
                    response = await client.send_batch(
                        local_dests, retry=retry
                    )
                except (
                    ConnectionError,
                    OSError,
                    GatewayRequestError,
                ) as error:
                    return node_id, positions, None, error
                return node_id, positions, response, None

            outcomes = await asyncio.gather(
                *(
                    _one_node(node_id, positions, local_dests)
                    for node_id, (positions, local_dests) in groups.items()
                )
            )
            still_pending: List[np.ndarray] = []
            max_hint = 0
            for node_id, positions, response, error in outcomes:
                indices = pending[positions]
                if response is None:
                    last_error = error
                    if isinstance(error, GatewayRequestError):
                        if error.slug == "admission-rejected":
                            self.counters["retries"] += 1
                            max_hint = max(
                                max_hint, error.retry_after_cycles
                            )
                        elif error.slug not in _FAILOVER_SLUGS:
                            raise error
                        else:
                            self.counters["failovers"] += 1
                            await self._drop_client(node_id)
                    else:
                        self.counters["failovers"] += 1
                        await self._drop_client(node_id)
                    still_pending.append(indices)
                    continue
                delivered = response["statuses"] == 1
                statuses[indices[delivered]] = 1
                latencies[indices[delivered]] = response["latencies"][
                    delivered
                ]
                node_counts[node_id] = node_counts.get(node_id, 0) + int(
                    delivered.sum()
                )
                if not delivered.all():
                    self.counters["retries"] += 1
                    hints = response["retry_after"][~delivered]
                    if hints.size:
                        max_hint = max(max_hint, int(hints.max()))
                    still_pending.append(indices[~delivered])
            if still_pending:
                pending = np.concatenate(still_pending)
                pause = self.retry_floor_seconds
                if max_hint:
                    pause = max(
                        pause,
                        min(1.0, max_hint * self.seconds_per_cycle),
                    )
                await asyncio.sleep(pause)
                await self.refresh_map()
            else:
                pending = pending[:0]
        return {
            "count": int(array.size),
            "delivered": int(statuses.sum()),
            "statuses": statuses,
            "latencies": latencies,
            "rounds": rounds,
            "nodes": node_counts,
        }
