"""The declarative op registry shared by both wire framings.

Every protocol operation is one :class:`OpSpec`: a name (the JSON
``op`` field), a stable binary opcode, and an async handler that takes
``(server, request)`` and returns the success body.  The JSON-lines
and binary framings are pure transports — both decode to the same
request dict, call :func:`dispatch`, and encode the same response
dict — so an op added here is immediately speakable in either framing
and the two can be differentially tested against each other.

:func:`dispatch` also owns the error envelope: every gateway exception
maps to a stable ``error`` slug (``admission-rejected``,
``bad-request``, ``unsupported-version``, ``gateway-closed``,
``plane-unavailable``, ``metrics-disabled``, ``internal``), and the
request's ``id`` is echoed on success and failure alike.  Handlers
read request fields with ``.get`` and ignore anything they don't know
— the forward-compatibility half of the version contract
(:data:`~repro.server.framing.PROTOCOL_VERSION` documents the other
half: the server refuses a ``hello`` with a newer *major*).
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Awaitable, Callable, Dict, List, Optional

import numpy as np

from ..exceptions import (
    AdmissionRejectedError,
    FaultError,
    GatewayClosedError,
    InputError,
    PlaneUnavailableError,
    UnsupportedVersionError,
    WireFormatError,
)
from .framing import PROTOCOL_VERSION

__all__ = [
    "OpSpec",
    "REGISTRY",
    "BY_CODE",
    "dispatch",
    "error_response",
    "features",
    "ok_response",
]

#: name -> spec, filled by the ``@_op`` registrations below.
REGISTRY: Dict[str, "OpSpec"] = {}
#: binary opcode -> spec (the codes are wire ABI: never renumber).
BY_CODE: Dict[int, "OpSpec"] = {}

Handler = Callable[[Any, Dict[str, Any]], Awaitable[Dict[str, Any]]]


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """One protocol operation: name, binary opcode, handler."""

    name: str
    code: int
    handler: Handler
    summary: str


def _op(name: str, code: int, summary: str):
    """Register an async handler as the op *name* / opcode *code*."""

    def register(handler: Handler) -> Handler:
        if name in REGISTRY or code in BY_CODE:
            raise ValueError(f"op {name!r}/{code} registered twice")
        spec = OpSpec(name=name, code=code, handler=handler, summary=summary)
        REGISTRY[name] = spec
        BY_CODE[code] = spec
        return handler

    return register


def features(server: Any) -> List[str]:
    """The capability flags a ``hello`` advertises for *server*."""
    # "cluster": the drain/rejoin/shard_map op family — a cluster
    # router can manage this node and a cluster client can bootstrap
    # its shard map from it.
    flags = ["batch", "binary", "cluster", "json"]
    if server.instrumentation is not None:
        flags.append("metrics")
    gateway = server.gateway
    if getattr(gateway.config, "resilient", False):
        flags.append("resilient")
    if getattr(gateway.config, "tenants", None):
        flags.append("tenants")
    return sorted(flags)


def ok_response(body: Dict[str, Any], request_id: Any = None) -> Dict[str, Any]:
    response = {"ok": True, **body}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    slug: str, request_id: Any = None, **fields: Any
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": False, "error": slug, **fields}
    if request_id is not None:
        response["id"] = request_id
    return response


async def dispatch(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one decoded request through the registry; never raises.

    The single choke point both framings call: resolves the op, runs
    its handler, and maps every failure to the stable error envelope.
    """
    if not isinstance(request, dict):
        return error_response("bad-request", detail="request must be an object")
    request_id = request.get("id")
    op = request.get("op")
    spec = REGISTRY.get(op)
    if spec is None:
        return error_response(
            "bad-request", request_id, detail=f"unknown op {op!r}"
        )
    try:
        return ok_response(await spec.handler(server, request), request_id)
    except AdmissionRejectedError as error:
        return error_response(
            "admission-rejected",
            request_id,
            dest=error.destination,
            retry_after_cycles=error.retry_after_cycles,
        )
    except UnsupportedVersionError as error:
        return error_response(
            "unsupported-version",
            request_id,
            detail=str(error),
            protocol_version=list(PROTOCOL_VERSION),
        )
    except GatewayClosedError as error:
        return error_response("gateway-closed", request_id, detail=str(error))
    except PlaneUnavailableError as error:
        return error_response("plane-unavailable", request_id, detail=str(error))
    except _MetricsDisabled as error:
        return error_response("metrics-disabled", request_id, detail=str(error))
    except (InputError, FaultError, WireFormatError) as error:
        return error_response("bad-request", request_id, detail=str(error))
    except asyncio.CancelledError:
        raise
    except Exception as error:  # noqa: BLE001 — protocol boundary
        return error_response("internal", request_id, detail=repr(error))


class _MetricsDisabled(Exception):
    """Internal marker: the metrics op on an uninstrumented server."""


# ----------------------------------------------------------------------
# The ops
# ----------------------------------------------------------------------
@_op("ping", 1, "liveness probe")
async def _op_ping(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    return {"op": "ping"}


@_op("hello", 2, "version and feature negotiation")
async def _op_hello(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    requested = request.get("version")
    if requested is not None:
        if (
            not isinstance(requested, (list, tuple))
            or not requested
            or not all(
                isinstance(part, int) and not isinstance(part, bool)
                for part in requested
            )
        ):
            raise InputError(
                f"'version' must be [major] or [major, minor] integers, "
                f"got {requested!r}"
            )
        if requested[0] > PROTOCOL_VERSION[0]:
            raise UnsupportedVersionError(
                list(requested), list(PROTOCOL_VERSION)
            )
    return {
        "op": "hello",
        "protocol_version": list(PROTOCOL_VERSION),
        "features": features(server),
        "ops": {
            spec.name: spec.code for spec in sorted(
                REGISTRY.values(), key=lambda spec: spec.code
            )
        },
        "n": server.gateway.n,
    }


@_op("stats", 3, "gateway counters snapshot")
async def _op_stats(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "op": "stats",
        "protocol_version": list(PROTOCOL_VERSION),
        "stats": server.gateway.stats(),
    }


@_op("metrics", 4, "telemetry exposition (json or prometheus)")
async def _op_metrics(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    if server.instrumentation is None:
        raise _MetricsDisabled(
            "the server was started without instrumentation"
        )
    fmt = request.get("format", "json")
    if fmt == "prometheus":
        return {
            "op": "metrics",
            "format": "prometheus",
            "body": server.instrumentation.render_prometheus(),
        }
    if fmt == "json":
        from ..obs.snapshot import sanitize

        return {
            "op": "metrics",
            "format": "json",
            "metrics": sanitize(server.instrumentation.snapshot()),
        }
    raise InputError(
        f"metrics format must be 'json' or 'prometheus', got {fmt!r}"
    )


def _tenant_field(request: Dict[str, Any]) -> Optional[str]:
    """The optional ``tenant`` QoS-class field of a send-style request.

    Additive minor-version field: absent or ``None`` means the default
    class, anything else must be a non-empty string.
    """
    tenant = request.get("tenant")
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant:
        raise InputError(
            f"'tenant' must be a non-empty class name, got {tenant!r}"
        )
    return tenant


@_op("send", 5, "admit one word, await its delivery receipt")
async def _op_send(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    destination = request.get("dest")
    if not isinstance(destination, int) or isinstance(destination, bool):
        raise InputError("'dest' must be an integer output line")
    retry = bool(request.get("retry", False))
    tenant = _tenant_field(request)
    if retry:
        receipt = await server.gateway.send_with_retry(
            destination, request.get("payload"), tenant=tenant
        )
    else:
        receipt = await server.gateway.send(
            destination, request.get("payload"), tenant=tenant
        )
    return {
        "op": "send",
        "dest": receipt.destination,
        "plane": receipt.plane_id,
        "frame": receipt.frame_tag,
        "latency_cycles": receipt.latency_cycles,
        "mode": receipt.mode,
    }


@_op("send_batch", 6, "admit a batch of words, await all deliveries")
async def _op_send_batch(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    dests = request.get("dests")
    if dests is None:
        raise InputError("'dests' must be a list (or int64 array) of outputs")
    if isinstance(dests, np.ndarray):
        if dests.ndim != 1:
            raise InputError(
                f"'dests' must be one-dimensional, got shape {dests.shape}"
            )
        destinations = dests
    elif isinstance(dests, (list, tuple)):
        if not all(
            isinstance(dest, int) and not isinstance(dest, bool)
            for dest in dests
        ):
            raise InputError("every 'dests' element must be an integer")
        destinations = np.asarray(dests, dtype=np.int64)
    else:
        raise InputError(
            f"'dests' must be a list (or int64 array) of outputs, "
            f"got {type(dests).__name__}"
        )
    attempts = request.get("retry", 0)
    if attempts is True:
        attempts = 16
    if not isinstance(attempts, int) or attempts < 0:
        raise InputError(
            f"'retry' must be false/true or a non-negative attempt "
            f"count, got {attempts!r}"
        )
    result = await server.gateway.send_batch(
        destinations,
        retry_attempts=attempts,
        tenant=_tenant_field(request),
    )
    return {
        "op": "send_batch",
        "count": result.count,
        "delivered": result.delivered,
        "rejected": result.rejected,
        "mode_table": list(result.mode_table),
        "statuses": result.statuses,
        "planes": result.planes,
        "latencies": result.latencies,
        "frames": result.frames,
        "retry_after": result.retry_after,
        "modes": result.modes,
    }


@_op("drain", 8, "stop admitting new words; keep serving the backlog")
async def _op_drain(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    backlog = server.gateway.drain()
    return {
        "op": "drain",
        "draining": True,
        "node_id": server.gateway.node_id,
        **backlog,
    }


@_op("rejoin", 9, "resume admission after a drain")
async def _op_rejoin(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    server.gateway.rejoin()
    return {
        "op": "rejoin",
        "draining": False,
        "node_id": server.gateway.node_id,
    }


@_op("shard_map", 10, "get, or install, the cluster shard map")
async def _op_shard_map(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """One op, two uses: the router *installs* the map (a ``map``
    field with a newer version wins), clients *fetch* it (no ``map``
    field).  Every node carries the latest map it has seen, so a
    cluster client can bootstrap or refresh from whichever node it can
    still reach — no separate coordination service.
    """
    doc = request.get("map")
    installed = False
    if doc is not None:
        if not isinstance(doc, dict):
            raise InputError("'map' must be a shard-map object")
        version = doc.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise InputError("'map' must carry an integer 'version'")
        current = server.cluster_map
        if current is None or version >= current.get("version", 0):
            server.cluster_map = doc
            installed = True
    return {
        "op": "shard_map",
        "installed": installed,
        "node_id": server.gateway.node_id,
        "map": server.cluster_map,
    }


@_op("inject", 7, "fault drill: stuck a live resilient plane's switch")
async def _op_inject(server: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    plane = request.get("plane", 0)
    if not isinstance(plane, int) or isinstance(plane, bool):
        raise InputError("'plane' must be an integer plane id")
    coordinate = request.get("coordinate")
    if (
        not isinstance(coordinate, (list, tuple))
        or len(coordinate) != 5
        or not all(
            isinstance(axis, int) and not isinstance(axis, bool)
            for axis in coordinate
        )
    ):
        raise InputError(
            "'coordinate' must be 5 integers: [main_stage, nested, "
            "nested_stage, box, switch]"
        )
    value = request.get("value", 1)
    if value not in (0, 1) or isinstance(value, bool):
        raise InputError("'value' must be the stuck control bit, 0 or 1")
    described = server.gateway.inject_fault(plane, tuple(coordinate), value)
    return {"op": "inject", "plane": described}
