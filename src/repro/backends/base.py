"""The :class:`RoutingBackend` protocol and the backend registry.

ROADMAP item 1 made live: every permutation-routing engine in the
repository — the BNB dataplane itself and the rival fabrics from
``baselines/`` — plugs in behind one compiled-engine contract so the
serving layer (and the arena calibration in
:mod:`repro.backends.arena`) can treat "which network routes this
plane's frames" as a measured choice instead of a hard-coded one.

The contract has two halves:

* a :class:`BackendSpec` — the registry entry: name, one-line summary,
  a capability flag (``supports_fault_mask`` for engines that accept a
  :class:`~repro.core.plan.FaultMask`) and a ``factory`` that compiles
  the per-``m`` engine;
* a compiled engine (:class:`RoutingBackend`) — built **once per
  (backend, m)** and cached process-wide, exposing ``route_frame`` /
  ``route_frame_batch`` over int64 numpy address arrays.  Both return
  *sources*: ``sources[line]`` is the input line whose word arrives on
  output ``line`` (``sources[b, line]`` for the batch form), the same
  convention as :func:`repro.core.pipeline_fast.route_frame_batch`.

Compilation cost (Benes wiring tables, comparator stage indices, BNB
gather plans) is therefore paid once per process per size — the
:func:`prewarm` hook lets the gateway pay it at boot instead of on the
first served frame.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = [
    "BackendSpec",
    "RoutingBackend",
    "backend_names",
    "backend_specs",
    "compile_cache_info",
    "compiled_backend",
    "get_backend_spec",
    "prewarm",
    "register_backend",
]


@runtime_checkable
class RoutingBackend(Protocol):
    """A compiled permutation-routing engine for one network size.

    Implementations carry their compile-once state (index tables,
    network objects) as instance attributes; the route methods must not
    mutate shared tables, so one compiled engine can serve every plane
    of its size concurrently.
    """

    #: Registry name of the backend that compiled this engine.
    name: str
    #: Size exponent; the engine routes frames of ``n = 2**m`` words.
    m: int
    #: Frame width.
    n: int

    def route_frame(self, addresses: np.ndarray) -> np.ndarray:
        """Route one frame; return the per-output source-line array.

        *addresses* is a length-``n`` int64 permutation of
        ``0 .. n-1``; ``result[line]`` is the input line whose word
        arrives on output ``line``.
        """
        ...

    def route_frame_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Route a ``(batch, n)`` stack of independent frames at once
        (an empty ``(0, n)`` batch gives an empty ``(0, n)`` int64
        array)."""
        ...


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """One registry entry: identity, capabilities, and the compiler."""

    name: str
    summary: str
    factory: Callable[[int], RoutingBackend]
    #: The engine accepts a :class:`~repro.core.plan.FaultMask` (a
    #: ``mask=`` keyword on its route methods) and reproduces the
    #: faulty fabric's arrival order.
    supports_fault_mask: bool = False

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "summary": self.summary,
            "supports_fault_mask": self.supports_fault_mask,
        }


#: name -> spec; populated by the ``register_backend`` calls in the
#: sibling modules, imported by ``repro.backends.__init__``.
_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Add *spec* to the registry (idempotent for an identical spec)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def backend_names() -> List[str]:
    """Registered backend names, sorted — the CLI choices source."""
    return sorted(_REGISTRY)


def backend_specs() -> Tuple[BackendSpec, ...]:
    return tuple(_REGISTRY[name] for name in backend_names())


def get_backend_spec(name: str) -> BackendSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


@functools.lru_cache(maxsize=None)
def compiled_backend(name: str, m: int) -> RoutingBackend:
    """The compile-once engine for ``(backend, m)``, cached per process.

    Every plane, arena pass and CLI invocation of a given size shares
    one compiled engine, exactly like
    :func:`repro.core.plan.compiled_plan` shares its index tables.
    """
    if m < 1:
        raise ValueError(f"a routing backend needs m >= 1, got {m}")
    return get_backend_spec(name).factory(m)


def compile_cache_info():
    """The compiled-engine cache counters (for prewarm tests/stats)."""
    return compiled_backend.cache_info()


def prewarm(m: int, names: Optional[List[str]] = None) -> List[str]:
    """Compile the named backends (default: all) for size *m* now.

    Also warms the shared :func:`~repro.core.plan.compiled_plan` table
    cache, so a server that calls this at boot pays zero compile
    latency on its first frame.  Returns the names compiled.
    """
    from ..core.plan import compiled_plan

    compiled_plan(m)
    chosen = backend_names() if names is None else list(names)
    for name in chosen:
        compiled_backend(name, m)
    return chosen
