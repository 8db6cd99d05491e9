"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.permutations import PermutationSampler

#: Hard wall for any one async test; a wedged event loop fails fast
#: instead of hanging the suite.
ASYNC_TEST_TIMEOUT = 60.0


@pytest.fixture
def rng():
    """A seeded RNG so tests are reproducible."""
    return random.Random(48107)


@pytest.fixture
def sampler8():
    """A seeded permutation sampler on 8 points."""
    return PermutationSampler(8, seed=8)


@pytest.fixture
def sampler16():
    """A seeded permutation sampler on 16 points."""
    return PermutationSampler(16, seed=16)


@pytest.fixture
def sampler64():
    """A seeded permutation sampler on 64 points."""
    return PermutationSampler(64, seed=64)


@pytest.fixture
def run_async():
    """Run a coroutine on a fresh event loop with a per-test timeout.

    The async suite runs on stock pytest: with ``pytest-asyncio``
    installed (the ``dev`` extra) its native mode also works, but
    nothing here requires the plugin — each test drives its coroutine
    through this fixture, and :func:`asyncio.wait_for` enforces the
    per-test deadline either way.
    """

    def _run(coro, timeout: float = ASYNC_TEST_TIMEOUT):
        async def _bounded():
            return await asyncio.wait_for(coro, timeout)

        return asyncio.run(_bounded())

    return _run


@pytest.fixture
def stuck_switch_backend():
    """A test-only routing backend class for a faulty plane: the compiled
    BNB dataplane with main stage 2's first switch stuck at 1, so any
    frame that needs that switch the other way misdelivers words."""
    from repro.backends import compiled_backend
    from repro.faults import SwitchCoordinate, fault_mask_for

    class StuckSwitchBackend:
        name = "bnb-stuck"

        def __init__(self, m):
            self.m, self.n = m, 1 << m
            self._bnb = compiled_backend("bnb", m)
            self._mask = fault_mask_for(
                m, [(SwitchCoordinate(2, 0, 0, 0, 0), 1)]
            )

        def route_frame(self, addresses):
            return self._bnb.route_frame(addresses, mask=self._mask)

        def route_frame_batch(self, addresses):
            return self._bnb.route_frame_batch(addresses, mask=self._mask)

    return StuckSwitchBackend


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running exhaustive checks (still run by default)"
    )
    config.addinivalue_line(
        "markers", "asyncio_suite: drives an asyncio event loop"
    )


def pytest_collection_modifyitems(config, items):
    # With pytest-timeout available (the dev extra), give every async
    # test a belt-and-braces process-level deadline on top of the
    # event-loop one from the run_async fixture.
    if not config.pluginmanager.hasplugin("timeout"):
        return
    for item in items:
        if item.get_closest_marker("asyncio_suite") is not None:
            item.add_marker(pytest.mark.timeout(ASYNC_TEST_TIMEOUT + 30))
