"""The vectorized numpy BNB path must agree with the reference model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BNBNetwork
from repro.core.plan import vector_splitter_controls
from repro.core.splitter import Splitter
from repro.exceptions import NotAPermutationError
from repro.permutations import random_permutation


class TestVectorSplitter:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_controls_match_reference(self, p):
        """Element-for-element agreement with the object model over
        random even-weight blocks."""
        rng = np.random.default_rng(p)
        width = 1 << p
        splitter = Splitter(p, check_balance=False)
        blocks = rng.integers(0, 2, size=(40, width))
        controls = vector_splitter_controls(blocks)
        for row in range(blocks.shape[0]):
            expected = splitter.controls(blocks[row].tolist())
            assert controls[row].tolist() == expected, blocks[row]


class TestRouteFast:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_sorts_random_permutations(self, m):
        net = BNBNetwork(m)
        n = 1 << m
        for seed in range(20):
            pi = random_permutation(n, rng=seed)
            out = net.route_fast(np.array(pi.to_list()))
            assert np.array_equal(out, np.arange(n)), (m, seed)

    def test_matches_reference_arrangements(self):
        """Not just the final result: both models route word-for-word
        (the output of the reference model *is* sorted, so comparing
        outputs suffices at the boundary; inputs are randomized)."""
        m = 5
        net = BNBNetwork(m)
        for seed in range(10):
            pi = random_permutation(1 << m, rng=100 + seed)
            reference, _ = net.route(pi.to_list())
            fast = net.route_fast(np.array(pi.to_list()))
            assert [w.address for w in reference] == fast.tolist()

    def test_shape_validation(self):
        net = BNBNetwork(3)
        with pytest.raises(ValueError):
            net.route_fast(np.zeros((2, 4), dtype=np.int64))

    def test_permutation_validation(self):
        net = BNBNetwork(2)
        with pytest.raises(NotAPermutationError):
            net.route_fast(np.array([0, 0, 1, 2]))

    def test_large_instance(self):
        m = 10
        net = BNBNetwork(m)
        pi = random_permutation(1 << m, rng=1)
        out = net.route_fast(np.array(pi.to_list()))
        assert np.array_equal(out, np.arange(1 << m))


class TestValidationParity:
    """``route_fast`` must fail exactly like ``route``: same exception
    types, same messages, same ``check_inputs`` escape hatch."""

    def test_wrong_length_same_error_as_route(self):
        net = BNBNetwork(3)
        with pytest.raises(ValueError) as fast_info:
            net.route_fast(np.array([0, 1, 2]))
        with pytest.raises(ValueError) as slow_info:
            net.route([0, 1, 2])
        assert str(fast_info.value) == str(slow_info.value)
        assert str(fast_info.value) == "expected 8 inputs, got 3"

    def test_non_permutation_same_error_as_route(self):
        net = BNBNetwork(2)
        bad = [0, 0, 1, 2]
        with pytest.raises(NotAPermutationError) as fast_info:
            net.route_fast(np.array(bad))
        with pytest.raises(NotAPermutationError) as slow_info:
            net.route(list(bad))
        assert str(fast_info.value) == str(slow_info.value)
        assert fast_info.value.addresses == bad

    def test_out_of_range_address_rejected(self):
        net = BNBNetwork(2)
        with pytest.raises(NotAPermutationError):
            net.route_fast(np.array([0, 1, 2, 99]))

    def test_bad_shape_rejected(self):
        net = BNBNetwork(3)
        with pytest.raises(ValueError, match=r"expected shape \(8,\)"):
            net.route_fast(np.zeros((2, 4), dtype=np.int64))

    def test_check_inputs_false_skips_address_validation(self):
        """Both paths honour the escape hatch: with ``check_inputs``
        off, neither raises :class:`NotAPermutationError` (the object
        model's splitters may still trip on unbalanced garbage — that
        is a deeper layer, not input validation)."""
        unchecked = BNBNetwork(2, check_inputs=False)
        bad = np.array([0, 0, 1, 2])
        out = unchecked.route_fast(bad)  # no validation: must not raise
        assert out.shape == (4,)
        with pytest.raises(NotAPermutationError):
            BNBNetwork(2).route_fast(bad)

    def test_check_inputs_false_still_routes_valid_input(self):
        net = BNBNetwork(3, check_inputs=False)
        pi = random_permutation(8, rng=5)
        out = net.route_fast(np.array(pi.to_list()))
        assert np.array_equal(out, np.arange(8))
