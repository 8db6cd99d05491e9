"""Statistical tests on routing behaviour (scipy-based).

The activity analysis reports *means*; this module checks
*distributions*:

* :func:`first_stage_control_bias` — over uniform random permutations,
  each first-stage switch control should be a fair coin (the control is
  an address bit XOR an arbiter flag, both near-uniform).  A chi-square
  goodness-of-fit test quantifies "fair".
* :func:`output_position_uniformity` — feeding uniform permutations,
  the word leaving any fixed *input* must be equally likely to carry
  every address; since delivery is exact, this reduces to testing the
  workload generator, closing the loop on seed hygiene.
* :func:`exchange_count_dispersion` — the per-pass exchange count's
  mean and variance over traffic, for comparing fabrics.

These give the library a defensible statistical answer to "is the
fabric biased?" rather than a shrug.  Each test imports scipy when it
runs, so importing :mod:`repro.analysis` (as the CLI does) never loads
it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..core.bnb import BNBNetwork
from ..core.words import Word
from ..permutations.generators import random_permutation

__all__ = [
    "first_stage_control_bias",
    "output_position_uniformity",
    "exchange_count_dispersion",
    "BiasReport",
]


@dataclasses.dataclass(frozen=True)
class BiasReport:
    """Chi-square goodness-of-fit outcome."""

    statistic: float
    p_value: float
    observations: int

    def unbiased_at(self, alpha: float = 0.01) -> bool:
        """``True`` when the null (fair/uniform) is *not* rejected."""
        return self.p_value > alpha


def first_stage_control_bias(
    m: int, samples: int = 200, seed: int = 0
) -> BiasReport:
    """Test that first-stage switch controls are fair coins.

    Pools the controls of the first main stage's first splitter over
    *samples* uniform random permutations and chi-square-tests the
    0/1 counts against 50/50.
    """
    from scipy import stats

    network = BNBNetwork(m)
    ones = 0
    total = 0
    for index in range(samples):
        pi = random_permutation(network.n, rng=seed + index)
        _outputs, record = network.route(pi.to_list(), record=True)
        assert record is not None
        controls = record.nested_records[(0, 0)].splitters[(0, 0)].controls
        ones += sum(controls)
        total += len(controls)
    statistic, p_value = stats.chisquare([total - ones, ones])
    return BiasReport(
        statistic=float(statistic), p_value=float(p_value), observations=total
    )


def output_position_uniformity(
    m: int, input_line: int = 0, samples: int = 400, seed: int = 0
) -> BiasReport:
    """Test that a fixed input's delivered address is uniform.

    Under uniform random permutations, the output line reached by the
    word entering *input_line* must be uniform over ``0..N-1``.
    """
    from scipy import stats

    network = BNBNetwork(m)
    n = network.n
    counts = [0] * n
    for index in range(samples):
        pi = random_permutation(n, rng=seed + index)
        words = [Word(address=pi(j), payload=j) for j in range(n)]
        outputs, _record = network.route(words)
        for line, word in enumerate(outputs):
            if word.payload == input_line:
                counts[line] += 1
                break
    statistic, p_value = stats.chisquare(counts)
    return BiasReport(
        statistic=float(statistic), p_value=float(p_value), observations=samples
    )


def exchange_count_dispersion(
    m: int, samples: int = 100, seed: int = 0
) -> Dict[str, float]:
    """Mean/variance of the per-pass exchange count on uniform traffic."""
    from scipy import stats

    network = BNBNetwork(m)
    counts: List[int] = []
    for index in range(samples):
        pi = random_permutation(network.n, rng=seed + index)
        _outputs, record = network.route(pi.to_list(), record=True)
        assert record is not None
        counts.append(record.total_exchanges())
    description = stats.describe(counts)
    return {
        "mean": float(description.mean),
        "variance": float(description.variance),
        "min": float(description.minmax[0]),
        "max": float(description.minmax[1]),
    }
