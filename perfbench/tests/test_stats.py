import numpy as np
import pytest

from perfbench.stats import (
    fit_linear,
    highest_supported_percentile,
    samples_beyond,
    tail_percentile,
)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(1000, 99) == 10


def test_p95_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(200)), 95) == pytest.approx(
        np.percentile(np.arange(200), 95))
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(199)), 95)


def test_p50_needs_twenty_samples():
    assert tail_percentile([1.0] * 20, 50) == 1.0
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 19, 50)


def test_highest_supported_percentile():
    assert highest_supported_percentile(19) == 0.0
    assert highest_supported_percentile(20) == 50
    assert highest_supported_percentile(199) == 90
    assert highest_supported_percentile(200) == 95
    assert highest_supported_percentile(1000) == 99


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(3)
    sizes = np.concatenate([rng.integers(500, 1500, 200),
                            rng.integers(6000, 10000, 40)])
    a, b = 800e-6, 90e-9                 # 800 us fixed, 90 ns per tuple
    costs = a + b * sizes + rng.normal(0, 5e-6, sizes.size)
    fit_a, fit_b = fit_linear(sizes, costs)
    assert fit_a == pytest.approx(a, rel=0.02)
    assert fit_b == pytest.approx(b, rel=0.02)


def test_fit_refuses_a_single_size():
    with pytest.raises(ValueError):
        fit_linear([1000, 1000, 1000], [1.0, 1.1, 0.9])
