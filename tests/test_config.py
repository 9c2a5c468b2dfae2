"""Config objects reject bad values when they are built, not at first use."""

import math

import numpy as np
import pytest

from streamsparse import (BalanceConfig, ExperimentConfig,
                          HyperSamplerConfig, OfflineSampleConfig,
                          OnlineConfig, OnlineSamplerState,
                          SlidingWindowConfig, TreeConfig)


@pytest.mark.parametrize("build", [
    lambda: SlidingWindowConfig(block_size=2, eps=0),
    lambda: SlidingWindowConfig(block_size=2, eps=-0.5),
    lambda: SlidingWindowConfig(block_size=2, rho=0),
    lambda: SlidingWindowConfig(block_size=2, rho=-1),
    lambda: HyperSamplerConfig(rho=1, eps=0),
    lambda: HyperSamplerConfig(rho=1, eps=-0.5),
    lambda: OnlineConfig(eps=0),
    lambda: OnlineConfig(eps=-0.5),
    lambda: TreeConfig(block_size=4, rho=0),
    lambda: TreeConfig(block_size=4, rho=-1),
    lambda: TreeConfig(block_size=4, rho=math.nan),
    lambda: TreeConfig(block_size=4, rho=math.inf),
    lambda: OfflineSampleConfig(rho=0),
    lambda: OfflineSampleConfig(rho=math.nan),
    lambda: OfflineSampleConfig(rho=math.inf),
    lambda: ExperimentConfig(batch_size=0),
    lambda: OnlineSamplerState(4, c=math.nan),
    lambda: SlidingWindowConfig(block_size=2, eps=math.nan),
    lambda: SlidingWindowConfig(block_size=2, rho=math.nan),
    lambda: HyperSamplerConfig(rho=math.nan),
    lambda: HyperSamplerConfig(rho=1, eps=math.nan),
    lambda: OnlineConfig(eps=math.nan),
    lambda: BalanceConfig(gamma=math.nan),
    lambda: ExperimentConfig(tolerance=-1),
    lambda: TreeConfig(block_size=0),
    lambda: TreeConfig(block_size=1.5),
    lambda: TreeConfig(block_size=math.nan),
    lambda: TreeConfig(block_size=True),
    lambda: TreeConfig(block_size=4.0),
    lambda: SlidingWindowConfig(block_size=0),
    lambda: SlidingWindowConfig(block_size=1.5),
    lambda: SlidingWindowConfig(block_size=math.nan),
    lambda: SlidingWindowConfig(block_size=True),
    lambda: SlidingWindowConfig(block_size=4.0),
    lambda: SlidingWindowConfig(block_size=2, eps=math.inf),
    lambda: HyperSamplerConfig(rho=1.0, c=-1.0),
    lambda: HyperSamplerConfig(rho=1.0, c=0.0),
    lambda: HyperSamplerConfig(rho=1.0, c=math.nan),
], ids=["window-eps0", "window-eps-neg", "window-rho0", "window-rho-neg",
        "hyper-eps0", "hyper-eps-neg", "online-eps0", "online-eps-neg",
        "tree-rho0", "tree-rho-neg", "tree-rho-nan", "tree-rho-inf",
        "offline-rho0", "offline-rho-nan", "offline-rho-inf",
        "experiment-batch0", "sampler-c-nan", "window-eps-nan",
        "window-rho-nan", "hyper-rho-nan", "hyper-eps-nan", "online-eps-nan",
        "balance-gamma-nan", "experiment-tolerance-neg",
        "tree-block0", "tree-block-frac", "tree-block-nan", "tree-block-bool",
        "tree-block-float", "window-block0", "window-block-frac",
        "window-block-nan", "window-block-bool", "window-block-float",
        "window-eps-inf", "hyper-c-neg", "hyper-c0", "hyper-c-nan"])
def test_bad_values_fail_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("block_size", [1, 7, np.int64(7), np.intp(3)])
def test_integer_block_sizes_are_accepted(block_size):
    assert TreeConfig(block_size=block_size).block_size == block_size
    assert SlidingWindowConfig(block_size=block_size).block_size == block_size
