"""Counter-based RNG: index addressing must be stable and order-free."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse.rng import _CHUNK, UniformByIndex, spawn_seed


def test_order_independent():
    a = UniformByIndex(42)
    b = UniformByIndex(42)
    idx = [5, 0, 4100, 17, 4099, 1]
    forward = [a.uniform(i) for i in idx]
    backward = [b.uniform(i) for i in reversed(idx)]
    assert forward == list(reversed(backward))


def test_matches_plain_generator():
    # the i-th draw equals the i-th output of the underlying bit stream
    seq = np.random.Generator(np.random.Philox(key=7)).random(10000)
    u = UniformByIndex(7)
    for i in (0, 1, 4095, 4096, 4097, 9999):
        assert u.uniform(i) == seq[i]


def test_distinct_seeds_differ():
    assert UniformByIndex(0).uniform(0) != UniformByIndex(1).uniform(0)


def test_range():
    u = UniformByIndex(3)
    draws = [u.uniform(i) for i in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.4 < sum(draws) / 1000 < 0.6


def test_spawn_seed_stable_and_distinct():
    assert spawn_seed(1, 2, 3) == spawn_seed(1, 2, 3)
    assert spawn_seed(1, 2) != spawn_seed(2, 1)
    assert spawn_seed(7, 0) != spawn_seed(7, 1)


# indices anywhere in the first few chunks, or within 3 of a chunk boundary
_index = st.one_of(
    st.integers(min_value=0, max_value=4 * _CHUNK),
    st.builds(lambda c, d: max(0, c * _CHUNK + d),
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=-3, max_value=3)))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(_index, max_size=300))
@settings(max_examples=60, deadline=None)
def test_uniform_many_equals_scalar_calls(seed, indices):
    got = UniformByIndex(seed).uniform_many(indices)
    scalar = UniformByIndex(seed)
    assert got.dtype == np.float64
    assert got.tolist() == [scalar.uniform(i) for i in indices]


def test_uniform_many_rejects_negative_index():
    with pytest.raises(ValueError):
        UniformByIndex(0).uniform_many([3, -1])
