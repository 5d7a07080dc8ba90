"""``util.compensated_sum`` against ``math.fsum``.

The sum is pairwise TwoSum levels with the rounding errors added back, so
it lies within one ulp of the correctly rounded sum that ``math.fsum``
returns; on the fixed cases below it equals it.  Every step is
elementwise, so a column of a 2-D array sums as it would alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdms.util import compensated_sum

TINY = 5e-324  # the smallest subnormal

FIXED = {
    "one-term": [0.3],
    "tenths": [0.1] * 10,
    "cancelling-large": [1.0, 1e100, 1.0, -1e100],
    "absorbed-one": [1e16, 1.0, -1e16, 1.0, 1.0],
    "subnormals": [TINY] * 7,
    "zeros": [0.0] * 5,
    "harmonic": [1.0 / k for k in range(1, 1002)],
    "decaying": np.exp(-np.arange(3001) / 7.0).tolist(),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_cases_equal_fsum(name):
    terms = FIXED[name]
    assert compensated_sum(np.array(terms)) == math.fsum(terms)


def _terms(rng, shape, zeros, subnormals):
    """exp(-U*700) terms, a share of them replaced by zeros and a share by
    subnormals."""
    x = np.exp(-rng.random(shape) * 700.0)
    pick = rng.random(shape)
    x[pick < zeros] = 0.0
    sub = (pick >= zeros) & (pick < zeros + subnormals)
    x[sub] = TINY * rng.integers(1, 1 << 20, size=int(sub.sum()))
    return x


LENGTHS = st.one_of(st.integers(1, 1 << 17),
                    st.sampled_from([1, 2, 3, 5, (1 << 16) - 1, (1 << 16) + 1,
                                     3 ** 10, (1 << 17) - 1, 1 << 17]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(LENGTHS, st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.1, 0.9]), st.sampled_from([0.0, 0.05, 0.5]))
def test_within_one_ulp_of_fsum(length, cols, seed, zeros, subnormals):
    x = _terms(np.random.default_rng(seed), (length, cols), zeros, subnormals)
    sums = compensated_sum(np.asfortranarray(x))
    assert sums.shape == (cols,)
    for j in range(cols):
        exact = math.fsum(x[:, j].tolist())
        assert abs(sums[j] - exact) <= math.ulp(exact), (j, sums[j], exact)
        # a column sums as it does alone, in either memory order
        assert compensated_sum(x[:, j]) == sums[j]
    assert np.array_equal(compensated_sum(x), sums)
