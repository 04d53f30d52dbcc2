"""``linalg.softmax_rows`` checks each row by its normalizer ``Σ exp(z − max)``
instead of summing the normalized row again. Hypothesis draws rows with
infinities, NaN, huge and subnormal entries: the verdict and the bits are
those of the row-sum check (``helpers.row_sum_softmax``)."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from helpers import row_sum_softmax, softmax_outcome  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from editstop.linalg import softmax_rows  # noqa: E402

ENTRIES = st.one_of(
    st.floats(width=64),  # every float64, NaN, ±inf and subnormals included
    st.floats(-50.0, 50.0),
    st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 709.0, -745.0]),
)
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=8),
    elements=ENTRIES,
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(ARRAYS)
def test_verdict_and_bits_match_the_row_sum_check(z):
    with np.errstate(all="ignore"):
        got = softmax_outcome(softmax_rows, z)
        want = softmax_outcome(row_sum_softmax, z)
    assert got == want
