"""Property tests: the series arithmetic and the weighted forms keep their bits.

* :func:`cvteleport.numerics._exp_series` sums ``n f_n = sum_k k x_k f_{n-k}``
  in Python floats, left to right from 0.0; its former form, a dot product of
  a slice with the reversed, strided series (``tests/oracles.py``), sums the
  same products in the same order.  The two agree bit for bit on series of 1
  to 65 terms with magnitudes from 1e-300 to 1e300, signed zeros included,
  and raise the same ``OverflowError`` where ``exp(x_0)`` overflows.
* :func:`cvteleport.states.weighted_forms` writes out each three-term sum of
  ``w @ Q @ w``; its former form reduces them with ``np.sum``.  They agree bit
  for bit, signed zeros included, on the check pass's stack of Delta rows
  against four forms and on the optimizer's stack of candidate rows against a
  form per cell.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cvteleport.numerics import _exp_series  # noqa: E402
from cvteleport.states import weighted_forms  # noqa: E402
from oracles import strided_exp_series, summed_weighted_forms  # noqa: E402

# 0.0, -0.0, and signed magnitudes spread over 1e-300 .. 1e300 in exponent.
coefficients = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, exponent: sign * 10.0 ** exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(-300.0, 300.0),
    ),
)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@given(st.lists(coefficients, min_size=1, max_size=65))
def test_exp_series_is_the_strided_dot_recurrence_bit_for_bit(x):
    x = np.array(x)
    try:
        want = strided_exp_series(x)
    except OverflowError:
        with pytest.raises(OverflowError):
            _exp_series(x)
        return
    got = _exp_series(x)
    assert got.shape == want.shape and _bits(got) == _bits(want), (x, got, want)


def test_exp_series_of_a_known_series():
    # exp(-t): the coefficients (-1)^n / n! to rounding; a constant series is exp(x_0).
    got = _exp_series(np.array([0.0, -1.0, 0.0, 0.0, 0.0]))
    want = [(-1.0) ** n / math.factorial(n) for n in range(5)]
    assert np.abs(got - want).max() <= 1e-16
    assert _bits(_exp_series(np.array([0.5]))) == _bits([math.exp(0.5)])


entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_subnormal=True))


@given(
    hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(1), st.just(3)), elements=entries),
    hnp.arrays(float, (4, 3, 3), elements=entries),
)
def test_weighted_forms_of_a_delta_grid_are_the_summed_forms_bit_for_bit(w, Q):
    assert _bits(weighted_forms(w, Q)) == _bits(summed_weighted_forms(w, Q))


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        hnp.arrays(float, (n, 10, 3), elements=entries),
        hnp.arrays(float, (n, 1, 3, 3), elements=entries),
    )),
)
def test_weighted_forms_of_candidate_rows_are_the_summed_forms_bit_for_bit(wQ):
    w, Q = wQ
    got = weighted_forms(w, Q)
    assert got.shape == (len(w), 10) and _bits(got) == _bits(summed_weighted_forms(w, Q))
