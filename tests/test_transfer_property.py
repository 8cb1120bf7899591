"""Property test: the ``transfer-surface`` values equal the oracle point by point.

``transfer-surface`` evaluates each preset's transfer function on the whole
grid at once, from the transfer basis and the Delta weights.  Every value
must be, bit for bit, the real part of the pointwise oracle closure
(``oracles.transfer_fn``) at that point, so no value depends on the grid.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import Channel, SqueezedBellResource  # noqa: E402
from cvteleport.cli import _surface_values  # noqa: E402
from oracles import PhasePoint, transfer_fn  # noqa: E402

coordinate = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(0.0, 1.0),
    theta=st.floats(-2 * math.pi, 2 * math.pi),
    r=st.floats(0.0, 100.0),
    gain=st.floats(1e-3, 10.0),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
)
# exp(-rate u) underflows where the sum is negative: the product is -0.0, which
# the oracle's complex value and the CLI both give as 0.0.
@example(delta=0.0, theta=0.0, r=0.2, gain=5.0, points=[(8.0, 8.0), (0.0, 0.0)])
def test_tau_on_an_array_equals_tau_point_by_point(delta, theta, r, gain, points):
    ch = Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=gain)
    w, z = (np.array(c) for c in zip(*points))
    on_array = _surface_values(ch, w * w + z * z)
    tau = transfer_fn(ch)
    by_point = np.array([tau.fn(PhasePoint(a, b)).real for a, b in points])
    assert on_array.dtype == by_point.dtype == np.float64
    assert on_array.tobytes() == by_point.tobytes()
