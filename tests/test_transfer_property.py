"""Property test: the transfer function on an array equals it point by point.

``transfer-surface`` evaluates each preset in one call on the whole grid, so
the grid evaluation must reproduce the scalar one bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import Channel, SqueezedBellResource  # noqa: E402
from cvteleport.phasespace import PhasePoint  # noqa: E402
from cvteleport.states import transfer_fn  # noqa: E402

coordinate = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(0.0, 1.0),
    theta=st.floats(-2 * math.pi, 2 * math.pi),
    r=st.floats(0.0, 100.0),
    gain=st.floats(1e-3, 10.0),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
)
def test_tau_on_an_array_equals_tau_point_by_point(delta, theta, r, gain, points):
    tau = transfer_fn(Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=gain))
    w, z = (np.array(c) for c in zip(*points))
    on_array = tau.fn(PhasePoint(w, z))
    by_point = np.array([tau.fn(PhasePoint(a, b)) for a, b in points])
    assert on_array.dtype == by_point.dtype == np.complex128
    assert on_array.tobytes() == by_point.tobytes()
