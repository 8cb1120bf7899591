"""Property test: the Delta family of a coherent or squeezed input is physical.

Over random inputs (``sqvac:s``, ``|s| <= 8``, and ``coherent:beta``,
``|beta| <= 30``), squeezings r, gains, phases and Delta, the output photon
probabilities lie in [0, 1] and sum to at most 1, and the fidelity obeys the
Cauchy-Schwarz bound ``F <= sqrt(purity_in * purity_out)``.  Only rounding
is allowed as slack.
"""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import CoherentInput, SqueezedVacuumInput, delta_family  # noqa: E402

_ROUNDING = 1e-15

states = st.one_of(
    st.floats(-8.0, 8.0).map(SqueezedVacuumInput),
    st.builds(
        lambda modulus, phase: CoherentInput(cmath.rect(modulus, phase)),
        st.floats(0.0, 30.0),
        st.floats(-math.pi, math.pi),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    state=states,
    r=st.floats(0.0, 5.0),
    gain=st.floats(0.2, 3.0),
    theta=st.floats(-math.pi, math.pi),
    deltas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_gaussian_family_is_physical(state, r, gain, theta, deltas):
    family = delta_family(state, r, theta, gain, 24)
    for delta in deltas:
        probs = family.photon_distribution(delta).probs
        assert np.all(probs >= -_ROUNDING) and np.all(probs <= 1.0 + _ROUNDING)
        assert probs.sum() <= 1.0 + _ROUNDING
        bound = math.sqrt(family.purity_in * max(family.purity_out(delta), 0.0))
        assert family.fidelity(delta) <= bound + _ROUNDING
