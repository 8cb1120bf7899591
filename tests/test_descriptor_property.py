"""Property test: a catalog state survives its JSON descriptor.

``state_to_descriptor`` is the grammar of config files and records;
``state_from_descriptor`` must give back an equal state for every state of
the catalog, also after the descriptor went through JSON text.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import (  # noqa: E402
    CoherentInput,
    FockInput,
    FockMixtureInput,
    SqueezedVacuumInput,
    state_from_descriptor,
    state_to_descriptor,
)


@st.composite
def mixtures(draw):
    """Mixtures over few photon numbers, so numbers repeat, with some zero weights."""
    parts = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1, max_size=8
    ).filter(lambda parts: any(count for _, count in parts)))
    total = sum(count for _, count in parts)
    return FockMixtureInput(tuple((n, count / total) for n, count in parts))


states = st.one_of(
    st.builds(FockInput, st.integers(0, 10**6)),
    st.builds(CoherentInput, st.complex_numbers(
        max_magnitude=1e150, allow_nan=False, allow_infinity=False
    )),
    st.builds(SqueezedVacuumInput, st.floats(-700.0, 700.0)),
    mixtures(),
)


@settings(max_examples=300, deadline=None)
@given(state=states)
def test_descriptor_round_trip_gives_the_state_back(state):
    descriptor = state_to_descriptor(state)
    assert state_from_descriptor(descriptor) == state
    assert state_from_descriptor(json.loads(json.dumps(descriptor))) == state
