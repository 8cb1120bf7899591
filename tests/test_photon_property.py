"""Property tests: every Delta family is physical, and a grid does not move its digits.

Over random inputs, squeezings r in [0, 5], gains in [0.2, 3], phases and
Delta:

* the Delta family of a coherent or squeezed input (``sqvac:s``,
  ``|s| <= 8``, and ``coherent:beta``, ``|beta| <= 30``) and of a Fock state
  or mixture (``fock:n`` and mixtures of up to four photon numbers, all
  ``<= 64``, at cutoffs ``N <= 64``) gives output photon probabilities in
  [0, 1] that sum to at most 1, and a fidelity within the Cauchy-Schwarz
  bound ``F <= sqrt(purity_in * purity_out)``;
* for a Fock-diagonal input, ``Frobenius^2 - D_N^2`` is the squared photon
  difference beyond N, so it lies in ``[0, beyond^2]`` with ``beyond`` the
  output and input mass past N;
* :meth:`DeltaFamily.measure_columns` gives every Delta of a grid the digits
  it has on a grid of its own.

Only rounding is allowed as slack: 1e-15 for the closed-form Gaussian
families, and 1e-12 for the Fock-diagonal ones.  There each of up to 65
probabilities carries about 1e-14 of rounding from Gauss-Laguerre sums over
Laguerre polynomials of degree up to 64 (the exact-expansion test in
``test_photonstats.py`` holds them to 1e-13), and their sum up to 65 times
that.
"""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import (  # noqa: E402
    CoherentInput,
    FockInput,
    FockMixtureInput,
    SqueezedVacuumInput,
    delta_family,
)
from cvteleport.states import N_MAX_FOCK  # noqa: E402

_ROUNDING = 1e-15
_RULE_ROUNDING = 1e-12

gaussian_states = st.one_of(
    st.floats(-8.0, 8.0).map(SqueezedVacuumInput),
    st.builds(
        lambda modulus, phase: CoherentInput(cmath.rect(modulus, phase)),
        st.floats(0.0, 30.0),
        st.floats(-math.pi, math.pi),
    ),
)


def _mixture(photons, weights):
    weights = weights[: len(photons)]
    p = np.array(weights) / math.fsum(weights)
    p[-1] = 1.0 - math.fsum(p[:-1])
    return FockMixtureInput(tuple((n, float(q)) for n, q in zip(photons, p)))


fock_states = st.one_of(
    st.integers(0, N_MAX_FOCK).map(FockInput),
    st.builds(
        _mixture,
        st.lists(st.integers(0, N_MAX_FOCK), min_size=1, max_size=4, unique=True),
        st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    ),
)

cells = dict(
    r=st.floats(0.0, 5.0),
    gain=st.floats(0.2, 3.0),
    theta=st.floats(-math.pi, math.pi),
    deltas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)


def _assert_physical(family, deltas, slack):
    for delta in deltas:
        probs = family.photon_distribution(delta).probs
        assert np.all(probs >= -slack) and np.all(probs <= 1.0 + slack)
        assert probs.sum() <= 1.0 + slack
        bound = math.sqrt(family.purity_in * max(family.purity_out(delta), 0.0))
        assert family.fidelity(delta) <= bound + slack


@settings(max_examples=300, deadline=None)
@given(state=gaussian_states, **cells)
def test_gaussian_family_is_physical(state, r, gain, theta, deltas):
    _assert_physical(delta_family(state, r, theta, gain, 24), deltas, _ROUNDING)


@settings(max_examples=150, deadline=None)
@given(state=fock_states, N=st.integers(0, N_MAX_FOCK), **cells)
def test_fock_family_is_physical(state, N, r, gain, theta, deltas):
    family = delta_family(state, r, theta, gain, N)
    _assert_physical(family, deltas, _RULE_ROUNDING)
    cols = family.measure_columns(deltas)
    beyond = np.array([
        max(1.0 - family.photon_distribution(delta).probs.sum(), 0.0)
        + family.p_in.truncation_mass_bound
        for delta in deltas
    ])
    gap = cols["frobenius"] ** 2 - cols["d_n"] ** 2
    assert np.all(gap >= -_RULE_ROUNDING)
    assert np.all(gap <= beyond * beyond + _RULE_ROUNDING)


@settings(max_examples=100, deadline=None)
@given(
    state=st.one_of(gaussian_states, fock_states),
    r=st.floats(0.0, 5.0),
    gain=st.floats(0.2, 3.0),
    theta=st.floats(-math.pi, math.pi),
    deltas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9),
)
def test_measure_columns_do_not_depend_on_the_grid(state, r, gain, theta, deltas):
    family = delta_family(state, r, theta, gain, 24)
    grid = family.measure_columns(deltas)
    for j, delta in enumerate(deltas):
        one = family.measure_columns([delta])
        for name, col in grid.items():
            assert col[j] == one[name][0], (name, delta)
