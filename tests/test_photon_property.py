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
  it has on a grid of its own;
* every family form's rounding terms (:meth:`DeltaFamily.rounding_terms`),
  over r in [0, 40], bound the form and each of the magnitudes it sums
  before its cancellation, ``D_N^2``'s the rounding of the photon
  difference too;
* the photon numbers that :func:`moment_set` gives a teleported state,
  ``n_mean`` and ``g2_zero n_mean^2``, are the sums of ``n`` and
  ``n (n - 1)`` over the family's photon distribution.

Only rounding is allowed as slack.  No photon probability falls below
-1e-15: every family is read off Taylor coefficients, which keep relative
accuracy down to the smallest probability (the tail test in
``test_photonstats.py`` holds fock:20 to 1e-12 relative at n = 60, where
P_n is about 3e-21).  Above, the slack is 1e-15 for the closed-form
Gaussian families and 1e-12 for the Fock-diagonal ones, whose photon
basis entries carry up to about 1e-14 of rounding (the Gauss-Laguerre
oracle test holds them to 1e-13): up to 65 of them enter a sum and a
fidelity, and their Gram matrix enters ``Frobenius^2 - D_N^2``.
"""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import (  # noqa: E402
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    SqueezedBellResource,
    SqueezedVacuumInput,
    delta_family,
    moment_set,
    teleport,
)
from cvteleport.states import N_MAX_FOCK, ONE, sym  # noqa: E402

_ROUNDING = 1e-15
_FOCK_ROUNDING = 1e-12
_PHOTON_ROUNDING = 1e-14

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
        assert np.all(probs >= -_ROUNDING) and np.all(probs <= 1.0 + slack)
        assert probs.sum() <= 1.0 + slack
        m = family.measures(delta)
        assert m.fidelity <= math.sqrt(m.purity_in * max(m.purity_out, 0.0)) + slack


@settings(max_examples=300, deadline=None)
@given(state=gaussian_states, **cells)
def test_gaussian_family_is_physical(state, r, gain, theta, deltas):
    _assert_physical(delta_family(state, r, theta, gain, 24), deltas, _ROUNDING)


@settings(max_examples=150, deadline=None)
@given(state=fock_states, N=st.integers(0, N_MAX_FOCK), **cells)
def test_fock_family_is_physical(state, N, r, gain, theta, deltas):
    family = delta_family(state, r, theta, gain, N)
    _assert_physical(family, deltas, _FOCK_ROUNDING)
    cols = family.measure_columns(deltas)
    beyond = np.array([
        max(1.0 - family.photon_distribution(delta).probs.sum(), 0.0)
        + family.p_in.truncation_mass_bound
        for delta in deltas
    ])
    gap = cols["frobenius"] ** 2 - cols["d_n"] ** 2
    assert np.all(gap >= -_FOCK_ROUNDING)
    assert np.all(gap <= beyond * beyond + _FOCK_ROUNDING)


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


@settings(max_examples=150, deadline=None)
@given(
    state=st.one_of(gaussian_states, fock_states),
    r=st.floats(0.0, 40.0),
    gain=st.floats(0.2, 3.0),
    theta=st.floats(-math.pi, math.pi),
)
def test_rounding_terms_are_summed_before_their_cancellation(state, r, gain, theta):
    """Each ``rounding_terms(i)`` is at least ``|forms[i]|`` entrywise and at
    least each magnitude that the form sums: for ``D_N^2 = diff^T diff``,
    ``diff = P_out - P_in``, the product ``|diff|^T |diff|`` and the rounding
    that ``diff`` carries from the numbers it is taken from,
    ``|diff|^T (|P_out| + P_in)``; for ``1 - F`` and the Frobenius form, the
    parts ``ONE``, ``F``, ``gram`` and ``purity_in``.  Rounding is monotone,
    so every bound holds exactly."""
    family = delta_family(state, r, theta, gain, 24)
    p_in = family.p_in.clamped()[:, None] * ONE
    diff = np.abs(family.photon_basis - p_in)
    cross = diff.T @ (np.abs(family.photon_basis) + p_in)
    fidelity = np.abs(sym(family.fidelity_basis, ONE))
    parts = {
        1: (diff.T @ diff, cross, cross.T),
        2: (sym(ONE, ONE), fidelity),
        3: (np.abs(family.gram), family.purity_in * np.outer(ONE, ONE), 2.0 * fidelity),
    }
    for i, magnitudes in parts.items():
        terms = family.rounding_terms(i)
        assert terms.shape == (3, 3) and np.isfinite(terms).all()
        for magnitude in (np.abs(family.forms[i]),) + magnitudes:
            assert (terms >= magnitude).all(), (i, terms, magnitude)


photon_inputs = st.one_of(
    st.integers(0, 10).map(FockInput),
    st.builds(
        _mixture,
        st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True),
        st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    ),
    st.builds(
        lambda modulus, phase: CoherentInput(cmath.rect(modulus, phase)),
        st.floats(0.0, 2.0),
        st.floats(-math.pi, math.pi),
    ),
    st.floats(-0.5, 0.5).map(SqueezedVacuumInput),
)


@settings(max_examples=300, deadline=None)
@given(
    state=photon_inputs,
    r=st.floats(0.2, 2.0),
    theta=st.floats(-math.pi, math.pi),
    delta=st.floats(0.0, 1.0),
    gain=st.floats(0.3, 1.4),
)
def test_photon_numbers_match_the_photon_distribution(state, r, theta, delta, gain):
    """n_mean and <a^dag^2 a^2> = g2_zero n_mean^2 of a teleported state against
    the sums of n and n (n - 1) over the Delta family's photon distribution at
    N = 64, on cells with less than 1e-12 of mass past N.

    Past a gain of about 1.5, or r of about 2 away from gain 1, most cells
    put more mass than that past N (all of them from a gain of 1.8), so the
    ranges stop there; about 15% of the cells inside them are skipped.
    """
    probs = delta_family(state, r, theta, gain, N_MAX_FOCK).photon_distribution(delta).probs
    assume(1.0 - probs.sum() < 1e-12)
    ms = moment_set(teleport(state, Channel(SqueezedBellResource(delta, theta, r), gain=gain)))
    a22 = 0.0 if ms.g2_zero is None else ms.g2_zero * ms.n_mean**2
    n = np.arange(N_MAX_FOCK + 1)
    for weights, got, rel in ((n, ms.n_mean, 1e-9), (n * (n - 1), a22, 1e-7)):
        want = weights @ probs
        # Each P_n carries up to about 1e-14 of rounding, which the weights carry into the sum.
        assert abs(got - want) <= rel * abs(want) + _PHOTON_ROUNDING * weights.sum(), rel
