import dataclasses
import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    CoherentInput,
    ConsistencyError,
    CVTeleportError,
    EvaluationError,
    FockInput,
    FockMixtureInput,
    InvalidArgumentError,
    PhotonDistribution,
    SqueezedBellResource,
    SqueezedVacuumInput,
    d_functional,
    delta_family,
    distortion_measures,
    input_distribution,
    input_photon_probs,
    input_purity,
    teleport,
)
import cvteleport.photonstats as photonstats
from cvteleport.cli import _COMMANDS, parse_state
from conftest import DELTA2_OPT, case_study_inputs
from oracles import (
    PlaneConfig,
    convert_ordering,
    input_charfn,
    output_charfn,
    output_photon_prob,
    output_photon_probs,
    overlap,
    purity,
)


def thermal_probs(nbar, N):
    n = np.arange(N + 1)
    return nbar**n / (1.0 + nbar) ** (n + 1)


# ---------------------------------------------------------------------------
# output photon probabilities on the plane (the oracle of the Delta family)
# ---------------------------------------------------------------------------

def test_vacuum_through_tmsv_matches_thermal_oracle():
    # Delta = 1 on vacuum gives exp(-(1/2 + e^{-2r}) u): a thermal state of
    # mean photon number e^{-2r}.
    r = 1.25
    out = teleport(FockInput(0), Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r)))
    pd = output_photon_probs(out, 24)
    want = thermal_probs(math.exp(-2.0 * r), 24)
    assert np.abs(pd.probs - want).max() <= 1e-8


def test_vacuum_near_epr_p0(epr_channel):
    pd = output_photon_probs(teleport(FockInput(0), epr_channel), 24)
    assert pd.probs[0] >= 0.99


def test_fock1_near_identity_p1(epr_channel):
    pd = output_photon_probs(teleport(FockInput(1), epr_channel), 24)
    assert pd.probs[1] >= 0.98


def test_single_path_matches_batch():
    out = teleport(FockInput(1), Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=1.0)))
    pd = output_photon_probs(out, 8)
    for n in (0, 1, 5, 8):
        assert output_photon_prob(out, n) == pytest.approx(float(pd.probs[n]), abs=1e-8)


def test_truncated_mass_at_24():
    presets = [
        (FockInput(0), 0.999),
        (FockInput(1), 0.999),
        (FockMixtureInput(((0, 0.5), (1, 0.5))), 0.999),
        (CoherentInput(2.12928), 0.999),
        # The squeezed-vacuum tail genuinely extends past 24 photons: the
        # exact input distribution already leaves ~2.4% above the cutoff.
        (SqueezedVacuumInput(1.5), 0.95),
    ]
    for r in (0.75, 2.5):
        ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=r))
        for state, floor in presets:
            pd = output_photon_probs(teleport(state, ch), 24)
            assert pd.probs.sum() >= floor, (state, r, pd.probs.sum())
            assert pd.truncation_mass_bound <= 1.0 - floor + 1e-9


def test_truncation_check_against_larger_rerun():
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=1.0))
    out = teleport(CoherentInput(2.12928), ch)
    p24 = output_photon_probs(out, 24)
    p40 = output_photon_probs(out, 40)
    assert np.abs(p24.probs - p40.probs[:25]).max() <= 1e-9


def test_quadrature_node_doubling_invariance():
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=0.75))
    for state in case_study_inputs():
        out = teleport(state, ch)
        base = output_photon_probs(out, 24).probs
        fine_r = output_photon_probs(out, 24, PlaneConfig(radial_nodes=192)).probs
        fine_a = output_photon_probs(out, 24, PlaneConfig(angular_nodes=256)).probs
        assert np.abs(base - fine_r).max() <= 1e-9
        assert np.abs(base - fine_a).max() <= 1e-9


@pytest.mark.parametrize("delta", [0.25, 0.5, 0.75, 1.0])
def test_squeezing_sign_does_not_change_photon_stats(delta):
    # Photon statistics do not depend on the sign of the squeezing; a
    # negative sign maps to an anisotropy scale below 1, and the photon grid
    # must be refined for it as much as for the reciprocal scale.
    ch = Channel(SqueezedBellResource(delta=delta, theta=0.0, r=1.25))
    plus = output_photon_probs(teleport(SqueezedVacuumInput(1.5), ch), 24).probs
    minus = output_photon_probs(teleport(SqueezedVacuumInput(-1.5), ch), 24).probs
    assert np.abs(plus - minus).max() <= 1e-12


def test_negative_squeezing_distribution_is_consistent():
    # Without refinement for scales below 1 these probabilities summed to 1.113.
    ch = Channel(SqueezedBellResource(delta=0.2, theta=0.0, r=1.25))
    pd = output_photon_probs(teleport(SqueezedVacuumInput(-1.5), ch), 24)
    assert pd.probs.sum() <= 1.0


def test_distribution_validation():
    with pytest.raises(ConsistencyError):
        PhotonDistribution(np.array([0.5, -0.1]))
    with pytest.raises(ConsistencyError):
        PhotonDistribution(np.array([0.9, 0.9]))
    with pytest.raises(ConsistencyError, match="outside"):  # NaN fails "not in range"
        PhotonDistribution(np.array([math.nan, 0.5]))
    for probs in ([], [[0.5, 0.5]], 0.5):
        with pytest.raises(InvalidArgumentError, match="nonempty 1-D"):
            PhotonDistribution(probs)


def test_distribution_derives_its_cutoff_and_truncation_mass():
    pd = PhotonDistribution([0.25, 0.5])
    assert pd.N == 1 and pd.truncation_mass_bound == 0.25
    assert PhotonDistribution([0.5, 0.5 + 1e-9]).truncation_mass_bound == 0.0
    assert PhotonDistribution([1.0]).N == 0


def test_fidelity_bound_fails_nan():
    family = delta_family(CoherentInput(1.0), 1.0)
    broken = dataclasses.replace(family, fidelity_basis=np.full(3, math.nan))
    with pytest.raises(ConsistencyError, match="fidelity nan exceeds"):
        broken.measure_columns([0.5])


def test_family_with_a_basis_that_is_not_finite_is_an_evaluation_error():
    """exp(-y/2) underflows to 0 where L_2(y) overflows: their product is NaN."""
    with pytest.raises(EvaluationError, match="fidelity basis"):
        delta_family(CoherentInput(1e100 + 709j), 0.5, theta=3.0, gain=1.3, N=5)


# ---------------------------------------------------------------------------
# the distortion functional
# ---------------------------------------------------------------------------

def test_d_functional_identical_is_zero():
    p = input_distribution(CoherentInput(1.0), 24)
    assert d_functional(p, p) == 0.0


def test_d_functional_orthogonal_fock_states_sqrt_two():
    p0 = input_distribution(FockInput(0), 24)
    p2 = input_distribution(FockInput(2), 24)
    assert d_functional(p0, p2) == math.sqrt(2.0)


def test_d_functional_plus_minus_superpositions():
    # |0> +- |1> superpositions share P_0 = P_1 = 1/2.
    half = PhotonDistribution(np.array([0.5, 0.5, 0.0]))
    assert d_functional(half, half) == 0.0


def test_d_functional_length_mismatch():
    with pytest.raises(InvalidArgumentError):
        d_functional(input_distribution(FockInput(0), 10), input_distribution(FockInput(0), 12))


def test_d_functional_bounds(rng):
    for _ in range(20):
        a = rng.uniform(0, 1, 9)
        a /= a.sum()
        b = rng.uniform(0, 1, 9)
        b /= b.sum()
        d = d_functional(PhotonDistribution(a), PhotonDistribution(b))
        assert 0.0 <= d <= math.sqrt(2.0) + 1e-12


# ---------------------------------------------------------------------------
# overlaps on the plane
# ---------------------------------------------------------------------------

def test_overlap_examples():
    vac = input_charfn(FockInput(0))
    f1 = input_charfn(FockInput(1))
    mix = input_charfn(FockMixtureInput(((0, 0.5), (1, 0.5))))
    assert overlap(vac, vac) == pytest.approx(1.0, abs=1e-8)
    assert overlap(f1, vac) == pytest.approx(0.0, abs=1e-8)
    assert overlap(mix, mix) == pytest.approx(0.5, abs=1e-7)


def test_overlap_symmetry(rng):
    states = case_study_inputs()
    ch = Channel(SqueezedBellResource(delta=0.85, theta=0.0, r=1.0))
    for state in states:
        f = input_charfn(state)
        g = output_charfn(teleport(state, ch))
        assert abs(overlap(f, g) - overlap(g, f)) <= 1e-9


def test_overlap_requires_wigner():
    vac = input_charfn(FockInput(0))
    with pytest.raises(InvalidArgumentError):
        overlap(convert_ordering(vac, 1), vac)


def test_fidelity_against_fock_diagonal_oracle():
    """For Fock-diagonal inputs F = sum_k P_k_in P_k_out."""
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=1.0))
    for state in (FockInput(0), FockInput(1), FockMixtureInput(((0, 0.5), (1, 0.5)))):
        out = teleport(state, ch)
        fid = overlap(input_charfn(state), output_charfn(out))
        p_in = input_photon_probs(state, 40)
        p_out = output_photon_probs(out, 40).probs
        assert fid == pytest.approx(float(p_in @ p_out), abs=1e-7)


# ---------------------------------------------------------------------------
# distortion measures
# ---------------------------------------------------------------------------

def test_epr_vacuum_measures(epr_channel):
    out = teleport(FockInput(0), epr_channel)
    m = distortion_measures(out, 24)
    assert m.fidelity >= 0.99
    assert m.d_n <= 0.02


def test_fock_diagonal_inputs_match_frobenius():
    for r in (0.75, 1.25):
        for delta in (0.75, 0.9, 1.0):
            ch = Channel(SqueezedBellResource(delta=delta, theta=0.0, r=r))
            for state in (FockInput(0), FockInput(1), FockMixtureInput(((0, 0.5), (1, 0.5)))):
                m = distortion_measures(teleport(state, ch), 24)
                assert abs(m.d_n - m.frobenius) <= 1e-6


def test_squeezed_input_breaks_frobenius_equality():
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=0.75))
    state = SqueezedVacuumInput(1.5)
    m = distortion_measures(teleport(state, ch), 24)
    assert abs(m.d_n - m.frobenius) > 1e-3


def test_frobenius_identity_and_bounds():
    ch = Channel(SqueezedBellResource(delta=0.85, theta=0.0, r=1.0))
    for state in case_study_inputs():
        m = distortion_measures(teleport(state, ch), 24)
        assert m.frobenius**2 + 2.0 * m.fidelity == pytest.approx(
            m.purity_in + m.purity_out, abs=1e-7
        )
        assert 0.0 <= m.d_n <= math.sqrt(2.0)
        # the purest state bounds the fidelity from above
        assert m.fidelity <= max(m.purity_in, m.purity_out) + 1e-7
        assert m.fidelity <= math.sqrt(m.purity_in * m.purity_out) + 1e-7


@pytest.mark.parametrize("state", case_study_inputs() + [FockInput(3), FockMixtureInput(((0, 0.25), (2, 0.75)))])
def test_input_purity_matches_quadrature(state):
    fine = PlaneConfig(radial_nodes=256, angular_nodes=256)
    assert input_purity(state) == pytest.approx(purity(input_charfn(state), fine), abs=1e-9)


def test_mixture_purity_is_half():
    mix = FockMixtureInput(((0, 0.5), (1, 0.5)))
    assert purity(input_charfn(mix)) == pytest.approx(0.5, abs=1e-7)


# ---------------------------------------------------------------------------
# the Delta family
# ---------------------------------------------------------------------------

def _random_input(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return FockInput(int(rng.integers(0, 5)))
    if kind == 1:
        return CoherentInput(complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
    if kind == 2:
        return SqueezedVacuumInput(float(rng.uniform(-1.5, 1.5)))
    ns = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
    p = rng.dirichlet(np.ones(len(ns)))
    p[-1] = 1.0 - p[:-1].sum()
    return FockMixtureInput(tuple((int(n), float(q)) for n, q in zip(ns, p)))


def test_family_matches_direct_path_on_random_cells():
    """Family P_n, fidelity, purity and Frobenius equal the per-Delta quadratures.

    The family runs at the default configuration.  The direct path runs at
    256 x 768 nodes: its overlaps use the plain grid, and its anisotropy
    probe of ``chi_out`` can be misled by the polynomial factor of the
    transfer function, so at the default 96 x 128 nodes it is itself off by
    up to 1e-4 on strongly anisotropic cells.
    """
    rng = np.random.default_rng(20261017)
    fine = PlaneConfig(radial_nodes=256, angular_nodes=768)
    compared = 0
    draws = 16
    for _ in range(draws):
        state = _random_input(rng)
        delta = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        r = float(rng.uniform(0.4, 2.5))
        gain = float(rng.uniform(0.8, 1.2))
        try:
            fam = delta_family(state, r, theta, gain, 24)
            m = fam.measures(delta)
            got = (fam.photon_distribution(delta).probs, m.fidelity, m.purity_out, m.frobenius)
        except CVTeleportError:
            continue
        out = teleport(state, Channel(SqueezedBellResource(delta, theta, r), gain=gain))
        chi_in = input_charfn(state)
        try:
            probs = output_photon_probs(out, 24, fine).probs
            fid = overlap(chi_in, output_charfn(out), fine)
            pur_out = purity(output_charfn(out), fine)
            frob = math.sqrt(max(purity(chi_in, fine) + pur_out - 2.0 * fid, 0.0))
        except CVTeleportError:
            continue
        cell = (state, delta, theta, r, gain)
        assert np.abs(got[0] - probs).max() <= 1e-8, cell
        assert abs(got[1] - fid) <= 1e-8, cell
        assert abs(got[2] - pur_out) <= 1e-8, cell
        assert abs(got[3] - frob) <= 1e-8, cell
        compared += 1
    assert compared >= 0.8 * draws


def test_family_validates_each_delta():
    fam = delta_family(FockInput(1), 1.0, N=8)
    with pytest.raises(InvalidArgumentError):
        fam.measures(1.5)
    with pytest.raises(InvalidArgumentError):
        fam.measures(float("nan"))


# ---------------------------------------------------------------------------
# the radial family
# ---------------------------------------------------------------------------

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from cvteleport.photonstats import _fock_gram_moments, _gaussian_overlaps  # noqa: E402
from cvteleport.states import N_MAX_FOCK, delta_weight_rows, transfer_basis  # noqa: E402
from oracles import (  # noqa: E402
    exact_fock_family,
    exact_gram_moments,
    gamma_gaussian_moments,
    gauss_laguerre_family,
    laguerre_envelope_series,
    polynomial_gaussian_overlaps,
    radial_family,
    radial_photon_basis,
)


def _photon_probs(state, tail=1e-16, top=60000):
    """The photon distribution of ``state`` up to where the mass beyond falls below ``tail``."""
    probs = input_photon_probs(state, top)
    beyond = np.cumsum(probs[::-1])[::-1]  # beyond[m]: the mass at m and above
    return probs[: int(np.argmax(beyond < tail))]


def _dephased(state):
    """The Fock mixture with the photon distribution of ``state``."""
    probs = _photon_probs(state)
    return FockMixtureInput(tuple((m, float(p)) for m, p in enumerate(probs) if p > 0.0))


@pytest.mark.parametrize(
    "state", [CoherentInput(1.3 + 0.4j), SqueezedVacuumInput(0.9), SqueezedVacuumInput(-0.6)]
)
def test_family_photon_basis_is_phase_covariant(state):
    """The transfer function depends on |xi| only, so the output photon numbers
    depend on the input's photon distribution only: a phase-sensitive input and
    its dephased Fock mixture give the same P_out (direct 2-D path as oracle)."""
    r, theta, gain = 1.1, 0.3, 0.9
    fam = delta_family(state, r, theta, gain, 24)
    mix = _dephased(state)
    for delta in (0.3, 0.8, 1.0):
        out = teleport(mix, Channel(SqueezedBellResource(delta, theta, r), gain=gain))
        want = output_photon_probs(out, 24).probs
        assert np.abs(fam.photon_distribution(delta).probs - want).max() <= 1e-10


_OVERLAP_CELLS = [
    (s, r, gain) for s in (1.5, 2.5, -2.5) for r in (0.4, 0.75, 2.5) for gain in (0.5, 1.0, 1.2)
] + [(3.5, 0.75, 1.0), (-3.5, 2.5, 0.8), (4.0, 0.75, 1.2), (4.0, 2.5, 1.0)]


@pytest.mark.parametrize("s,r,gain", _OVERLAP_CELLS)
def test_family_overlaps_match_gaussian_moments(s, r, gain):
    """The closed-form squeezed-vacuum overlaps against the 2-D quadratures.

    At the default 96 x 128 nodes the plane oracle is itself off by 3.6e-8 at
    (s, r, g) = (+-2.5, 0.4, 1.2), so it runs at 256 x 768.  sqvac:3.5 at
    r = 0.75 needs the decay probe to skip samples at the underflow floor;
    with them its anisotropy scale, and the fidelity, are off (by 3.7e-9).
    """
    state = SqueezedVacuumInput(s)
    fam = delta_family(state, r, 0.0, gain, 8)
    fine = PlaneConfig(radial_nodes=256, angular_nodes=768)
    chi_in = input_charfn(state)
    for delta in (0.0, 0.6, 1.0):
        out = teleport(state, Channel(SqueezedBellResource(delta, 0.0, r), gain=gain))
        m = fam.measures(delta)
        assert abs(m.fidelity - overlap(chi_in, output_charfn(out), fine)) <= 1e-12, delta
        assert abs(m.purity_out - purity(output_charfn(out), fine)) <= 1e-12, delta


@pytest.mark.parametrize("s", [-4.0, -1.5, 0.0, 0.3, 1.5, 3.0, 4.0])
def test_dephased_squeezed_vacuum_matches_photon_sum(s):
    """The squeezed-vacuum photon basis, read off the Taylor series of its
    generating function, against the 1-D integral of the photon sum
    ``A~(v) = sum_m p_m L~_m(v)`` over every m whose mass is not below 1e-16
    (about 51k terms at |s| = 4)."""
    state = SqueezedVacuumInput(s)
    r, gain = 1.0, 0.9
    got = delta_family(state, r, gain=gain).photon_basis
    photon_sum = functools.partial(laguerre_envelope_series, _photon_probs(state))
    want = radial_photon_basis(photon_sum, r, gain, 24, 1024)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("r", [0.75, 2.5])
@pytest.mark.parametrize("s", [-4.0, 4.0])
def test_strong_squeezing_node_rule_is_resolved(s, r):
    """The series of a Fock-diagonal input read its top photon number.
    The input is the photon distribution of sqvac:s cut at N_MAX_FOCK and
    renormalized, a mixture of 33 even photon numbers up to 64 (the same for
    +-s); Gauss-Legendre rules of 1536 nodes in sqrt(u), cut at certified
    envelope tails, give the same family."""
    probs = input_photon_probs(SqueezedVacuumInput(s), N_MAX_FOCK)
    state = FockMixtureInput(tuple((m, p / probs.sum()) for m, p in enumerate(probs) if p > 0.0))
    got = delta_family(state, r, gain=1.3)
    photon_basis, fidelity_basis, gram = radial_family(state, r, 1.3, 24, 1536)
    assert np.abs(got.photon_basis - photon_basis).max() <= 1e-13
    assert np.abs(got.fidelity_basis - fidelity_basis).max() <= 1e-13
    assert np.abs(got.gram - gram).max() <= 1e-13


@pytest.mark.parametrize("gain", [1.0, 0.8])
@pytest.mark.parametrize("r", [0.75, 2.5])
@pytest.mark.parametrize("beta", [2.12928, 5.0, 10.0, 20.0, 40.0])
def test_large_coherent_family_matches_the_bessel_closed_form(beta, r, gain):
    """A coherent input dephases to ``exp(-v/2) J0(2 |beta| sqrt(v))``.  The
    family's Taylor series must reproduce the 1-D integral of that closed
    form, with scipy's J0, on a rule that resolves its oscillation."""
    special = pytest.importorskip("scipy.special")
    family = delta_family(CoherentInput(beta), r, gain=gain)

    def dephased(v):
        return np.exp(-0.5 * v) * special.j0(2.0 * beta * np.sqrt(v))

    want = radial_photon_basis(dephased, r, gain, 24, 1536)
    assert np.abs(family.photon_basis - want).max() <= 1e-13
    for delta in (0.0, 0.5, 0.9, 1.0):
        w = delta_weight_rows(delta, 0.0)[0]
        assert np.abs(family.photon_distribution(delta).probs - want @ w).max() <= 1e-13, delta


@pytest.mark.parametrize("gain", [0.5, 1.0, 1.3])
@pytest.mark.parametrize("r", [0.4, 1.25, 2.5])
@pytest.mark.parametrize(
    "state",
    [CoherentInput(2.12928), CoherentInput(1.0 + 0.7j), SqueezedVacuumInput(1.5),
     SqueezedVacuumInput(-2.5), SqueezedVacuumInput(4.0)],
)
def test_gaussian_overlaps_match_polynomial_products(state, r, gain):
    rate, terms, coef = transfer_basis(Channel(SqueezedBellResource(1.0, 0.0, r), gain=gain))
    fid, gram = _gaussian_overlaps(state, rate, coef, gain)
    want_fid, want_gram = polynomial_gaussian_overlaps(state, rate, terms, gain)
    assert np.abs(fid - want_fid).max() <= 1e-14
    assert np.abs(gram - want_gram).max() <= 1e-14


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("P,Q", [(0.6, 0.6), (0.7, 3.1), (2.5e-3, 40.0), (1e30, 2.0)])
def test_gaussian_moment_table_matches_gamma_sums(P, Q, degree):
    got = photonstats._gaussian_moments(P, Q, degree)
    want = gamma_gaussian_moments(P, Q, degree)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


_MIX64 = FockMixtureInput(((0, 0.2), (7, 0.2), (20, 0.2), (41, 0.2), (64, 0.2)))


@pytest.mark.parametrize(
    "state,r,gain,N",
    [(FockInput(40), 4.0, 1.0, 64), (FockInput(60), 1.0, 0.3, 64), (_MIX64, 1.25, 1.3, 24)],
    ids=["fock40", "fock60", "mix64"],
)
def test_fock_family_matches_the_exact_expansion(state, r, gain, N):
    """The Taylor series against the integrands expanded into powers of u at
    80 digits (mpmath), at M, N up to 64; on the mixture, with N = 24, the
    fidelity reads photon rows past N."""
    pytest.importorskip("mpmath")
    fam = delta_family(state, r, 0.0, gain, N)
    photon_basis, fidelity_basis, gram = exact_fock_family(state, r, gain, N)
    assert np.abs(fam.photon_basis - photon_basis).max() <= 1e-13
    assert np.abs(fam.fidelity_basis - fidelity_basis).max() <= 1e-13
    assert np.abs(fam.gram - gram).max() <= 1e-13


@pytest.mark.parametrize(
    "text",
    ["fock:0", "fock:1", "fock:20", "fock:64", "mix:0@0.5,1@0.5", "mix:0@0.3,3@0.3,7@0.4"],
)
def test_fock_family_matches_the_gauss_laguerre_oracle(text):
    """The Taylor series against exact Gauss-Laguerre rules of the same
    integrands, photon and fidelity bases and Gram matrix to 1e-13 absolute,
    at N = 64 over g in {0.25, 0.7, 1, 1.3} and r from 0.1 to 8 (the largest
    gap is about 1e-14)."""
    state = parse_state(text)
    for gain in (0.25, 0.7, 1.0, 1.3):
        for r in (0.1, 0.25, 0.75, 1.0, 2.5, 8.0):
            fam = delta_family(state, r, 0.4, gain, 64)
            photon_basis, fidelity_basis, gram = gauss_laguerre_family(state, r, gain, 64)
            assert np.abs(fam.photon_basis - photon_basis).max() <= 1e-13, (gain, r)
            assert np.abs(fam.fidelity_basis - fidelity_basis).max() <= 1e-13, (gain, r)
            assert np.abs(fam.gram - gram).max() <= 1e-13, (gain, r)


@pytest.mark.parametrize(
    "gain,r",
    # At g = 1, 2 e = g^2 at r = ln(2) / 2 = 0.3466: the cells lie on both sides.
    [(1.0, 0.1), (1.0, 0.3), (1.0, 0.4), (1.0, 2.5), (0.25, 0.1), (0.25, 1.0), (0.25, 2.5),
     (1.3, 0.25), (1.3, 1.0), (1.3, 4.0)],
)
def test_fock_gram_moments_match_the_exact_expansion(gain, r):
    """``H_q = ∫ exp(-2 e u) u^q A~(g^2 u)^2 du``, q <= 4, as sums of squares,
    against 80-digit expansions, to 1e-13 relative for every Fock state and
    a mixture up to M = 8."""
    pytest.importorskip("mpmath")
    rate, _, _ = transfer_basis(Channel(SqueezedBellResource(1.0, 0.0, r), gain=gain))
    states = [FockInput(n) for n in range(9)] + [FockMixtureInput(((0, 0.3), (3, 0.3), (8, 0.4)))]
    for state in states:
        got = _fock_gram_moments(input_photon_probs(state, state.max_n), rate, gain * gain)
        want = exact_gram_moments(state, r, gain)
        assert np.abs(got / want - 1.0).max() <= 1e-13, state


def test_fock_family_tail_matches_the_exact_expansion():
    """Tail entries keep relative accuracy: fock:20 at r = 1 has photon rows
    n = 24 and n = 60 within 1e-12 relative of 80 digits.  The row n = 60 is
    (3.1e-24, -9.5e-23, 3.0e-21), far below the 1e-16 rounding of a sum of
    terms of order 1."""
    pytest.importorskip("mpmath")
    state = FockInput(20)
    fam = delta_family(state, 1.0, 0.0, 1.0, 64)
    want = exact_fock_family(state, 1.0, 1.0, 64)[0]
    for n in (24, 60):
        assert np.abs(fam.photon_basis[n] / want[n] - 1.0).max() <= 1e-12, n
    assert 0.0 < fam.photon_distribution(0.0).probs[60] < 1e-20


def test_vacuum_family_equals_the_coherent_vacuum():
    """fock:0 and coherent:0 are one state on two paths: the photon basis agrees
    to 1e-13 relative on every entry down to 1e-299, and the fidelity basis
    and Gram matrix to 1e-13 of their largest entry."""
    for gain in (0.25, 0.7, 1.0, 1.3, 3.0):
        for r in (0.1, 0.5, 1.0, 2.5, 5.0, 8.0):
            fock = delta_family(FockInput(0), r, 0.2, gain, 64)
            coherent = delta_family(CoherentInput(0.0), r, 0.2, gain, 64)
            big = np.abs(coherent.photon_basis) >= 1e-299
            rel = np.abs(fock.photon_basis - coherent.photon_basis)[big] / np.abs(
                coherent.photon_basis
            )[big]
            assert rel.max() <= 1e-13, (gain, r)
            for name in ("fidelity_basis", "gram"):
                got, want = getattr(fock, name), getattr(coherent, name)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, gain, r)


@pytest.mark.parametrize("text", ["fock:0", "fock:1", "mix:0@0.5,1@0.5"])
@pytest.mark.parametrize("cell", [("0.25", "0.25"), ("1", "1")])
def test_fock_photon_probabilities_have_no_rounding_floor(text, cell, capsys):
    """At Delta = 0 the output photon probabilities past n of about 20 are far
    below 1e-16; none of the 65 prints negative, as a rounding floor of about
    1e-16 under every entry would make about 40 of them."""
    from cvteleport.cli import main

    r, gain = cell
    argv = ["photon-stats", "--input", text, "--delta", "0", "--r", r, "--gain", gain, "--N", "64"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "n,P_in,P_out" and len(lines) == 67
    assert not [line for line in lines[2:] if line.split(",")[2].startswith("-")]


@pytest.mark.parametrize("gain", [1e31, 1e100, 1e150])
@pytest.mark.parametrize("state", [FockInput(1), FockMixtureInput(((0, 0.5), (64, 0.5)))])
def test_fock_family_raises_where_its_gram_moments_overflow(state, gain):
    """Past a gain of about 1e30, (2 e + g^2)^5 overflows, H_4 underflows and
    the transfer coefficients overflow: a typed error, with no numpy warning."""
    with np.errstate(all="raise"), pytest.raises(EvaluationError, match="Gram moments"):
        delta_family(state, 1.0, gain=gain)


def test_transfer_basis_coefficients_reproduce_terms(rng):
    for _ in range(20):
        r, gain = rng.uniform(0.0, 3.0), rng.uniform(0.3, 2.0)
        _, terms, coef = transfer_basis(Channel(SqueezedBellResource(1.0, 0.0, r), gain=gain))
        u = rng.uniform(0.0, 50.0, 16)
        want = np.stack(np.broadcast_arrays(*terms(u)))
        got = coef @ np.stack((np.ones_like(u), u, u * u))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("r", [0.75, 2.5])
def test_family_strong_squeezing_matches_fine_direct_reference(r):
    state = SqueezedVacuumInput(3.5)
    fam = delta_family(state, r)
    fine = PlaneConfig(radial_nodes=512, angular_nodes=2048)
    delta = 0.6
    out = teleport(state, Channel(SqueezedBellResource(delta, 0.0, r)))
    m = fam.measures(delta)
    assert abs(m.fidelity - overlap(input_charfn(state), output_charfn(out), fine)) <= 1e-9
    assert abs(m.purity_out - purity(output_charfn(out), fine)) <= 1e-9


_FAMILY_TEXTS = (
    "fock:0", "fock:3", "mix:0@0.5,1@0.5",
    "coherent:1,0.7", "coherent:2.12928", "sqvac:1.5", "sqvac:-1.5",
)

# Runs CLI commands (argv lists, JSON in argv[1]) in a fresh interpreter and
# reports each exit code and output, every loaded module whose file lies under
# the directory argv[2], and every loaded module of a test-only package.
_ISOLATED_RUN = """
import contextlib, io, json, sys
from cvteleport.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(
    name for name, module in list(sys.modules.items())
    if (getattr(module, "__file__", None) or "").startswith(sys.argv[2])
)
test_only = sorted(
    name for name in sys.modules
    if name.partition(".")[0] in ("scipy", "sympy", "mpmath", "hypothesis")
)
print(json.dumps({"results": results, "loaded": loaded, "test_only": test_only}))
"""


# Builds the families of the cells in argv[1] (JSON: descriptor, r, theta,
# gain, N), in order, in a fresh interpreter, and prints a SHA-256 per family
# of its bases, forms, rounding terms, p_in and measure_columns on a grid.
_FAMILY_DIGESTS = """
import hashlib, json, sys
import numpy as np
from cvteleport.cli import parse_state
from cvteleport.photonstats import delta_family
digests = []
for text, r, theta, gain, N in json.loads(sys.argv[1]):
    fam = delta_family(parse_state(text), r, theta, gain, N, rounding=True)
    cols = fam.measure_columns(np.linspace(0.0, 1.0, 9))
    parts = (fam.photon_basis, fam.fidelity_basis, fam.gram, fam.forms, fam.terms,
             fam.p_in.probs, *(cols[name] for name in sorted(cols)))
    blob = b"".join(np.ascontiguousarray(a).tobytes() for a in parts)
    digests.append(hashlib.sha256(blob).hexdigest())
print(json.dumps(digests))
"""


def _family_digests(cells, tmp_path) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAMILY_DIGESTS, json.dumps(cells)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_family_does_not_depend_on_the_shapes_built_before_it(tmp_path):
    """The series tables are built once per shape and shared: a family built
    after families of other top photon numbers M and cutoffs N is, bit for
    bit, the family built first in a fresh interpreter."""
    targets = [
        ["fock:3", 1.25, 0.0, 1.0, 24],
        ["mix:0@0.2,2@0.5,5@0.3", 0.75, 0.4, 1.3, 3],
        ["coherent:2.12928", 1.25, 0.1, 2.0, 64],
        ["sqvac:1.5", 2.5, 0.0, 0.7, 0],
    ]
    others = [
        ["mix:0@0.5,64@0.5", 1.0, 0.0, 1.0, 64],
        ["fock:7", 0.5, 0.0, 1.0, 2],
        ["fock:2", 1.25, 0.0, 1.0, 3],
        ["coherent:1", 3.0, 0.0, 1.0, 10],
        ["sqvac:-0.8", 0.3, 0.0, 1.0, 24],
        ["fock:0", 1.0, 0.0, 1.0, 0],
    ]
    after = _family_digests(others + targets, tmp_path)[len(others):]
    first = [_family_digests([cell], tmp_path)[0] for cell in targets]
    assert after == first


def test_family_commands_run_on_src_alone(tmp_path):
    """The CLI commands run with only ``src`` on the path.

    All six subcommands (compare, optimize on frobenius, photon-stats, sweep
    and moments over every catalog kind, and transfer-surface) exit 0 in a
    fresh interpreter that loads no module of the test suite and none of
    scipy, sympy, mpmath or hypothesis: no production path reaches the plane
    or finite-difference oracles or a test-only package.  The families agree
    with the 2-D fidelity on a fine grid."""
    tests_dir = Path(__file__).resolve().parent
    cell = ["--r", "1.25", "--theta", "0.2", "--gain", "0.9"]
    argvs = [
        argv
        for text in _FAMILY_TEXTS
        for argv in (
            ["compare", "--input", text, "--delta-grid", "0.7:1.0:4"] + cell,
            ["optimize", "--kind", "frobenius", "--input", text] + cell,
            ["photon-stats", "--input", text, "--delta", "0.8"] + cell,
            ["sweep", "--kinds", "one_minus_fidelity", "--r-grid", "1.25", "--input", text],
            ["moments", "--input", text, "--delta", "0.8"] + cell,
        )
    ] + [["transfer-surface", "--grid=-1:1:5"] + cell]
    env = dict(os.environ, PYTHONPATH=str(tests_dir.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATED_RUN, json.dumps(argvs), str(tests_dir)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == [] and report["test_only"] == []
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    for argv, (code, out, err) in zip(argvs, report["results"], strict=True):
        assert code == 0 and err == "", (argv, err)
        assert "error" not in out, argv
    fine = PlaneConfig(radial_nodes=256, angular_nodes=768)
    for state in map(parse_state, _FAMILY_TEXTS):
        fam = delta_family(state, 1.25, 0.2, 0.9, 24)
        out = teleport(state, Channel(SqueezedBellResource(0.8, 0.2, 1.25), gain=0.9))
        fid = fam.measures(0.8).fidelity
        assert abs(fid - overlap(input_charfn(state), output_charfn(out), fine)) <= 1e-9


@pytest.mark.parametrize("gain", [0.8, 1.0, 1.3])
@pytest.mark.parametrize("r", [0.4, 2.5])
@pytest.mark.parametrize("beta", [2.12928, 1.0 + 0.7j])
def test_coherent_overlaps_match_fine_direct_reference(beta, r, gain):
    """The closed-form coherent overlaps against the 2-D quadratures."""
    state = CoherentInput(beta)
    fam = delta_family(state, r, 0.3, gain, 8)
    fine = PlaneConfig(radial_nodes=256, angular_nodes=768)
    delta = 0.8
    out = teleport(state, Channel(SqueezedBellResource(delta, 0.3, r), gain=gain))
    m = fam.measures(delta)
    assert abs(m.fidelity - overlap(input_charfn(state), output_charfn(out), fine)) <= 1e-9
    assert abs(m.purity_out - purity(output_charfn(out), fine)) <= 1e-9


@pytest.mark.parametrize("state", case_study_inputs() + [FockInput(10)])
def test_measure_columns_match_per_delta_measures(state):
    fam = delta_family(state, 0.9, 0.3, 1.05, 24)
    deltas = np.linspace(0.55, 1.0, 10).tolist()
    cols = fam.measure_columns(deltas)
    for j, delta in enumerate(deltas):
        assert abs(cols["d_n"][j] - d_functional(fam.p_in, fam.photon_distribution(delta))) <= 1e-15
        one = fam.measures(delta)
        for name in ("d_n", "fidelity", "purity_out", "frobenius"):
            assert abs(getattr(one, name) - cols[name][j]) <= 1e-15, name


def test_measure_columns_raise_the_first_failure_in_grid_order():
    fam = delta_family(FockInput(1), 1.0, N=8)
    with pytest.raises(InvalidArgumentError) as grid_err:
        fam.measure_columns([0.9, 1.5, float("nan")])
    with pytest.raises(InvalidArgumentError) as one_err:
        fam.measures(1.5)
    assert str(grid_err.value) == str(one_err.value)

    # A corrupted fidelity overlap breaks the Fock-diagonal D_N / Frobenius check
    # from some Delta on; the grid raises what a per-Delta loop raises first.
    bad = dataclasses.replace(fam, fidelity_basis=fam.fidelity_basis * np.array([1.0, 1.0, 0.9]))
    deltas = [1.0, 0.95, 0.5, 0.2]
    first = None
    for delta in deltas:
        try:
            bad.measures(delta)
        except ConsistencyError as exc:
            first = str(exc)
            break
    assert first is not None and "Frobenius" in first
    with pytest.raises(ConsistencyError) as grid_err:
        bad.measure_columns(deltas)
    assert str(grid_err.value) == first


@pytest.mark.parametrize(
    "state,r,deltas",
    [
        (FockInput(10), 0.3, [0.5]),
        (FockMixtureInput(((0, 0.5), (12, 0.5))), 0.5, [0.5, 0.9]),
    ],
)
def test_fock_diagonal_check_allows_the_mass_beyond_cutoff(state, r, deltas):
    """Frobenius^2 - D_N^2 is the squared photon difference beyond N; it may
    exceed 1e-6 when the output keeps mass past N and stays below its square."""
    fam = delta_family(state, r)
    cols = fam.measure_columns(deltas)
    gap = cols["frobenius"] ** 2 - cols["d_n"] ** 2
    beyond = 1.0 - np.array([fam.photon_distribution(d).probs.sum() for d in deltas])
    assert np.all(gap >= 0.0) and np.all(gap <= beyond**2)
    assert np.any(cols["frobenius"] - cols["d_n"] > 1e-6)


def test_strong_squeezing_matches_mpmath():
    """sqvac:6 and sqvac:8, past where a node rule could resolve the input,
    build fast and match the 1-D integral of their dephased input
    ``exp(-v cosh(2s) / 2) I_0(v sinh(2|s|) / 2)`` at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        r, delta = 1.0, 0.6
        rate, _, coef = transfer_basis(Channel(SqueezedBellResource(1.0, 0.0, r)))
        w = delta_weight_rows(delta, 0.0)[0]
        e, c = mp.mpf(rate), [mp.mpf(x) for x in coef.T @ w]
        # Breakpoints down to the input's narrow scale e^{-2|s|} near u = 0.
        points = [0] + [mp.mpf(10) ** k for k in range(-10, 3)]
        for s in (6.0, 8.0):
            t0 = time.perf_counter()
            fam = delta_family(SqueezedVacuumInput(s), r)
            assert time.perf_counter() - t0 < 0.05
            probs = fam.photon_distribution(delta).probs
            cosh, sinh = mp.cosh(2 * s), mp.sinh(2 * s)
            for n in (0, 1, 2, 5):
                def integrand(u, n=n):
                    dephased = mp.exp(-u * cosh / 2) * mp.besseli(0, u * sinh / 2)
                    tau = mp.exp(-e * u) * (c[0] + c[1] * u + c[2] * u * u)
                    return tau * mp.exp(-u / 2) * mp.laguerre(n, 0, u) * dephased
                assert abs(probs[n] - float(mp.quad(integrand, points))) <= 1e-12, (s, n)


def test_large_coherent_input_is_certified():
    # exp(-1600) underflows, so the photon probabilities must come from log
    # space.  At gain 1 the channel commutes with displacements, so fidelity
    # and purity do not depend on beta.
    fam = delta_family(CoherentInput(40.0), 1.0)
    vac = delta_family(FockInput(0), 1.0)
    for delta in (0.5, 0.9, 1.0):
        m = fam.measures(delta)
        assert m.d_n == pytest.approx(0.0, abs=1e-12)
        assert m.fidelity == pytest.approx(vac.measures(delta).fidelity, abs=1e-9)
        assert m.purity_out == pytest.approx(vac.measures(delta).purity_out, abs=1e-9)
