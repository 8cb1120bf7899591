import math

import numpy as np
import pytest

from cvteleport import (
    CapacityError,
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InvalidArgumentError,
    PhasePoint,
    SqueezedBellResource,
    SqueezedVacuumInput,
    eval_at,
    fock_charfn,
    input_charfn,
    input_photon_probs,
    state_from_descriptor,
    state_to_descriptor,
    transfer_fn,
)
from conftest import case_study_inputs, random_points
from oracles import sbl_two_mode_value


def laguerre_series(n, u):
    return sum((-1) ** k * math.comb(n, k) * u**k / math.factorial(k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_fock_n0_and_n1_closed_forms(rng):
    f0, f1 = fock_charfn(0), fock_charfn(1)
    for w, z in random_points(rng, 20, radius=3.0):
        p = PhasePoint(w, z)
        u = p.abs_sq
        assert abs(f0(p) - math.exp(-0.5 * u)) <= 1e-14
        assert abs(f1(p) - math.exp(-0.5 * u) * (1.0 - u)) <= 1e-14


def test_fock1_vanishes_at_unit_radius():
    f1 = input_charfn(FockInput(1))
    assert abs(eval_at(f1, PhasePoint(1.0, 0.0))) <= 1e-15


def test_fock5_matches_series_oracle():
    f5 = fock_charfn(5)
    u = 0.7
    want = math.exp(-0.35) * laguerre_series(5, u)
    got = eval_at(f5, PhasePoint(math.sqrt(u), 0.0))
    assert abs(got - want) <= 1e-12


def test_fock_capacity():
    with pytest.raises(CapacityError):
        fock_charfn(65)
    fock_charfn(70, n_max=80)  # the cap is configurable


def test_coherent_zero_displacement_is_vacuum(rng):
    f = input_charfn(CoherentInput(0.0))
    vac = fock_charfn(0)
    for w, z in random_points(rng, 10):
        p = PhasePoint(w, z)
        assert abs(f(p) - vac(p)) <= 1e-15


def test_squeezed_zero_is_vacuum(rng):
    f = input_charfn(SqueezedVacuumInput(0.0))
    vac = fock_charfn(0)
    for w, z in random_points(rng, 10):
        p = PhasePoint(w, z)
        assert abs(f(p) - vac(p)) <= 1e-15


def test_mixture_equal_weight_form(rng):
    mix = input_charfn(FockMixtureInput(((0, 0.5), (1, 0.5))))
    for w, z in random_points(rng, 10):
        p = PhasePoint(w, z)
        u = p.abs_sq
        assert abs(mix(p) - math.exp(-0.5 * u) * (1.0 - 0.5 * u)) <= 1e-14


# ---------------------------------------------------------------------------
# the resource and its transfer function
# ---------------------------------------------------------------------------

def test_transfer_origin_is_one(rng):
    for _ in range(10):
        res = SqueezedBellResource(
            delta=float(rng.uniform(0, 1)), theta=float(rng.uniform(-3, 3)),
            r=float(rng.uniform(0.1, 3)),
        )
        tau = transfer_fn(Channel(res))
        assert abs(eval_at(tau, PhasePoint(0.0, 0.0)) - 1.0) <= 1e-15


def test_transfer_tmsv_value():
    tau = transfer_fn(Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=1.25)))
    got = eval_at(tau, PhasePoint(1.0, 0.0))
    assert abs(got - math.exp(-math.exp(-2.5))) <= 1e-15


def test_transfer_tmsv_is_pure_envelope(rng):
    r = 0.8
    tau = transfer_fn(Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r)))
    for w, z in random_points(rng, 100):
        p = PhasePoint(w, z)
        want = math.exp(-p.abs_sq * math.exp(-2.0 * r))
        assert abs(tau(p) - want) <= 1e-14 * max(want, 1e-30) + 1e-16


def test_transfer_near_epr_is_flat():
    tau = transfer_fn(Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=10.0)))
    worst = 0.0
    for w in np.linspace(-2, 2, 21):
        for z in np.linspace(-2, 2, 21):
            if w * w + z * z <= 4.0:
                worst = max(worst, abs(tau(PhasePoint(w, z)) - 1.0))
    assert worst <= 1e-3


@pytest.mark.parametrize("gain", [1.0, 1.3])
def test_transfer_matches_two_mode_oracle(gain, rng):
    """gamma-reduced production path vs the full two-mode evaluation."""
    for _ in range(40):
        res = SqueezedBellResource(
            delta=float(rng.uniform(0, 1)), theta=float(rng.uniform(-3, 3)),
            r=float(rng.uniform(0.1, 2.5)),
        )
        tau = transfer_fn(Channel(res, gain=gain))
        w, z = rng.uniform(-2, 2, 2)
        p = PhasePoint(float(w), float(z))
        want = sbl_two_mode_value(res, gain * p.xi_conj, p.xi)
        assert abs(tau(p) - want) <= 1e-13


def test_two_mode_origin_and_tmsv_brace():
    res = SqueezedBellResource(delta=1.0, theta=0.0, r=1.0)
    assert abs(sbl_two_mode_value(res, 0.0, 0.0) - 1.0) <= 1e-15
    # Delta = 1 leaves only the Gaussian envelope.
    val = sbl_two_mode_value(res, 0.4 + 0.1j, -0.3 + 0.2j)
    chr_, shr = math.cosh(1.0), math.sinh(1.0)
    xa = chr_ * (0.4 + 0.1j) - shr * np.conj(-0.3 + 0.2j)
    xb = chr_ * (-0.3 + 0.2j) - shr * np.conj(0.4 + 0.1j)
    want = math.exp(-0.5 * (abs(xa) ** 2 + abs(xb) ** 2))
    assert abs(val - want) <= 1e-15


# ---------------------------------------------------------------------------
# photon statistics
# ---------------------------------------------------------------------------

def test_fock_probs_are_kronecker():
    assert np.array_equal(input_photon_probs(FockInput(1), 3), [0.0, 1.0, 0.0, 0.0])


def test_coherent_probs_mean():
    probs = input_photon_probs(CoherentInput(2.12928), 60)
    mean = float(np.arange(61) @ probs)
    assert abs(mean - 4.534) <= 1e-3


def test_squeezed_probs_parity_and_mean():
    s = 1.5
    probs = input_photon_probs(SqueezedVacuumInput(s), 120)
    assert np.all(probs[1::2] == 0.0)
    mean = float(np.arange(121) @ probs)
    assert abs(mean - math.sinh(s) ** 2) <= 1e-3
    # closed form as oracle for a few entries
    for k in (0, 1, 2, 5):
        want = (
            math.factorial(2 * k)
            / (2**k * math.factorial(k)) ** 2
            * math.tanh(s) ** (2 * k)
            / math.cosh(s)
        )
        assert abs(probs[2 * k] - want) <= 1e-14 * max(want, 1.0)


@pytest.mark.parametrize("state", case_study_inputs())
def test_probs_nonnegative_and_approach_unit_mass(state):
    short = input_photon_probs(state, 10)
    long = input_photon_probs(state, 80)
    assert np.all(short >= 0.0)
    assert short.sum() <= 1.0 + 1e-12
    assert long.sum() <= 1.0 + 1e-12
    assert long.sum() >= short.sum() - 1e-15
    assert long.sum() >= 0.97


def test_mixture_probs():
    probs = input_photon_probs(FockMixtureInput(((0, 0.25), (3, 0.75))), 4)
    assert np.allclose(probs, [0.25, 0.0, 0.0, 0.75, 0.0])


# ---------------------------------------------------------------------------
# validation and descriptors
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(InvalidArgumentError):
        FockInput(-1)
    with pytest.raises(InvalidArgumentError):
        FockMixtureInput(((0, 0.5), (1, 0.6)))
    with pytest.raises(InvalidArgumentError):
        FockMixtureInput(((0, -0.5), (1, 1.5)))
    with pytest.raises(InvalidArgumentError):
        SqueezedBellResource(delta=1.2, r=1.0)
    with pytest.raises(InvalidArgumentError):
        SqueezedBellResource(delta=0.5, r=-0.1)
    with pytest.raises(InvalidArgumentError):
        Channel(SqueezedBellResource(delta=0.5, r=1.0), gain=0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CoherentInput(complex(math.nan, 0.0)),
        lambda: CoherentInput(complex(0.0, math.inf)),
        lambda: SqueezedVacuumInput(math.nan),
        lambda: SqueezedVacuumInput(800.0),
        lambda: FockMixtureInput(((0, math.nan), (1, 0.5))),
        lambda: SqueezedBellResource(delta=0.5, r=math.nan),
        lambda: SqueezedBellResource(delta=0.5, r=math.inf),
        lambda: SqueezedBellResource(delta=0.5, theta=math.nan, r=1.0),
        lambda: Channel(SqueezedBellResource(delta=0.5, r=1.0), gain=math.inf),
    ],
    ids=["beta-nan", "beta-inf", "s-nan", "s-overflow", "weight-nan", "r-nan", "r-inf",
         "theta-nan", "gain-inf"],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(InvalidArgumentError):
        make()


def test_transfer_overflow_is_typed():
    with pytest.raises(InvalidArgumentError, match="overflows"):
        transfer_fn(Channel(SqueezedBellResource(delta=0.5, r=800.0)))


@pytest.mark.parametrize("state", case_study_inputs())
def test_descriptor_roundtrip(state):
    again = state_from_descriptor(state_to_descriptor(state))
    assert again == state


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(InvalidArgumentError):
        state_from_descriptor({"kind": "cat", "alpha": 2.0})


# ---------------------------------------------------------------------------
# photon distributions
# ---------------------------------------------------------------------------


def test_coherent_probs_do_not_underflow():
    # exp(-1600) underflows; the distribution lives around n = 1600 +- 40.
    probs = input_photon_probs(CoherentInput(40.0), 2400)
    assert math.fsum(probs[1300:1900]) == pytest.approx(1.0, abs=1e-10)
    assert probs[1600] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1600.0), rel=1e-3)
    assert np.all(probs >= 0.0)


def test_photon_cutoff_of_finite_support_is_exact():
    """A Fock state or mixture has all of its photon mass up to ``max_n``,
    the cutoff of its radial family."""
    assert FockInput(7).max_n == 7
    mix = FockMixtureInput(((0, 0.5), (12, 0.25), (3, 0.25)))
    assert mix.max_n == 12
    probs = input_photon_probs(mix, 12)
    assert math.fsum(probs) == 1.0 and probs[12] == 0.25
    assert math.fsum(probs[6:]) == 0.25


@pytest.mark.parametrize("beta", [1e155, 1e155j, complex(1e200, 1.0)])
def test_coherent_mean_photon_number_must_be_finite(beta):
    with pytest.raises(InvalidArgumentError):
        CoherentInput(beta)
