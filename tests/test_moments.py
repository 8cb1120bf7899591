import json
import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    CoherentInput,
    ConsistencyError,
    DegenerateStateError,
    FockInput,
    InvalidArgumentError,
    SqueezedBellResource,
    SqueezedVacuumInput,
    distortion_covariance,
    moment_set,
    resource_closed_forms,
    squeezing_ratio,
    squeezing_transmission,
    state_cumulants,
    teleport,
    transfer_cumulants,
)
from cvteleport import moments
from cvteleport.moments import photon_moments
from cvteleport.states import transfer_coefficients
from cvteleport.optimize import Objective
from conftest import DELTA2_OPT, case_study_inputs, moderate_inputs, random_resources
from oracles import (
    CharFn,
    convert_ordering,
    fd_moment_set,
    fd_objective_function,
    input_charfn,
    moment_set_from_tables,
    output_charfn,
    output_cumulants,
    raw_from_cumulants,
    raw_moment_normal,
    raw_moment_xp,
    reference_minimize,
    transfer_fn,
    transfer_moment_set,
)


# ---------------------------------------------------------------------------
# finite-difference raw moments
# ---------------------------------------------------------------------------

def test_vacuum_x2_in_derivative_convention():
    vac = input_charfn(FockInput(0))
    assert abs(raw_moment_xp(vac, 2, 0) - 1.0) <= 1e-7


def test_transfer_first_and_third_moments_vanish():
    tau = transfer_fn(Channel(SqueezedBellResource(delta=0.8, theta=0.4, r=0.9)))
    assert abs(raw_moment_xp(tau, 1, 0)) <= 1e-8
    assert abs(raw_moment_xp(tau, 3, 0)) <= 1e-7
    assert abs(raw_moment_xp(tau, 0, 3)) <= 1e-7


def test_raw_moment_xp_requires_wigner():
    f = convert_ordering(input_charfn(FockInput(0)), 1)
    with pytest.raises(InvalidArgumentError):
        raw_moment_xp(f, 2, 0)


def test_raw_moment_xp_order_cap():
    vac = input_charfn(FockInput(0))
    with pytest.raises(InvalidArgumentError):
        raw_moment_xp(vac, 3, 2)


def test_raw_moment_xp_imaginary_residue_guard():
    # A non-Hermitian "characteristic function" leaves an imaginary first moment.
    bogus = CharFn(lambda p: np.exp(-0.5 * p.abs_sq + 0.3 * p.z), ordering=0)
    with pytest.raises(ConsistencyError):
        raw_moment_xp(bogus, 1, 0)


def test_normal_moment_examples():
    vac = input_charfn(FockInput(0))
    f1 = input_charfn(FockInput(1))
    coh = input_charfn(CoherentInput(0.8))
    assert abs(raw_moment_normal(vac, 1, 1)) <= 1e-8
    assert abs(raw_moment_normal(f1, 1, 1) - 1.0) <= 1e-7
    assert abs(raw_moment_normal(coh, 1, 0) - 0.8) <= 1e-7


# ---------------------------------------------------------------------------
# closed-form tables vs the FD oracle
# ---------------------------------------------------------------------------

def test_state_tables_match_fd():
    """Raw moments rebuilt from the cumulant tables against FD raw moments."""
    for state in moderate_inputs():
        f = input_charfn(state)
        xp = raw_from_cumulants(state_cumulants(state))
        for (n, m) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3),
                       (2, 1), (1, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            assert abs(raw_moment_xp(f, n, m) - xp[(n, m)]) <= 1e-6, (state, n, m)


def test_state_photon_numbers_match_normal_fd():
    """n_mean and <a^dag^2 a^2> of the closed forms against normal-ordered FD."""
    for state in moderate_inputs():
        f = input_charfn(state)
        ms = moment_set(state)
        assert abs(raw_moment_normal(f, 1, 1) - ms.n_mean) <= 1e-6, state
        a22 = ms.g2_zero * ms.n_mean**2 if ms.g2_zero is not None else 0.0
        assert abs(raw_moment_normal(f, 2, 2) - a22) <= 1e-6, state


def test_photon_identities_on_the_tables_match_the_closed_forms(rng):
    """The quadrature identities on the raw moments of the exact cumulant
    tables, the oracle of photon_moments, on states and outputs whose photon
    numbers are not small."""
    states = case_study_inputs() + [CoherentInput(0.8 + 0.2j), SqueezedVacuumInput(-0.4), FockInput(7)]
    for gain in (0.7, 1.0, 1.3):
        for res in random_resources(rng, 3):
            ch = Channel(res, gain=gain)
            for state in states:
                out = teleport(state, ch)
                for source, k in ((state, state_cumulants(state)), (out, output_cumulants(state, ch))):
                    ms = moment_set_from_tables(raw_from_cumulants(k))
                    n, a22 = photon_moments(source)
                    assert ms.n_mean == pytest.approx(n, rel=1e-12, abs=1e-12), source
                    got = 0.0 if ms.g2_zero is None else ms.g2_zero * ms.n_mean**2
                    assert got == pytest.approx(a22, rel=1e-11, abs=1e-11), source


@pytest.mark.parametrize("r", [3.0, 6.0, 10.0, 12.0])
def test_near_vacuum_photon_moments_keep_relative_accuracy(r):
    """The identities on a table of entries near 1 keep only absolute accuracy;
    the closed forms keep relative accuracy near the vacuum.  Vacuum through a
    TMSV is thermal with <n> = a^2 and g2(0) = 2 (from the output table the
    identities give g2(0) = 26 at r = 10), and a weak coherent input is a
    displaced thermal state."""
    ch = Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r))
    th = math.exp(-2.0 * r)  # (cosh r - sinh r)^2 would keep only eps e^{4r} of it
    vac = moment_set(teleport(FockInput(0), ch))
    assert vac.n_mean == pytest.approx(th, rel=1e-13, abs=0.0)
    assert vac.g2_zero == pytest.approx(2.0, rel=1e-13, abs=0.0)
    mu = 1e-8  # coherent:0.0001
    coh = moment_set(teleport(CoherentInput(1e-4), ch))
    assert coh.n_mean == pytest.approx(mu + th, rel=1e-13, abs=0.0)
    assert coh.g2_zero * coh.n_mean**2 == pytest.approx(
        mu * mu + 4 * mu * th + 2 * th * th, rel=1e-13, abs=0.0
    )
    assert moment_set(CoherentInput(1e-4)).g2_zero == pytest.approx(1.0, rel=1e-13, abs=0.0)
    s = 1e-4
    assert moment_set(SqueezedVacuumInput(s)).g2_zero == pytest.approx(
        3.0 + math.sinh(s) ** -2, rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("gain", [1.0, 1.3])
def test_transfer_tables_match_fd(gain, rng):
    # Away from gain 1 the fourth moments reach O(100); hold the oracle to
    # 1e-6 absolute plus a small relative allowance for those magnitudes.
    for res in random_resources(rng, 6):
        ch = Channel(res, gain=gain)
        tau = transfer_fn(ch)
        xp = raw_from_cumulants(transfer_cumulants(ch))
        for (n, m) in [(2, 0), (0, 2), (1, 1), (4, 0), (2, 2), (0, 4)]:
            want = xp[(n, m)]
            assert abs(raw_moment_xp(tau, n, m) - want) <= 1e-6 + 1e-7 * abs(want)


# ---------------------------------------------------------------------------
# the output's table: additivity against the actual product chi_out
# ---------------------------------------------------------------------------

def test_binomial_matches_direct_differentiation(rng):
    """The additive output table, taken to raw moments, and every field of the
    output's MomentSet against FD applied to the actual product chi_out."""
    for gain in (1.0, 1.3):
        for res in random_resources(rng, 3):
            ch = Channel(res, gain=gain)
            for state in (FockInput(1), CoherentInput(0.6 - 0.2j), SqueezedVacuumInput(0.3)):
                out = teleport(state, ch)
                xp = raw_from_cumulants(output_cumulants(state, ch))
                for (n, m) in [(1, 0), (2, 0), (1, 1), (3, 0), (4, 0), (2, 2)]:
                    fd = raw_moment_xp(output_charfn(out), n, m)
                    assert abs(fd - xp[(n, m)]) <= 1e-6, (state, res, gain, n, m)
                ms, fd_ms = moment_set(out).to_dict(), fd_moment_set(output_charfn(out)).to_dict()
                for field in ("x_mean", "p_mean", "x2_central", "p2_central", "cov_xp",
                              "mu3_x", "mu3_p", "mu4_x", "mu4_p", "kappa4_x", "kappa4_p"):
                    assert ms[field] == pytest.approx(fd_ms[field], abs=1e-5, rel=1e-6), field


def test_binomial_photon_number_structure(rng):
    """<n>_out = g^2 <n>_in - F'(0) - (1 - g^2) / 2, F'(0) = -x2_AB / 2."""
    for res in random_resources(rng, 5):
        for gain in (0.7, 1.0, 1.3):
            ch = Channel(res, gain=gain)
            f1 = -0.5 * transfer_cumulants(ch)[(2, 0)]
            for state in case_study_inputs():
                n_out = moment_set(teleport(state, ch)).n_mean
                n_in = moment_set(state).n_mean
                want = gain**2 * n_in - f1 - 0.5 * (1.0 - gain**2)
                assert abs(n_out - want) <= 1e-12, (state, res, gain)


# ---------------------------------------------------------------------------
# moment sets
# ---------------------------------------------------------------------------

def test_moment_set_examples():
    coh = moment_set(CoherentInput(2.12928))
    assert coh.g2_zero == pytest.approx(1.0, abs=1e-6)
    f1 = moment_set(FockInput(1))
    assert f1.g2_zero == pytest.approx(0.0, abs=1e-6)
    s = 0.9
    sq = moment_set(SqueezedVacuumInput(s))
    assert sq.x2_central / sq.p2_central == pytest.approx(math.exp(-4.0 * s), abs=1e-6)
    vac = moment_set(FockInput(0))
    assert vac.g2_zero is None and vac.n_mean == 0.0


def test_moment_set_from_charfn_fd_path():
    ms = fd_moment_set(input_charfn(CoherentInput(1.1)))
    assert ms.x_mean == pytest.approx(2.2, abs=1e-7)
    assert ms.n_mean == pytest.approx(1.21, abs=1e-6)


def test_moment_set_serializes_to_json():
    ms = moment_set(FockInput(1))
    blob = json.dumps(ms.to_dict())
    back = json.loads(blob)
    assert back["n_mean"] == 1.0
    assert back["g2_zero"] == 0.0
    assert set(back) == {
        "x_mean", "p_mean", "x2_central", "p2_central", "cov_xp", "mu3_x", "mu3_p",
        "mu4_x", "mu4_p", "kappa4_x", "kappa4_p", "n_mean", "g2_zero", "is_state", "label",
    }


def test_non_state_tables_exempt_from_variance_check(monkeypatch):
    # Only states go through the guard: a state's table with a negative
    # variance raises, while the FD oracle's table of a transfer function,
    # which is no state, is flagged and left unchecked.
    vals = dict.fromkeys(state_cumulants(FockInput(0)), 0.0)
    vals[(2, 0)] = vals[(0, 2)] = -0.5  # negative pseudo-variance
    monkeypatch.setattr(moments, "state_cumulants", lambda state: dict(vals))
    with pytest.raises(ConsistencyError):
        moment_set(FockInput(0))
    monkeypatch.undo()
    tau = transfer_fn(Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=2.0), gain=1.5))
    assert not fd_moment_set(tau).is_state


def test_real_transfer_tables_are_flagged_non_state():
    """The transfer's table breaks the uncertainty relation <Dx^2><Dp^2> >= 1
    that every state meets, so it is never read as a state's moments; the
    output's table, which adds the input's, meets it."""
    ch = Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=2.0))
    k = transfer_cumulants(ch)
    assert k[(2, 0)] * k[(0, 2)] < 1.0
    assert not transfer_moment_set(ch).is_state
    out = moment_set(teleport(FockInput(0), ch))
    assert out.is_state and out.x2_central * out.p2_central >= 1.0


# ---------------------------------------------------------------------------
# closed-form resource expressions
# ---------------------------------------------------------------------------

def test_resource_closed_form_examples():
    r = 1.25
    cf = resource_closed_forms(SqueezedBellResource(delta=1.0, theta=0.0, r=r))
    assert cf.x2_ab == pytest.approx(2.0 * math.exp(-2.0 * r), abs=1e-15)
    assert cf.kappa4_ab == 0.0
    # minimum of x2_ab over a Delta grid sits at the known optimum
    deltas = np.linspace(0.0, 1.0, 2001)
    vals = [
        resource_closed_forms(SqueezedBellResource(delta=float(d), theta=0.0, r=r)).x2_ab
        for d in deltas
    ]
    assert abs(deltas[int(np.argmin(vals))] - DELTA2_OPT) <= 1e-3


def test_closed_forms_match_tables(rng):
    for res in random_resources(rng, 10):
        ch = Channel(res)
        cf = resource_closed_forms(res)
        k = transfer_cumulants(ch)
        assert cf.x2_ab == pytest.approx(k[(2, 0)], abs=1e-12)
        # n_ab = -F'(0) - 1 with F'(0) = -x2_AB / 2
        assert cf.n_ab == pytest.approx(0.5 * k[(2, 0)] - 1.0, abs=1e-12)
        assert cf.kappa4_ab == pytest.approx(k[(4, 0)], abs=1e-12)


def test_photon_average_stationary_point_shared():
    """FD bare photon average and the closed form share their minimizer."""
    r = 1.25
    fd_star, _ = reference_minimize(fd_objective_function(Objective(kind="n_transfer", r=r)))

    deltas = np.linspace(0.0, 1.0, 100001)
    closed_vals = [
        resource_closed_forms(SqueezedBellResource(delta=float(d), theta=0.0, r=r)).n_ab
        for d in deltas
    ]
    closed_min = deltas[int(np.argmin(closed_vals))]
    assert abs(fd_star - closed_min) <= 1e-4


# ---------------------------------------------------------------------------
# cumulant additivity and vanishing-moment invariants
# ---------------------------------------------------------------------------

def test_cumulant_additivity_suite(rng):
    resources = random_resources(rng, 20)
    for state in case_study_inputs():
        ms_in = moment_set(state)
        for res in resources:
            for gain in (1.0, 1.3):
                ch = Channel(res, gain=gain)
                ms_out = moment_set(teleport(state, ch))
                ms_ab = transfer_moment_set(ch)
                g2, g3, g4 = gain**2, gain**3, gain**4
                assert ms_out.x2_central == pytest.approx(
                    g2 * ms_in.x2_central + ms_ab.x2_central, abs=1e-6
                )
                assert ms_out.mu3_x == pytest.approx(
                    g3 * ms_in.mu3_x + ms_ab.mu3_x, abs=1e-6
                )
                assert ms_out.kappa4_x == pytest.approx(
                    g4 * ms_in.kappa4_x + ms_ab.kappa4_x, abs=1e-5
                )
                assert ms_out.kappa4_p == pytest.approx(
                    g4 * ms_in.kappa4_p + ms_ab.kappa4_p, abs=1e-5
                )
                # fourth central moments are not additive; the cross term is
                assert ms_out.mu4_x - g4 * ms_in.mu4_x - ms_ab.mu4_x == pytest.approx(
                    6.0 * g2 * ms_in.x2_central * ms_ab.x2_central, abs=1e-5
                )


def test_gaussian_outputs_carry_the_resource_fourth_cumulant_exactly(rng):
    """Coherent states and squeezed vacuum have no cumulant past the second, so
    an output's fourth cumulants are the resource's bit for bit: the distortion
    of the cumulants depends on the resource alone.  At Delta = 1 the resource
    is Gaussian too, and all three are 0.0."""
    states = (CoherentInput(2.12928), CoherentInput(0.8 + 0.2j),
              SqueezedVacuumInput(1.5), SqueezedVacuumInput(-0.4))
    resources = random_resources(rng, 6) + [SqueezedBellResource(delta=1.0, theta=0.3, r=3.0)]
    for gain in (0.7, 1.0, 1.3):
        for res in resources:
            k4 = transfer_cumulants(Channel(res, gain=gain))[(4, 0)]
            assert k4 != 0.0 or res.delta == 1.0
            for state in states:
                ms = moment_set(teleport(state, Channel(res, gain=gain)))
                assert ms.kappa4_x == ms.kappa4_p == k4, (state, res, gain)
                if res.delta == 1.0:
                    assert ms.kappa4_x == 0.0


def test_resource_isotropy_and_mixed_thirds(rng):
    for res in random_resources(rng, 8):
        ch = Channel(res)
        ms_ab = transfer_moment_set(ch)
        assert abs(ms_ab.kappa4_x - ms_ab.kappa4_p) <= 1e-7
        tau = transfer_fn(ch)
        assert abs(raw_moment_xp(tau, 2, 1)) <= 1e-7
        assert abs(raw_moment_xp(tau, 1, 2)) <= 1e-7
        assert abs(raw_moment_xp(tau, 3, 0)) <= 1e-7


def test_additivity_via_fd_output_path(rng):
    """Same identities with the output moments measured by FD on chi_out, and
    the photon numbers against the normal-ordered FD oracle."""
    for gain in (1.3, 0.7):
        for res in random_resources(rng, 3):
            ch = Channel(res, gain=gain)
            ms_ab = transfer_moment_set(ch)
            for state in (CoherentInput(0.8 + 0.2j), SqueezedVacuumInput(0.4)):
                ms_in = moment_set(state)
                out = teleport(state, ch)
                ms_out_fd = fd_moment_set(output_charfn(out))
                want_k4 = gain**4 * ms_in.kappa4_x + ms_ab.kappa4_x
                assert ms_out_fd.kappa4_x == pytest.approx(want_k4, abs=1e-5, rel=1e-5)
                assert ms_out_fd.x2_central == pytest.approx(
                    gain**2 * ms_in.x2_central + ms_ab.x2_central, abs=1e-6, rel=1e-7
                )
                ms_out = moment_set(out)
                assert ms_out.n_mean == pytest.approx(ms_out_fd.n_mean, abs=1e-6)
                assert ms_out.g2_zero == pytest.approx(ms_out_fd.g2_zero, abs=1e-6)


# ---------------------------------------------------------------------------
# covariance distortion and squeezing
# ---------------------------------------------------------------------------

def test_covariance_distortion_input_independent():
    ch = Channel(SqueezedBellResource(delta=0.8, theta=0.0, r=1.0))
    records = [distortion_covariance(state, ch) for state in case_study_inputs()]
    base = records[0].d_x2
    for rec in records[1:]:
        assert abs(rec.d_x2 - base) <= 1e-7
        assert abs(rec.d_cov) <= 1e-8


@pytest.mark.parametrize("s", [8.0, 10.0])
def test_covariance_distortion_of_strong_squeezing_is_the_transfer_table(s):
    """The differences are the transfer function's cumulants exactly; taken
    from two moment sets of size e^{2s} they would lose digits (and at s = 10
    fail an absolute consistency check)."""
    ch = Channel(SqueezedBellResource(0.9, 0.3, 1.0))
    rec = distortion_covariance(SqueezedVacuumInput(s), ch)
    k_tau = transfer_cumulants(ch)
    assert (rec.d_x2, rec.d_p2, rec.d_cov) == (k_tau[(2, 0)], k_tau[(0, 2)], k_tau[(1, 1)])
    out = moment_set(teleport(SqueezedVacuumInput(s), ch))
    assert (rec.x2_out, rec.p2_out, rec.cov_out) == (out.x2_central, out.p2_central, out.cov_xp)


def test_covariance_distortion_at_gain_is_out_minus_g2_in():
    """Away from unit gain the d fields are out - g^2 in, not out - in."""
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=1.0), gain=1.3)
    rec = distortion_covariance(SqueezedVacuumInput(0.5), ch)
    g2 = 1.3 ** 2
    assert rec.d_x2 == pytest.approx(rec.x2_out - g2 * rec.x2_in, abs=1e-14)
    assert rec.d_p2 == pytest.approx(rec.p2_out - g2 * rec.p2_in, abs=1e-14)
    assert rec.d_cov == pytest.approx(rec.cov_out - g2 * rec.cov_in, abs=1e-14)
    assert rec.d_x2 == pytest.approx(0.9329, abs=1e-4)
    assert rec.x2_out - rec.x2_in == pytest.approx(1.1867, abs=1e-4)


def test_covariance_distortion_tmsv_value():
    r = 1.25
    rec = distortion_covariance(FockInput(0), Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r)))
    assert rec.x2_out - rec.x2_in == pytest.approx(2.0 * math.exp(-2.0 * r), abs=1e-6)


def test_squeezing_examples():
    assert squeezing_ratio(moment_set(FockInput(0))) == pytest.approx(1.0, abs=1e-8)
    ch = Channel(SqueezedBellResource(delta=DELTA2_OPT, theta=0.0, r=1.25))
    rec = squeezing_transmission(SqueezedVacuumInput(1.5), ch)
    assert 1.0 >= rec.s_out >= rec.s_in
    assert rec.quotient >= 1.0
    # an unsqueezed input stays unsqueezed
    rec2 = squeezing_transmission(CoherentInput(1.3), ch)
    assert rec2.s_out == pytest.approx(1.0, abs=1e-6)


def test_squeezing_degenerate_error():
    ms = moment_set(FockInput(0))
    broken = type(ms)(**{**ms.to_dict(), "p2_central": 0.0})
    with pytest.raises(DegenerateStateError):
        squeezing_ratio(broken)
