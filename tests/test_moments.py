import json
import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    CharFn,
    CoherentInput,
    ConsistencyError,
    DegenerateStateError,
    FockInput,
    InvalidArgumentError,
    MomentTable,
    SqueezedBellResource,
    SqueezedVacuumInput,
    distortion_covariance,
    input_charfn,
    moment_set,
    output_moment_binomial,
    output_normal_table,
    output_xp_table,
    resource_closed_forms,
    squeezing_ratio,
    squeezing_transmission,
    state_normal_table,
    state_xp_table,
    teleport,
    transfer_fn,
    transfer_normal_table,
    transfer_xp_table,
)
from cvteleport.moments import moment_set_from_tables
from cvteleport.optimize import Objective
from conftest import DELTA2_OPT, case_study_inputs, moderate_inputs, random_resources
from oracles import (
    convert_ordering,
    fd_moment_set,
    fd_objective_function,
    raw_moment_normal,
    raw_moment_xp,
    reference_minimize,
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
    for state in moderate_inputs():
        f = input_charfn(state)
        xp = state_xp_table(state)
        for (n, m) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3),
                       (2, 1), (1, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            assert abs(raw_moment_xp(f, n, m) - float(xp.get(n, m))) <= 1e-6, (state, n, m)


def test_state_normal_tables_match_fd():
    for state in moderate_inputs():
        f = input_charfn(state)
        tab = state_normal_table(state)
        for key in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]:
            assert abs(raw_moment_normal(f, *key) - complex(tab.get(*key))) <= 1e-6, (state, key)


@pytest.mark.parametrize("gain", [1.0, 1.3])
def test_transfer_tables_match_fd(gain, rng):
    # Away from gain 1 the fourth moments reach O(100); hold the oracle to
    # 1e-6 absolute plus a small relative allowance for those magnitudes.
    for res in random_resources(rng, 6):
        ch = Channel(res, gain=gain)
        tau = transfer_fn(ch)
        xp = transfer_xp_table(ch)
        nt = transfer_normal_table(ch)
        for (n, m) in [(2, 0), (0, 2), (1, 1), (4, 0), (2, 2), (0, 4)]:
            want = float(xp.get(n, m))
            assert abs(raw_moment_xp(tau, n, m) - want) <= 1e-6 + 1e-7 * abs(want)
        assert abs(raw_moment_normal(tau, 1, 1) - complex(nt.get(1, 1))) <= 1e-6
        want22 = complex(nt.get(2, 2))
        assert abs(raw_moment_normal(tau, 2, 2) - want22) <= 1e-6 + 1e-7 * abs(want22)


# ---------------------------------------------------------------------------
# binomial output expansion
# ---------------------------------------------------------------------------

def test_binomial_identity_transfer_returns_input_moment():
    keys = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    identity = MomentTable(
        {k: (1.0 if k == (0, 0) else 0.0) for k in keys}, kind="xp", is_state=False
    )
    for state in moderate_inputs():
        xp = state_xp_table(state)
        for n, m in [(1, 0), (2, 0), (2, 2), (0, 4)]:
            got = output_moment_binomial(xp, identity, n, m, 1.0)
            assert got == pytest.approx(float(xp.get(n, m)), abs=1e-15)


def test_binomial_matches_direct_differentiation(rng):
    """Output tables vs FD applied to the actual product chi_out."""
    for gain in (1.0, 1.3):
        for res in random_resources(rng, 3):
            ch = Channel(res, gain=gain)
            for state in (FockInput(1), CoherentInput(0.6 - 0.2j), SqueezedVacuumInput(0.3)):
                out = teleport(state, ch)
                xp = output_xp_table(state, ch)
                for (n, m) in [(1, 0), (2, 0), (1, 1), (3, 0), (4, 0), (2, 2)]:
                    fd = raw_moment_xp(out.charfn, n, m)
                    assert abs(fd - float(xp.get(n, m))) <= 1e-6, (state, res, gain, n, m)


def test_binomial_photon_number_structure(rng):
    """<n>_out = g^2 <n>_in + <a^dag a>_AB for the bare transfer table."""
    for res in random_resources(rng, 5):
        for gain in (1.0, 1.3):
            ch = Channel(res, gain=gain)
            nt_ab = transfer_normal_table(ch)
            for state in case_study_inputs():
                n_out = output_normal_table(state, ch).get(1, 1)
                n_in = state_normal_table(state).get(1, 1)
                want = gain**2 * n_in + nt_ab.get(1, 1)
                assert abs(n_out - want) <= 1e-12


def test_binomial_rejects_missing_entries():
    small = MomentTable({(0, 0): 1.0}, kind="xp", is_state=True)
    with pytest.raises(InvalidArgumentError):
        output_moment_binomial(small, small, 1, 0, 1.0)


def test_binomial_rejects_mixed_sectors():
    a = MomentTable({(0, 0): 1.0}, kind="xp", is_state=True)
    b = MomentTable({(0, 0): 1.0 + 0j}, kind="normal", is_state=True)
    with pytest.raises(InvalidArgumentError):
        output_moment_binomial(a, b, 0, 0, 1.0)


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


def test_non_state_tables_exempt_from_variance_check():
    # Transfer-function "averages" need not obey state inequalities; the
    # non-state flag must bypass the guard that protects genuine states.
    keys = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    vals = {k: 0.0 for k in keys}
    vals[(0, 0)] = 1.0
    vals[(2, 0)] = vals[(0, 2)] = -0.5  # negative pseudo-variance
    nvals = {k: 0.0 + 0.0j for k in [(i, j) for i in range(3) for j in range(3)]}
    nvals[(0, 0)] = 1.0 + 0.0j
    pseudo_xp = MomentTable(vals, kind="xp", is_state=False)
    pseudo_normal = MomentTable(nvals, kind="normal", is_state=False)
    ms = moment_set_from_tables(pseudo_xp, pseudo_normal)
    assert not ms.is_state and ms.x2_central == -0.5
    with pytest.raises(ConsistencyError):
        moment_set_from_tables(
            MomentTable(vals, kind="xp", is_state=True),
            MomentTable(nvals, kind="normal", is_state=True),
        )


def test_real_transfer_tables_are_flagged_non_state():
    ch = Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=2.0), gain=1.5)
    ms = moment_set_from_tables(transfer_xp_table(ch), transfer_normal_table(ch))
    assert not ms.is_state


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
        xp = transfer_xp_table(ch)
        nt = transfer_normal_table(ch)
        assert cf.x2_ab == pytest.approx(float(xp.get(2, 0)), abs=1e-12)
        # closed-form photon-number average = bare-derivative average minus one
        assert cf.n_ab == pytest.approx(float(nt.get(1, 1).real) - 1.0, abs=1e-12)
        mu2 = float(xp.get(2, 0))
        kappa4 = float(xp.get(4, 0)) - 3.0 * mu2 * mu2
        assert cf.kappa4_ab == pytest.approx(kappa4, abs=1e-12)


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
                ms_ab = moment_set_from_tables(
                    transfer_xp_table(ch), transfer_normal_table(ch)
                )
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


def test_resource_isotropy_and_mixed_thirds(rng):
    for res in random_resources(rng, 8):
        ch = Channel(res)
        ms_ab = moment_set_from_tables(transfer_xp_table(ch), transfer_normal_table(ch))
        assert abs(ms_ab.kappa4_x - ms_ab.kappa4_p) <= 1e-7
        tau = transfer_fn(ch)
        assert abs(raw_moment_xp(tau, 2, 1)) <= 1e-7
        assert abs(raw_moment_xp(tau, 1, 2)) <= 1e-7
        assert abs(raw_moment_xp(tau, 3, 0)) <= 1e-7


def test_additivity_via_fd_output_path(rng):
    """Same identities with the output moments measured by FD on chi_out."""
    for res in random_resources(rng, 3):
        ch = Channel(res, gain=1.3)
        ms_ab = moment_set_from_tables(transfer_xp_table(ch), transfer_normal_table(ch))
        for state in (CoherentInput(0.8 + 0.2j), SqueezedVacuumInput(0.4)):
            ms_in = moment_set(state)
            out = teleport(state, ch)
            ms_out_fd = fd_moment_set(out.charfn)
            want_k4 = 1.3**4 * ms_in.kappa4_x + ms_ab.kappa4_x
            assert ms_out_fd.kappa4_x == pytest.approx(want_k4, abs=1e-5, rel=1e-5)
            assert ms_out_fd.x2_central == pytest.approx(
                1.3**2 * ms_in.x2_central + ms_ab.x2_central, abs=1e-6, rel=1e-7
            )


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
    broken = type(ms)(**{**ms.to_dict(), "p2_central": 0.0, "notes": {}})
    with pytest.raises(DegenerateStateError):
        squeezing_ratio(broken)
