import dataclasses
import math

import numpy as np
import pytest

import cvteleport.optimize as opt_mod
from cvteleport import (
    AccuracyError,
    Channel,
    CoherentInput,
    ConsistencyError,
    CVTeleportError,
    EvaluationError,
    FockInput,
    InvalidArgumentError,
    Objective,
    SqueezedBellResource,
    SqueezedVacuumInput,
    closed_form_delta,
    delta_family,
    minimize_delta,
    resource_closed_forms,
    sweep_columns,
    sweep_r,
)
from cvteleport.cli import parse_state
import cvteleport.moments as moments_mod
from cvteleport.moments import moment_set
from cvteleport.optimize import CLOSED_FORM_KINDS, OBJECTIVE_KINDS, OptimumRecord
from cvteleport.states import transfer_coefficients
from cvteleport.photonstats import DeltaFamily
from conftest import DELTA2_OPT, DELTA4_OPT, bisect_root
from oracles import (
    _basis,
    exact_transfer_cumulants,
    fd_objective_function,
    objective_parts,
    reference_interior_roots,
    reference_minimize,
    transfer_rows,
    transfer_table_mismatches,
    trig_form,
    weighted_objective,
)

R_RANGE = np.linspace(0.25, 3.0, 12)
# Two ulp of a Delta near 1.
TWO_ULP = 4.5e-16


def test_kappa4_optimum_value():
    assert DELTA4_OPT == pytest.approx(0.98529408578433, abs=1e-13)


def test_x2_transfer_optimum_both_paths():
    for r in (0.5, 1.25, 2.5):
        obj = Objective(kind="x2_transfer", r=r)
        assert abs(minimize_delta(obj).delta_star - DELTA2_OPT) <= 1e-10
        fd_star, _ = reference_minimize(fd_objective_function(obj))
        assert abs(fd_star - DELTA2_OPT) <= 1e-4


def _assert_r_independent_optimum(kind, target):
    stars = [minimize_delta(Objective(kind=kind, r=float(r))).delta_star for r in R_RANGE]
    assert max(abs(s - target) for s in stars) <= TWO_ULP
    assert max(stars) - min(stars) <= TWO_ULP


def test_x2_transfer_r_independent():
    _assert_r_independent_optimum("x2_transfer", DELTA2_OPT)


def test_n_transfer_optimum():
    _assert_r_independent_optimum("n_transfer", DELTA2_OPT)


def test_kappa4_transfer_optimum():
    # the kappa4 closed form factors as exp(-4r) * h(Delta): r-independent
    _assert_r_independent_optimum("kappa4_transfer", DELTA4_OPT)


def test_kappa4_prefers_the_interior_stationary_point():
    """The documented rule: an interior local minimum wins over a lower boundary."""
    obj = Objective(kind="kappa4_transfer", r=0.9, theta=0.0, gain=0.8)
    rec = minimize_delta(obj)
    f, _ = objective_parts(obj)
    assert rec.delta_star == pytest.approx(0.99749, abs=1e-5)
    assert f(0.0) < rec.objective_value
    for side in (-1e-6, 1e-6):
        assert rec.objective_value <= f(rec.delta_star + side)


def test_frobenius_finds_the_deeper_dip():
    """A dip between the last two points of a 41-point grid is still found."""
    obj = Objective(
        kind="frobenius", r=0.65, theta=0.64, gain=0.8, input=CoherentInput(1.0 + 0.7j)
    )
    rec = minimize_delta(obj)
    # Independent minimizer: bisection on d/dDelta of purity_out - 2F, from
    # the family's Gram matrix and fidelity overlaps.
    family = delta_family(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons)
    cos_theta = math.cos(obj.theta)

    def slope(d):
        root = math.sqrt(1.0 - d * d)
        w = np.array([d * d, 2.0 * d * root * cos_theta, root * root])
        dw = np.array([2.0 * d, 2.0 * cos_theta * (root - d * d / root), -2.0 * d])
        return float(2.0 * (family.gram @ w - family.fidelity_basis) @ dw)

    assert slope(0.99) < 0.0 < slope(0.9999)
    assert abs(rec.delta_star - bisect_root(slope, 0.99, 0.9999)) <= 1e-9
    assert rec.objective_value == pytest.approx(0.330481, abs=1e-6)
    g, outer = objective_parts(obj)
    grid_star, grid_value = reference_minimize(lambda d: outer(g(d)))
    assert grid_star == pytest.approx(0.85995, abs=1e-5)
    assert rec.objective_value < grid_value


@pytest.mark.parametrize("kind", ["d_functional", "one_minus_fidelity", "frobenius"])
def test_family_objectives_pass_the_fit_check_at_large_r(kind):
    """At r = 6 these objectives are ~1e-6 but round on the scale of their terms (~1)."""
    rec = minimize_delta(Objective(kind=kind, r=6.0, input=CoherentInput(1.0)))
    assert abs(rec.delta_star - DELTA2_OPT) <= 1e-5


@pytest.mark.parametrize("r", [10.0, 12.0])
def test_frobenius_flat_to_rounding_raises(r):
    """Frobenius^2 ~ e^{-4r} sinks below the rounding of its O(1) terms: no optimum."""
    with pytest.raises(AccuracyError):
        minimize_delta(Objective(kind="frobenius", r=r, input=CoherentInput(1.0)))


def test_frobenius_at_r8_is_certified_or_raises():
    try:
        rec = minimize_delta(Objective(kind="frobenius", r=8.0, input=CoherentInput(1.0)))
    except AccuracyError:
        return
    assert abs(rec.delta_star - DELTA2_OPT) <= 1e-3


@pytest.mark.parametrize("kind", ["d_functional", "one_minus_fidelity"])
@pytest.mark.parametrize("r", [8.0, 10.0, 12.0])
def test_family_objectives_stay_certified_at_very_large_r(kind, r):
    """P_out - P_in and 1 - F vary like e^{-2r}, far above the rounding of their terms."""
    rec = minimize_delta(Objective(kind=kind, r=r, input=CoherentInput(1.0)))
    assert abs(rec.delta_star - DELTA2_OPT) <= 1e-6


@pytest.mark.parametrize("r", [10.0, 14.0, 16.0, 20.0, 30.0])
@pytest.mark.parametrize("kind, closed", [("x2_transfer", "x2_ab"), ("kappa4_transfer", "kappa4_ab")])
def test_transfer_optima_keep_relative_accuracy_at_large_r(kind, closed, r):
    """The transfer objectives fall like e^{-2r} and e^{-4r}; their printed values
    keep relative accuracy against the closed forms at the same Delta."""
    for theta in (0.0, 0.4):
        rec = minimize_delta(Objective(kind=kind, r=r, theta=theta))
        forms = resource_closed_forms(SqueezedBellResource(rec.delta_star, theta, r))
        assert rec.objective_value == pytest.approx(getattr(forms, closed), rel=1e-13, abs=0.0)


def test_transfer_optima_print_their_value_to_rounding_near_a_zero():
    """Against 50 digits at each optimum's Delta.  kappa4_transfer on fock:1 at
    r = 1, gain 1.3 has its optimum at -6e-8, where the trigonometric
    polynomial's O(1) coefficients cancel: evaluated there it kept 3.5e-9;
    evaluated at the Delta weights it keeps 1e-14."""
    pytest.importorskip("mpmath")
    (rec,) = sweep_r(["kappa4_transfer"], [1.0], input=FockInput(1), gain=1.3)
    assert rec.delta_star == 0.9999752232201582
    _, want = exact_transfer_cumulants(rec.delta_star, 0.0, 1.0, 1.3)
    assert abs(rec.objective_value - want) <= 1e-13 * abs(want)
    for gain in (0.7, 1.0, 1.3, 2.0):
        for theta in (0.0, 0.4):
            kinds = ["x2_transfer", "n_transfer", "kappa4_transfer"]
            for rec in sweep_r(kinds, [0.5, 1.0, 2.0, 4.0], theta=theta, gain=gain):
                k2, k4 = exact_transfer_cumulants(rec.delta_star, theta, rec.r, gain)
                want = {"x2_transfer": k2, "n_transfer": k2 / 2}.get(rec.kind, k4)
                rel = 1e-13 if rec.kind == "kappa4_transfer" else 1e-15
                assert abs(rec.objective_value - want) <= rel * abs(want), (rec, gain, theta)


def test_flat_objective_raises(monkeypatch):
    one = np.array([1.0, 0.0, 1.0])
    flat = 3.25 * np.outer(one, one)  # w @ flat @ w = 3.25 at every Delta
    monkeypatch.setattr(opt_mod, "_forms", lambda kind, *parts: (flat[None], flat[None], float, [0]))
    with pytest.raises(AccuracyError):
        opt_mod.minimize_delta(Objective(kind="x2_transfer", r=1.0))


def test_subnormal_forms_give_their_optimum():
    """At g = 1 the unscaled transfer forms are subnormal past r of about 177
    (kappa4, ``a^2 b^2 = e^{-4r}``) and 354 (x2, n), and 0 by r = 400.  Built
    from (a, b) scaled by a power of two they keep their digits: Delta*, which
    does not depend on r, holds to 4 ulp up to r = 700.  The value is the
    scaled score times that power of two, rounded once."""
    r_grid = [177.0, 182.0, 185.0, 186.0, 188.0, 300.0, 354.0, 355.0, 370.0, 400.0, 700.0]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        recs = sweep_r(["x2_transfer", "n_transfer", "kappa4_transfer"], r_grid)
    for rec in recs:
        want = DELTA4_OPT if rec.kind == "kappa4_transfer" else DELTA2_OPT
        assert rec.error is None and abs(rec.delta_star - want) <= 4 * math.ulp(want), rec
    cells = {(rec.kind, rec.r): rec for rec in recs}
    for kind in ("x2_transfer", "n_transfer"):
        low, high = cells[kind, 354.0], cells[kind, 355.0]
        assert 0.0 < high.objective_value < 1e-308
        # The objective falls like e^{-2r} at a fixed Delta*.
        assert high.objective_value / low.objective_value == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert cells[kind, 400.0].objective_value == 0.0
    # kappa4's optimum is negative: below the subnormal range it prints -0.0.
    assert math.copysign(1.0, cells["kappa4_transfer", 188.0].objective_value) == -1.0


@pytest.mark.parametrize("power", [-1070, -600, 600])
def test_coefficients_and_their_errors_do_not_depend_on_a_power_of_two(power):
    """Forms scaled by 2^power give the same coefficients, the power taken
    into their scale, and AccuracyError messages with the scaled numbers, or
    with the unscaled ones where the power is passed as the forms' exponent."""
    one = np.array([1.0, 0.0, 1.0])
    flat = 3.25 * np.outer(one, one)
    flat[0, 0] += 1e-15  # varies, but within the rounding of its terms
    channel = Channel(SqueezedBellResource(1.0, 0.4, 1.0), gain=1.0)
    rows, scale = transfer_rows(channel)
    Q, terms, _, _ = opt_mod._forms("x2_transfer", (rows[None], np.array([scale])), 1.0, None)
    Q, terms = np.concatenate([flat[None], Q]), np.concatenate([flat[None], terms])
    kinds, trig = ["x2_transfer"] * 2, opt_mod._trig(0.4)
    coef, errors = opt_mod._coefficients(kinds, Q, terms, trig, [0, 0])
    with np.errstate(under="ignore"):  # 2^-1070 leaves the forms subnormal
        scaled = np.ldexp(Q, power), np.ldexp(terms, power)
    coef2, errors2 = opt_mod._coefficients(kinds, *scaled, trig, [0, 0])
    coef3, errors3 = opt_mod._coefficients(kinds, *scaled, trig, [-power, -power])
    assert (coef3 == coef2).all()
    if power > -1000:  # the subnormal forms lost digits
        assert (coef2 == coef).all()
        assert str(errors3[0]) == str(errors[0]) and errors3[0].estimate == errors[0].estimate
    assert errors[1] is None and errors2[1] is None
    flat_error, flat_error2 = errors[0], errors2[0]
    assert isinstance(flat_error2, AccuracyError)
    rounding = opt_mod._ROUNDING * np.max(np.abs(trig[1:]) @ flat[np.triu_indices(3)])
    assert f"by {flat_error.estimate:.3e}, within the rounding {rounding:.3e}" in str(flat_error)
    assert f"by {flat_error2.estimate:.3e}, within the rounding " \
        f"{math.ldexp(rounding, power):.3e}" in str(flat_error2)
    if power > -1000:
        assert flat_error2.estimate == math.ldexp(flat_error.estimate, power)


def test_constant_objective_tie_breaks_to_zero(monkeypatch):
    """Two equal ends and no interior minimum: g = -cos 2t is -1 at Delta = 0 and 1."""
    obj = Objective(kind="x2_transfer", r=1.0)
    # w @ Q @ w = -Delta^4 + 6 Delta^2 (1 - Delta^2) - (1 - Delta^2)^2 = -cos 2t
    Q = np.array([[-1.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, -1.0]])
    form = (Q[None], np.abs(Q)[None], float, [0])
    assert (opt_mod._trig(obj.theta) @ Q[np.triu_indices(3)]).tolist() == [0.0, 0.0, 0.0, -1.0, 0.0]
    monkeypatch.setattr(opt_mod, "_forms", lambda kind, *parts: form)
    rec = opt_mod.minimize_delta(obj)
    assert rec.delta_star == 0.0
    assert rec.objective_value == -1.0


def test_non_finite_objective_raises(monkeypatch):
    obj = Objective(kind="x2_transfer", r=1.0)
    form = np.eye(3)
    form[0, 2] = form[2, 0] = float("nan")
    stacked = (form[None], np.abs(form)[None], float, [0])
    monkeypatch.setattr(opt_mod, "_forms", lambda kind, *parts: stacked)
    with pytest.raises(EvaluationError, match="non-finite"):
        opt_mod.minimize_delta(obj)


def test_local_minimum_certificate():
    for kind, r in [("x2_transfer", 1.0), ("kappa4_transfer", 1.0), ("n_transfer", 0.75)]:
        obj = Objective(kind=kind, r=r)
        rec = minimize_delta(obj)
        f, _ = objective_parts(obj)
        star = rec.delta_star
        assert rec.iterations == 1  # the objective is evaluated once, at the optimum
        for side in (-1e-3, 1e-3):
            probe = star + side
            if 0.0 <= probe <= 1.0:
                assert f(star) <= f(probe) + 1e-12


# Cells where a family optimum lies at an end and the ends nearly tie.
END_CELLS = [
    ("fock:0", 1.3, 0.4, 11.5),
    ("fock:0", 2.0, 0.1, 10.25),
    ("fock:0", 2.0, 0.1, 10.5),
    ("sqvac:1.5", 1.3, 0.4, 12.25),
    ("coherent:2.12928", 0.7, 0.0, 11.5),
    ("coherent:0.5,0.3", 2.0, 0.1, 10.5),
]


@pytest.mark.parametrize("text, gain, theta, r", END_CELLS)
def test_an_end_optimum_is_not_beaten_by_the_other_end(text, gain, theta, r):
    """When Delta* is an end, the other end's printed value (the form at Delta =
    0 or 1, or compare's column for a family kind) is not lower, and a tie
    gives Delta* = 0."""
    state = parse_state(text)
    family = delta_family(state, r, theta, gain)
    columns = {"d_functional": "d_n", "one_minus_fidelity": "one_minus_fidelity",
               "frobenius": "frobenius"}
    ends = 0
    for rec in sweep_r(OBJECTIVE_KINDS, [r], input=state, theta=theta, gain=gain):
        if rec.delta_star not in (0.0, 1.0):
            continue
        other = 1.0 - rec.delta_star
        if rec.kind in columns:
            value = getattr(family.measures(other), columns[rec.kind])
        else:
            obj = Objective(kind=rec.kind, r=r, theta=theta, input=state, gain=gain)
            value = weighted_objective(obj)(other)
        assert rec.objective_value <= value, (rec, value)
        if rec.objective_value == value:
            assert rec.delta_star == 0.0, rec
        ends += 1
    assert ends > 0


def test_input_dependent_kinds_require_input():
    with pytest.raises(InvalidArgumentError):
        Objective(kind="one_minus_fidelity", r=1.0)
    with pytest.raises(InvalidArgumentError):
        Objective(kind="mu4_x", r=1.0)


# ---------------------------------------------------------------------------
# batched root solve
# ---------------------------------------------------------------------------

def _quartics(coef):
    """The stationary-point and zero quartics of the rows of ``coef``, built as the
    optimizer builds them."""
    a0, u1, u2 = coef[:, 0], coef[:, 1] - 1j * coef[:, 2], coef[:, 3] - 1j * coef[:, 4]
    zero = np.zeros(len(coef))
    stationary = np.stack([u2, u1 / 2, zero, -u1.conj() / 2, -u2.conj()], axis=1)
    zeros = np.stack([u2 / 2, u1 / 2, a0, u1.conj() / 2, u2.conj() / 2], axis=1)
    return np.concatenate([stationary, zeros])


def _assert_roots_match_reference(quartics):
    batched, curvature = opt_mod._interior_roots(quartics)
    assert batched.shape == curvature.shape == (len(quartics), 4)
    assert (np.isnan(batched) == np.isnan(curvature)).all()
    for row, quartic in zip(batched, quartics):
        assert sorted(row[~np.isnan(row)].tolist()) == sorted(reference_interior_roots(quartic))


def _random_rows():
    """``(quartics, coef)``: 400 random complex quartics, and the coefficients
    of 400 random polynomials g."""
    rng = np.random.default_rng(7)
    quartics = rng.standard_normal((400, 5)) + 1j * rng.standard_normal((400, 5))
    quartics[::7, 2] = 0.0
    return quartics, rng.standard_normal((400, 5))


def test_batched_roots_match_reference_on_random_quartics():
    quartics, coef = _random_rows()
    _assert_roots_match_reference(quartics)
    roots, _ = opt_mod._interior_roots(_quartics(coef))
    assert np.count_nonzero(~np.isnan(roots)) > 400  # the test sees many interior roots
    _assert_roots_match_reference(_quartics(coef))


def test_root_curvature_is_the_second_derivative_of_the_polynomial():
    """At every interior stationary point of the random polynomials above,
    -Re(P'(z) / z) from the last Newton step is g''(t) of the oracle
    polynomial: the same sign, and the same value to the rounding of the
    coefficients (|g''| <= 4 sum |coef|)."""
    _, coef = _random_rows()
    roots, curvature = opt_mod._interior_roots(_quartics(coef)[:400])
    taken = ~np.isnan(roots)
    assert np.count_nonzero(taken) > 400
    rows = np.nonzero(taken)[0]
    # g''(t) = -(a1 cos t + b1 sin t) - 4 (a2 cos 2t + b2 sin 2t)
    want = (_basis(roots[taken]) * coef[rows] * [0.0, -1.0, -1.0, -4.0, -4.0]).sum(axis=1)
    got = curvature[taken]
    assert (np.sign(got) == np.sign(want)).all()
    assert (np.abs(got - want) <= 1e-12 * 4.0 * np.abs(coef[rows]).sum(axis=1)).all()


def test_batched_roots_take_the_reduced_quadratic_on_a_zero_leading_coefficient():
    """No cos 2t, sin 2t terms: np.roots strips the zero ends, and so must the stack."""
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((200, 5))
    coef[::2, 3:] = 0.0
    coef[1::4, 4] = 0.0
    quartics = _quartics(coef)
    assert np.count_nonzero(quartics[:, 0] == 0) >= 200
    with np.errstate(all="raise"):  # no division by the zero leading coefficient
        _assert_roots_match_reference(quartics)
    # Mixed with a row of one nonzero coefficient and a zero row: no roots there.
    odd = np.zeros((2, 5), complex)
    odd[0, 2] = 1.5
    _assert_roots_match_reference(np.concatenate([quartics[:5], odd]))


def test_batched_roots_polish_a_rounding_small_leading_coefficient():
    rng = np.random.default_rng(13)
    coef = rng.standard_normal((200, 5))
    coef[:, 3:] *= 10.0 ** rng.uniform(-18.0, -14.0, (200, 1))
    _assert_roots_match_reference(_quartics(coef))
    # The same from the objectives: theta != 0 leaves mu4 and 1 - F with such rows.
    rows = []
    for kind, text in [("mu4_x", "coherent:2.12928"), ("mu4_p", "sqvac:1.5"),
                       ("one_minus_fidelity", "mix:1@0.5,2@0.5"),
                       ("one_minus_fidelity", "sqvac:1.5")]:
        for theta in (0.3, 1.0, 2.0):
            obj = Objective(kind=kind, r=1.0, theta=theta, input=parse_state(text), gain=0.8)
            rows.append(trig_form(obj)[0])
    coef = np.array(rows)
    assert np.any((coef[:, 3:] != 0).any(axis=1) & (np.abs(coef[:, 3:]).max(axis=1) < 1e-12))
    _assert_roots_match_reference(_quartics(coef))


# ---------------------------------------------------------------------------
# closed-form optima
# ---------------------------------------------------------------------------

def test_closed_forms_converge_at_large_r():
    """Every form is ``cos(t*/2)`` with ``t* -> pi/4`` as ``tanh r -> 1``: at
    r = 20 its offset from cos(pi/8) is below an ulp, and it stays there at
    every larger r, where e^{2r} and e^{6r} would overflow."""
    for kind in CLOSED_FORM_KINDS:
        s = 1.5 if "squeezed" in kind else None
        for r in (20.0, 100.0, 700.0):
            assert abs(closed_form_delta(kind, r, s) - DELTA2_OPT) <= math.ulp(DELTA2_OPT), (kind, r)


def test_closed_forms_are_the_optimizers_delta_star_at_large_r():
    """Past r of about 88.6 the earlier mu4 forms returned 1/sqrt(2); the
    optimizer's Delta* is cos(pi/8) to the last bit there."""
    cells = [
        ("mu4_x", CoherentInput(1.0), lambda r: closed_form_delta("mu4_x_coherent", r)),
        ("mu4_x", FockInput(1), lambda r: closed_form_delta("mu4_x_fock1", r)),
        ("mu4_p", SqueezedVacuumInput(0.5), lambda r: closed_form_delta("mu4_p_squeezed", r, 0.5)),
    ]
    for kind, state, form in cells:
        for r in (100.0, 200.0, 300.0):
            rec = minimize_delta(Objective(kind=kind, r=r, input=state))
            assert rec.delta_star == form(r), (kind, state, r)


def test_fidelity_fock1_form_at_r0_is_the_optimizers_delta_star():
    """At r = 0 the form's t* is atan2(1, 0) = pi/2; the earlier form divided by
    (e^{2r} - 1)^2 there."""
    rec = minimize_delta(Objective(kind="one_minus_fidelity", r=0.0, input=FockInput(1)))
    assert closed_form_delta("fidelity_fock1", 0.0) == rec.delta_star == 0.7071067811865476


@pytest.mark.parametrize("r", [150.0, 700.0, -400.0])
def test_closed_forms_are_finite_where_exponentials_overflow(r):
    for kind in CLOSED_FORM_KINDS:
        value = closed_form_delta(kind, r, 2.0 if "squeezed" in kind else None)
        assert math.isfinite(value) and 0.0 < value < 1.0, (kind, r)


@pytest.mark.parametrize("r, s", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (1.0, math.nan),
                                  (1.0, math.inf)])
def test_closed_forms_reject_a_non_finite_r_or_s(r, s):
    for kind in CLOSED_FORM_KINDS:
        with pytest.raises(InvalidArgumentError, match="finite"):
            closed_form_delta(kind, r, s)


def test_closed_form_coherent_limit_value():
    # r -> infinity limit is cos(arctan(1)/2) = cos(pi/8)
    assert closed_form_delta("fidelity_coherent", 20.0) == pytest.approx(
        math.cos(math.pi / 8.0), abs=1e-6
    )


def test_squeezed_form_reduces_to_coherent_at_s0():
    for r in (0.5, 1.0, 2.0):
        assert closed_form_delta("mu4_x_squeezed", r, 0.0) == pytest.approx(
            closed_form_delta("mu4_x_coherent", r), abs=1e-12
        )
        assert closed_form_delta("mu4_p_squeezed", r, 0.0) == pytest.approx(
            closed_form_delta("mu4_x_coherent", r), abs=1e-12
        )


def test_squeezed_forms_are_the_coherent_form_at_shifted_r():
    """The input squeezing s shifts the coherent mu4 optimum's r: to r - s for x,
    to r + s for p.  Held against the two-variable form of the x optimum."""
    def mu4_x_squeezed(r, s):
        e2r, e2s = math.exp(2.0 * r), math.exp(2.0 * s)
        num = (e2r + 3.0 * e2s) ** 2
        den = math.sqrt(num * (2.0 * e2r**2 + 13.0 * e2s**2 + 10.0 * e2r * e2s))
        return math.sqrt(1.0 + num / den) / math.sqrt(2.0)

    for r in np.linspace(0.25, 3.0, 5):
        for s in np.linspace(-1.0, 1.5, 5):
            r, s = float(r), float(s)
            coherent_x = closed_form_delta("mu4_x_coherent", r - s)
            assert closed_form_delta("mu4_x_squeezed", r, s) == pytest.approx(coherent_x, abs=1e-15)
            assert mu4_x_squeezed(r, s) == pytest.approx(coherent_x, abs=1e-15)
            assert closed_form_delta("mu4_p_squeezed", r, s) == pytest.approx(
                closed_form_delta("mu4_x_coherent", r + s), abs=1e-15
            )


def test_closed_forms_stay_in_unit_interval():
    for kind in CLOSED_FORM_KINDS:
        for r in np.linspace(0.1, 30.0, 12):
            for s in (0.0, 1.5, 3.0):
                val = closed_form_delta(kind, float(r), s if "squeezed" in kind else None)
                assert 0.0 <= val <= 1.0


def test_closed_form_requires_s_for_squeezed_kinds():
    with pytest.raises(InvalidArgumentError):
        closed_form_delta("mu4_x_squeezed", 1.0)
    with pytest.raises(InvalidArgumentError):
        closed_form_delta("nonsense", 1.0)


def test_numeric_fidelity_matches_closed_form():
    for r in (0.5, 1.0, 2.5):
        rec = minimize_delta(
            Objective(kind="one_minus_fidelity", r=r, input=CoherentInput(2.12928))
        )
        assert abs(rec.delta_star - closed_form_delta("fidelity_coherent", r)) <= 1e-9


def test_numeric_fidelity_fock1_matches_closed_form():
    for r in (0.5, 1.0, 2.5):
        rec = minimize_delta(Objective(kind="one_minus_fidelity", r=r, input=FockInput(1)))
        assert abs(rec.delta_star - closed_form_delta("fidelity_fock1", r)) <= 1e-9


def test_numeric_mu4_matches_closed_forms():
    for r in (0.75, 1.5):
        rec = minimize_delta(Objective(kind="mu4_x", r=r, input=CoherentInput(1.0)))
        assert abs(rec.delta_star - closed_form_delta("mu4_x_coherent", r)) <= 1e-9
        rec = minimize_delta(Objective(kind="mu4_x", r=r, input=FockInput(1)))
        assert abs(rec.delta_star - closed_form_delta("mu4_x_fock1", r)) <= 1e-9
        rec = minimize_delta(Objective(kind="mu4_x", r=r, input=SqueezedVacuumInput(0.8)))
        assert abs(rec.delta_star - closed_form_delta("mu4_x_squeezed", r, 0.8)) <= 1e-9
        rec = minimize_delta(Objective(kind="mu4_p", r=r, input=SqueezedVacuumInput(0.8)))
        assert abs(rec.delta_star - closed_form_delta("mu4_p_squeezed", r, 0.8)) <= 1e-9


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_shape_and_order():
    recs = sweep_r(["x2_transfer", "kappa4_transfer"], [0.5, 1.0, 2.0])
    assert [(rec.kind, rec.r) for rec in recs] == [
        ("x2_transfer", 0.5), ("x2_transfer", 1.0), ("x2_transfer", 2.0),
        ("kappa4_transfer", 0.5), ("kappa4_transfer", 1.0), ("kappa4_transfer", 2.0),
    ]
    x2_stars = [rec.delta_star for rec in recs[:3]]
    assert max(x2_stars) - min(x2_stars) <= 1e-4


def test_sweep_records_failures_and_continues():
    recs = sweep_r(["one_minus_fidelity", "x2_transfer"], [1.0])
    assert recs[0].error is not None and math.isnan(recs[0].delta_star)
    assert recs[1].error is None and abs(recs[1].delta_star - DELTA2_OPT) <= 1e-4


@pytest.mark.parametrize(
    "fault, recorded", [(ConsistencyError("bad fit"), True), (ZeroDivisionError("bug"), False)]
)
def test_sweep_records_only_package_errors(monkeypatch, fault, recorded):
    def failing(kind, *parts):
        raise fault

    monkeypatch.setattr(opt_mod, "_forms", failing)
    if recorded:
        (rec,) = sweep_r(["x2_transfer"], [1.0])
        assert rec.error == f"{type(fault).__name__}: {fault}" and math.isnan(rec.delta_star)
    else:
        with pytest.raises(type(fault)):
            sweep_r(["x2_transfer"], [1.0])


SWEEP_INPUTS = (
    "fock:0", "fock:1", "mix:0@0.5,1@0.5", "coherent:2.12928", "sqvac:1.5", "coherent:1"
)


def _per_cell(kind, r, **cell):
    """The record minimize_delta gives the cell, or the one sweep_r records for its error."""
    try:
        return minimize_delta(Objective(kind=kind, r=r, **cell))
    except CVTeleportError as exc:
        return OptimumRecord(float("nan"), float("nan"), r, kind, f"{type(exc).__name__}: {exc}")


@pytest.mark.parametrize("text", SWEEP_INPUTS)
def test_sweep_equals_per_cell_minimize_delta(text):
    """A cell's record does not depend on the cells solved with it: the sweep's
    stacked solve gives every cell minimize_delta's one-cell record, bit for bit;
    error cells (r = 800 overflows cosh, frobenius on coherent:1 at r = 10 is flat
    to rounding, None is not a kind) keep their place and message, and each place
    of a repeated r, whose build the sweep shares, gets the one-cell record."""
    state = parse_state(text)
    r_grid = [0.25, 800.0, 1.0, 10.0, 2.5, 1.0]
    kinds = OBJECTIVE_KINDS[:3] + (None,) + OBJECTIVE_KINDS[3:]
    errors = 0
    for theta in (0.0, 0.3, math.pi / 2, -math.pi / 2, math.pi):
        for gain in (1.0, 0.8):
            records = sweep_r(kinds, r_grid, input=state, theta=theta, gain=gain)
            cells = [(kind, r) for kind in kinds for r in r_grid]
            assert len(records) == len(cells)
            for rec, (kind, r) in zip(records, cells):
                expected = _per_cell(kind, r, theta=theta, input=state, gain=gain)
                errors += expected.error is not None
                assert repr(rec) == repr(expected)  # NaN-safe and bitwise
            if text == "coherent:1" and theta == 0.0 and gain == 1.0:
                rec = records[cells.index(("frobenius", 10.0))]
                assert rec.error.startswith("AccuracyError")
    assert errors >= 5 * 2 * len(OBJECTIVE_KINDS)  # the r = 800 column at least


def test_sweep_records_kinds_that_are_not_names():
    """A kind that is not an objective name, hashable or not, fails in its own
    cells; every other cell gets minimize_delta's record."""
    state = FockInput(1)
    kinds = ["x2_transfer", None, "one_minus_fidelity", ["x2_transfer"], "mu4_x"]
    r_grid = [0.5, 1.0]
    records = sweep_r(kinds, r_grid, input=state)
    assert len(records) == len(kinds) * len(r_grid)
    for rec, (kind, r) in zip(records, [(kind, r) for kind in kinds for r in r_grid]):
        if isinstance(kind, str):
            assert repr(rec) == repr(_per_cell(kind, r, input=state))
        else:
            assert (rec.kind, rec.r) == (kind, r) and math.isnan(rec.delta_star)
            assert rec.error == f"InvalidArgumentError: unknown objective kind {kind!r}"


@pytest.mark.parametrize("gain", [1.0, 1.3])
def test_sweep_keeps_each_cells_error_precedence(gain):
    """On sqvac:360 the input's moments overflow, and r = -1 and r = 800 fail too:
    a cell reports its kind's error first, then its r's, then the moments', then
    its family's, in the stacked solve as in the one-cell one."""
    state = parse_state("sqvac:360")
    r_grid = [-1.0, 0.5, 800.0, 1e-300]
    records = sweep_r(OBJECTIVE_KINDS, r_grid, input=state, gain=gain)
    cells = [(kind, r) for kind in OBJECTIVE_KINDS for r in r_grid]
    for rec, (kind, r) in zip(records, cells):
        assert repr(rec) == repr(_per_cell(kind, r, input=state, gain=gain))
    error = {cell: rec.error for cell, rec in zip(cells, records)}
    for kind in OBJECTIVE_KINDS:
        assert error[kind, -1.0].startswith("InvalidArgumentError: two-mode squeezing r must be")
        assert error[kind, 800.0].startswith("InvalidArgumentError: two-mode squeezing r=800.0")
    for kind in ("mu4_x", "mu4_p"):
        assert error[kind, 0.5].startswith("EvaluationError: the moments of SqueezedVacuumInput")
    assert error["x2_transfer", 0.5] is None
    # Without an input the kind's own error comes first, also at r = -1.
    (rec,) = sweep_r(["mu4_x"], [-1.0])
    assert rec.error == "InvalidArgumentError: objective 'mu4_x' requires an input state"


def test_minimize_delta_and_sweep_r_run_the_one_solve(monkeypatch):
    calls = []
    solve = opt_mod._solve

    def counting(kinds, r_grid, *shared):
        calls.append((list(kinds), list(r_grid)))
        return solve(kinds, r_grid, *shared)

    monkeypatch.setattr(opt_mod, "_solve", counting)
    minimize_delta(Objective(kind="x2_transfer", r=1.0))
    sweep_r(["x2_transfer", "n_transfer"], [0.5, 1])
    assert calls == [(["x2_transfer"], [1.0]), (["x2_transfer", "n_transfer"], [0.5, 1.0])]


def test_iterations_is_read_off_the_error():
    """One objective evaluation per solved cell, none for a failed one; not a stored field."""
    assert "iterations" not in {field.name for field in dataclasses.fields(OptimumRecord)}
    solved, failed = sweep_r(["x2_transfer", "one_minus_fidelity"], [1.0])
    assert (solved.error, solved.iterations) == (None, 1)
    assert failed.error.startswith("InvalidArgumentError") and failed.iterations == 0


def test_sweep_reads_the_input_moments_once(monkeypatch):
    calls = []

    def counting(state):
        calls.append(state)
        return moment_set(state)

    monkeypatch.setattr(opt_mod, "moment_set", counting)
    records = sweep_r(["mu4_x", "mu4_p", "x2_transfer"], [0.5, 1.0, 2.0], input=FockInput(1))
    assert all(rec.error is None for rec in records)
    assert calls == [FockInput(1)]


def test_sweep_columns_are_sweep_r_as_float64_columns():
    """Delta* and the value as float64 columns, kind-major, NaN at a failed
    cell, and each cell's error text: the fields of sweep_r's records."""
    kinds = ["x2_transfer", "one_minus_fidelity", "mu4_x"]
    r_grid = [0.5, -1.0, 711.0, 2.0]
    stars, values, errors = sweep_columns(kinds, r_grid, input=FockInput(1), gain=1.3)
    records = sweep_r(kinds, r_grid, input=FockInput(1), gain=1.3)
    assert stars.dtype == values.dtype == np.float64
    assert stars.shape == values.shape == (len(records),)
    assert errors == [rec.error for rec in records]
    assert stars.tobytes() == np.array([rec.delta_star for rec in records]).tobytes()
    assert values.tobytes() == np.array([rec.objective_value for rec in records]).tobytes()
    failed = np.array([error is not None for error in errors])
    assert failed.sum() == 6 and np.isnan(stars[failed]).all() and np.isnan(values[failed]).all()
    assert np.isfinite(stars[~failed]).all() and np.isfinite(values[~failed]).all()


def test_one_solve_builds_each_distinct_r_once(monkeypatch):
    """One transfer table per solve, over the distinct r of the grid in grid
    order: one channel per distinct r, a repeated r and -0.0 beside 0.0
    sharing one build, and no per-r derivative forms.  Each row keeps its
    own r."""
    tables, channels = [], []

    def counting_table(rs, theta, gain):
        tables.append(list(rs))
        return transfer_table(rs, theta, gain)

    def counting_coefficients(ch):
        channels.append(ch.resource.r)
        return transfer_coefficients(ch)

    def per_r(*args, **kwargs):
        raise AssertionError("the sweep builds no per-r derivative forms")

    transfer_table = opt_mod._transfer_table
    monkeypatch.setattr(opt_mod, "_transfer_table", counting_table)
    monkeypatch.setattr(opt_mod, "transfer_coefficients", counting_coefficients)
    monkeypatch.setattr(moments_mod, "transfer_derivative_forms", per_r)
    kinds = ["x2_transfer", "kappa4_transfer", "n_transfer", "mu4_x", "mu4_p"]
    r_grid = [0.5, 1.0, 0.5, -0.0, 2.0, 0.0, 1.0]
    records = sweep_r(kinds, r_grid, input=FockInput(1))
    assert all(rec.error is None for rec in records)
    assert tables == [[0.5, 1.0, -0.0, 2.0]] and channels == [0.5, 1.0, -0.0, 2.0]
    assert math.copysign(1.0, tables[0][2]) == -1.0  # the first spelling of 0 is built
    for k in range(len(kinds)):
        rows = records[k * len(r_grid):(k + 1) * len(r_grid)]
        signs = [math.copysign(1.0, r) for r in r_grid]
        assert [math.copysign(1.0, rec.r) for rec in rows] == signs
        assert rows[2] == dataclasses.replace(rows[0], r=0.5)
        assert rows[5] == dataclasses.replace(rows[3], r=0.0)


# 0.0 beside -0.0 and repeated values; x2's forms subnormal unscaled past 354 and
# kappa4's past 177; cosh overflowing past about 710; r outside [0, inf).
_TABLE_GRIDS = (
    [0.0, -0.0, 0.5, 0.5, 1.25, -0.0],
    [-0.0, 0.0, 177.0, 354.0, 355.0, 709.0],
    [-1.0, 0.25, 711.0, 2.5, 800.0, 711.0],
    [3.0, 3.0, 3.0],
    np.linspace(0.0, 20.0, 41).tolist(),
    [5e-324, 1e-300, 19.0, 20.0, 188.0, 400.0, 710.0, math.inf, math.nan],
)


@pytest.mark.parametrize("gain", [0.7, 1.0, 1.3, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.4])
@pytest.mark.parametrize("r_grid", _TABLE_GRIDS)
def test_transfer_table_is_the_per_r_oracle_bit_for_bit(r_grid, theta, gain):
    """Each distinct r's rows and scale of the one-pass table are the per-r
    oracle's, bit for bit, and each failed r has its channel's error."""
    assert transfer_table_mismatches(r_grid, theta, gain) == []


@pytest.mark.parametrize("theta, gain", [(math.nan, 1.0), (0.4, 0.0), (0.4, -1.0), (0.4, math.inf)])
def test_transfer_table_keeps_a_bad_theta_or_gain_per_r(theta, gain):
    """A bad theta or gain fails every r, after a bad r's own error."""
    assert transfer_table_mismatches([-1.0, 0.5, 711.0, 2.5], theta, gain) == []


@pytest.mark.parametrize("gain", [0.7, 1.0, 1.3, 2.0])
def test_failed_r_cells_keep_their_error_type_and_text(gain):
    """A sweep over failing and valid r records each cell as minimize_delta
    gives it alone: the error of a failed r, type and text, and the record of
    a valid one."""
    kinds = ["x2_transfer", "kappa4_transfer", "n_transfer", "mu4_x", "mu4_p"]
    r_grid = [-1.0, 0.5, 711.0, 2.5, 800.0, -1.0]
    records = sweep_r(kinds, r_grid, input=FockInput(1), theta=0.4, gain=gain)
    cells = [(kind, r) for kind in kinds for r in r_grid]
    for (kind, r), rec in zip(cells, records):
        want = _per_cell(kind, r, input=FockInput(1), theta=0.4, gain=gain)
        assert (rec.kind, rec.r, rec.error) == (want.kind, want.r, want.error)
        assert rec.error is not None or rec == want
    assert sum(rec.error is None for rec in records) == 2 * len(kinds)
    assert records[0].error == (
        "InvalidArgumentError: two-mode squeezing r must be finite and >= 0, got -1.0"
    )
    assert records[2].error == (
        "InvalidArgumentError: two-mode squeezing r=711.0 overflows cosh/sinh"
    )


def test_sweep_builds_one_family_per_r(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return delta_family(*args, **kwargs)

    monkeypatch.setattr(opt_mod, "delta_family", counting)
    state = CoherentInput(2.12928)
    r_grid = [0.25, 1.0, 2.0, 2.5]
    records = sweep_r(["d_functional", "one_minus_fidelity", "frobenius"], r_grid, input=state)
    assert all(rec.error is None for rec in records)
    assert calls == [((state, r, 0.0, 1.0, 24), {}) for r in r_grid]


def test_forms_and_rounding_terms_are_built_once_and_compare_builds_no_terms(monkeypatch):
    """A sweep over the three family kinds builds each family's forms once per
    distinct r, and each kind the rounding terms of its own form once per
    family; its check pass builds no forms.  compare's measure_columns reads
    the forms and calls no rounding_terms."""
    calls, terms_calls, built = [], [], []
    quadratic_forms, rounding_terms = DeltaFamily.quadratic_forms, DeltaFamily.rounding_terms

    def counting(family):
        calls.append(family.r)
        return quadratic_forms(family)

    def counting_terms(family, i):
        terms_calls.append((family.r, i))
        built.append((family, i, rounding_terms(family, i)))
        return built[-1][2]

    monkeypatch.setattr(DeltaFamily, "quadratic_forms", counting)
    monkeypatch.setattr(DeltaFamily, "rounding_terms", counting_terms)
    kinds = ["d_functional", "one_minus_fidelity", "frobenius"]
    for state in (CoherentInput(2.12928), SqueezedVacuumInput(1.5), FockInput(1)):
        for log in (calls, terms_calls, built):
            log.clear()
        records = sweep_r(kinds, [0.5, 1.25, 0.5, 2.5, 1.25], input=state)
        assert all(rec.error is None for rec in records)
        assert calls == [0.5, 1.25, 2.5]
        assert terms_calls == [(r, i) for i in (1, 2, 3) for r in (0.5, 1.25, 2.5)]
    calls.clear()
    terms_calls.clear()
    family = delta_family(FockInput(1), 1.25)
    family.measure_columns([0.75, 0.9, 1.0])
    family.measures(0.9)
    assert calls == [1.25] and terms_calls == [] and not hasattr(family, "terms")
    for swept, i, terms in built:  # the terms a sweep read are the family's own, bit for bit
        again = delta_family(swept.state, swept.r)
        assert (again.forms == swept.forms).all()
        assert (rounding_terms(again, i) == terms).all()


def test_a_cell_whose_optimum_fails_a_check_records_compares_error(monkeypatch):
    """The cells of one family are checked in one pass, each at its winner's
    weight row: a cell whose Delta* fails a check records the ConsistencyError
    that compare's measure_columns raises at that Delta alone, and the other
    cells of the pass are solved as if unchecked."""
    def broken(*args, **kwargs):  # a photon basis that overshoots near Delta = 1
        family = delta_family(*args, **kwargs)
        basis = family.photon_basis.copy()
        basis[:, 0] *= 1.05
        return dataclasses.replace(family, photon_basis=basis)

    monkeypatch.setattr(opt_mod, "delta_family", broken)
    kinds, r_grid = ["d_functional", "one_minus_fidelity", "frobenius"], [0.5, 2.5]
    state = SqueezedVacuumInput(1.5)
    records = sweep_r(kinds, r_grid, input=state)
    monkeypatch.setattr(DeltaFamily, "failed_checks", lambda family, w: {})
    unchecked = sweep_r(kinds, r_grid, input=state)
    outcomes = {}
    for rec, free in zip(records, unchecked):
        try:
            broken(state, free.r, 0.0, 1.0, 24).measure_columns([free.delta_star])
        except ConsistencyError as exc:
            assert rec.error == f"ConsistencyError: {exc}" and math.isnan(rec.delta_star)
        else:
            assert rec == free and rec.error is None
        outcomes.setdefault(rec.r, set()).add(rec.error is None)
    assert outcomes[0.5] == {True, False}  # one check pass, some cells failed


def test_sweep_validates_grids():
    with pytest.raises(InvalidArgumentError):
        sweep_r([], [1.0])
    with pytest.raises(InvalidArgumentError):
        sweep_r(["x2_transfer"], [])


def test_fidelity_and_dn_optima_approach_each_other():
    """With growing r the D_N and fidelity optima close in on each other."""
    state = FockInput(0)
    gaps = []
    for r in (0.75, 2.5):
        rec_d = minimize_delta(Objective(kind="d_functional", r=r, input=state))
        rec_f = minimize_delta(Objective(kind="one_minus_fidelity", r=r, input=state))
        gaps.append(abs(rec_d.delta_star - rec_f.delta_star))
    assert gaps[1] < gaps[0]


def test_coherent_input_optima_near_coincide():
    """The coherent-input D_N and fidelity optima track each other in Delta.

    The continuous optima genuinely differ by up to ~4e-3 at r = 0.75 and
    the gap shrinks monotonically with r (coincidence is exact only at grid
    resolution; the acceptance suite checks the grid-level statement).
    """
    coh = CoherentInput(2.12928)
    gaps = []
    for r in (0.75, 1.0, 1.25, 2.5):
        rec_d = minimize_delta(Objective(kind="d_functional", r=r, input=coh))
        rec_f = minimize_delta(Objective(kind="one_minus_fidelity", r=r, input=coh))
        gaps.append(abs(rec_d.delta_star - rec_f.delta_star))
    assert all(g <= 5e-3 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 2e-3


def test_squeezed_input_converges_slowest():
    """At r = 2.5 the squeezed-input D_N optimum is still far from Delta2opt."""
    rec_sq = minimize_delta(
        Objective(kind="d_functional", r=2.5, input=SqueezedVacuumInput(1.5))
    )
    rec_coh = minimize_delta(
        Objective(kind="d_functional", r=2.5, input=CoherentInput(2.12928))
    )
    assert abs(rec_sq.delta_star - DELTA2_OPT) > 5.0 * abs(rec_coh.delta_star - DELTA2_OPT)


@pytest.mark.parametrize("text", ["fock:1", "coherent:1", "sqvac:1.5", "mix:0@0.5,1@0.5"])
def test_photon_statistics_optimum_tends_to_delta2_optimum(text):
    """The paper's claim: as r grows, the D_N optimum rises to Delta_(2)^opt = cos(pi/8)."""
    state = parse_state(text)
    stars = [
        minimize_delta(Objective(kind="d_functional", r=r, input=state)).delta_star
        for r in (1.0, 2.0, 3.0, 4.0)
    ]
    assert all(lo < hi for lo, hi in zip(stars, stars[1:])), stars
    assert abs(stars[-1] - math.cos(math.pi / 8.0)) < 1e-3, stars


FOCK_DIAGONAL = ("fock:0", "fock:1", "fock:2", "mix:0@0.5,1@0.5", "mix:0@0.3,2@0.7", "mix:1@0.6,3@0.4")


@pytest.mark.parametrize("text", FOCK_DIAGONAL)
def test_fock_diagonal_photon_and_frobenius_optima_coincide(text):
    """The paper's claim for Fock mixtures: for a Fock-diagonal input the output is
    Fock-diagonal, so D_N and the Frobenius distance differ only by the photon
    mass beyond N, and their optimal Deltas agree."""
    state = parse_state(text)
    for r in (0.5, 1.0, 2.0, 3.0):
        for gain in (1.0, 0.8):
            d_n, frob = (
                minimize_delta(Objective(kind=kind, r=r, input=state, gain=gain)).delta_star
                for kind in ("d_functional", "frobenius")
            )
            assert abs(d_n - frob) <= 1e-9, (r, gain, d_n, frob)
