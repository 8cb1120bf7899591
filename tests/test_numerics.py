import math

import numpy as np
import pytest

from cvteleport import (
    AccuracyError,
    CapacityError,
    Channel,
    InvalidArgumentError,
    SqueezedBellResource,
    state_cumulants,
    teleport,
)
from conftest import case_study_inputs, moderate_inputs
from oracles import (
    DiffConfig,
    PhasePoint,
    PlaneConfig,
    _eval_grid,
    derivative_at_origin,
    fock_charfn,
    input_charfn,
    integrate_plane,
    laguerre_envelope,
    laguerre_envelope_all,
    output_charfn,
    raw_from_cumulants,
    transfer_fn,
)


def laguerre_series(n, u):
    """Brute-force Laguerre sum: L_n(u) = sum_k (-1)^k C(n,k) u^k / k!."""
    return sum((-1) ** k * math.comb(n, k) * u**k / math.factorial(k) for k in range(n + 1))


def test_laguerre_against_series_oracle():
    for n in (0, 1, 2, 5, 9):
        for u in (0.0, 0.3, 0.7, 2.5, 6.0):
            want = math.exp(-0.5 * u) * laguerre_series(n, u)
            assert abs(laguerre_envelope(n, u) - want) <= 1e-12 * max(1, abs(want))


def test_laguerre_envelope_bounded_and_consistent():
    u = np.linspace(0.0, 400.0, 801)
    table = laguerre_envelope_all(40, u)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)
    mid = laguerre_envelope(7, 3.3)
    assert abs(mid - math.exp(-1.65) * laguerre_series(7, 3.3)) <= 1e-13


# ---------------------------------------------------------------------------
# integrate_plane (the plane-quadrature oracle)
# ---------------------------------------------------------------------------

def test_gaussian_integral_is_pi():
    val = integrate_plane(lambda p: np.exp(-p.abs_sq))
    assert abs(val - math.pi) <= 1e-10


def test_vacuum_self_overlap():
    vac = fock_charfn(0)
    val = integrate_plane(lambda p: vac.fn(p) * vac.fn(-p))
    assert abs(val / math.pi - 1.0) <= 1e-10


def test_fock_orthogonality():
    f1, f0 = fock_charfn(1), fock_charfn(0)
    val = integrate_plane(lambda p: f1.fn(p) * f0.fn(-p))
    assert abs(val) <= 1e-9


def test_non_decaying_integrand_rejected():
    with pytest.raises(InvalidArgumentError):
        integrate_plane(lambda p: 1.0 + 0.0j)
    with pytest.raises(InvalidArgumentError):
        integrate_plane(lambda p: np.exp(p.abs_sq / 100.0))


def test_truncation_estimate_raises_accuracy_error():
    cfg = PlaneConfig(target_abs_tol=1e-14)
    with pytest.raises(AccuracyError) as err:
        integrate_plane(lambda p: np.exp(-1e-3 * p.abs_sq), cfg)
    assert err.value.estimate is not None and err.value.estimate > 1e-14


def test_vectorized_closure_errors_reach_the_caller():
    def broken(p):
        if np.ndim(p.w):
            raise RuntimeError("broken grid evaluation")
        return np.exp(-p.abs_sq)

    with pytest.raises(RuntimeError, match="broken grid evaluation"):
        integrate_plane(broken)


def test_scalar_closure_result_is_broadcast():
    W, Z = np.zeros((3, 4)), np.ones((3, 4))
    vals = _eval_grid(lambda p: 2.0, W, Z)
    assert vals.shape == (3, 4) and np.all(vals == 2.0)


def test_explicit_cutoff_radius():
    cfg = PlaneConfig(cutoff_radius=7.0)
    val = integrate_plane(lambda p: np.exp(-p.abs_sq), cfg)
    assert abs(val - math.pi) <= 1e-10


def test_quadrature_convergence_on_case_study_integrands():
    """Doubling radial nodes moves the case-study integrands by < 1e-9."""
    ch = Channel(SqueezedBellResource(delta=0.9, theta=0.0, r=0.75))
    fock10 = fock_charfn(10)
    for state in case_study_inputs():
        chi_out = output_charfn(teleport(state, ch))

        def integrand(p):
            return chi_out.fn(p) * fock10.fn(-p)

        a = integrate_plane(integrand, PlaneConfig(radial_nodes=192, angular_nodes=256))
        b = integrate_plane(integrand, PlaneConfig(radial_nodes=384, angular_nodes=256))
        assert abs(a - b) <= 1e-9


# ---------------------------------------------------------------------------
# derivative_at_origin (the finite-difference oracle)
# ---------------------------------------------------------------------------

def test_gaussian_second_derivative():
    val = derivative_at_origin(lambda p: np.exp(-0.5 * p.abs_sq), 0, 2)
    assert abs(val - (-1.0)) <= 1e-8


def test_transfer_second_derivative_tmsv():
    # tau = exp(-(w^2 + z^2) e^{-2r}) at Delta=1; d2/dz2 at 0 = -2 e^{-2r}.
    r = 1.25
    tau = transfer_fn(Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r)))
    val = derivative_at_origin(tau.fn, 0, 2)
    assert abs(val - (-2.0 * math.exp(-2.0 * r))) <= 1e-7


@pytest.mark.parametrize("delta,r", [(0.3, 0.6), (0.9, 1.25), (1.0, 2.0)])
def test_transfer_first_derivatives_vanish(delta, r):
    tau = transfer_fn(Channel(SqueezedBellResource(delta=delta, theta=0.0, r=r)))
    assert abs(derivative_at_origin(tau.fn, 1, 0)) <= 1e-8
    assert abs(derivative_at_origin(tau.fn, 0, 1)) <= 1e-8


def test_parity_exactness():
    f = lambda p: np.exp(-0.7 * p.abs_sq) * (1.0 + 0.2 * p.abs_sq)
    for nw, nz in [(1, 0), (3, 0), (1, 2), (0, 5)]:
        assert abs(derivative_at_origin(f, nw, nz)) <= 1e-10


def test_order_cap():
    with pytest.raises(CapacityError):
        derivative_at_origin(lambda p: np.exp(-p.abs_sq), 4, 3)


def test_fd_matches_closed_form_tables_through_order_four():
    """FD oracle vs the raw moments of the exact per-state cumulant tables, orders <= 4."""
    for state in moderate_inputs():
        f = input_charfn(state)
        tab = raw_from_cumulants(state_cumulants(state))
        for (n, m) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
                       (4, 0), (2, 2), (0, 4)]:
            want = complex(1j ** (n + m) * tab[(n, m)])
            got = derivative_at_origin(f.fn, nw=m, nz=n)
            assert abs(got - want) <= 1e-6, (state, n, m, got, want)


def test_diffconfig_validation():
    with pytest.raises(InvalidArgumentError):
        DiffConfig(step=0.0)
    with pytest.raises(InvalidArgumentError):
        DiffConfig(richardson_levels=0)
    with pytest.raises(InvalidArgumentError):
        PlaneConfig(angular_nodes=4)
    with pytest.raises(InvalidArgumentError):
        PlaneConfig(target_abs_tol=0.0)


def test_derivative_levels_configurable():
    cfg = DiffConfig(step=1e-3, richardson_levels=4)
    val = derivative_at_origin(lambda p: np.exp(-0.5 * p.abs_sq), 0, 2, cfg)
    assert abs(val - (-1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# vectorized probes, the Laguerre recurrence, and the Gauss-Laguerre and Legendre oracle rules
# ---------------------------------------------------------------------------

from oracles import (  # noqa: E402
    _EIGHT_RAYS,
    _PROBE_RADII,
    _anisotropy_scale,
    _max_profile,
    envelope_cutoff,
    envelope_tail,
    gauss_laguerre_rule,
    laguerre_envelope_series,
    radial_rule,
)


def _scalar_profile(f, directions, radii):
    """The probe profile as one scalar closure call per point builds it."""
    return [
        max(max(abs(complex(f(PhasePoint(r * c, r * s)))) for c, s in directions), 1e-300)
        for r in radii
    ]


@pytest.mark.parametrize("state", case_study_inputs())
def test_probe_profile_on_arrays_equals_scalar_probing(state):
    chi = input_charfn(state)
    out = teleport(state, Channel(SqueezedBellResource(delta=0.8, theta=0.4, r=1.1), gain=0.9))
    for f in (chi.fn, output_charfn(out).fn):
        got = _max_profile(f, _EIGHT_RAYS, _PROBE_RADII)
        want = _scalar_profile(f, _EIGHT_RAYS, _PROBE_RADII)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_probe_profile_broadcasts_scalar_closures():
    assert _max_profile(lambda p: 0.5, _EIGHT_RAYS, _PROBE_RADII) == [0.5] * len(_PROBE_RADII)
    assert _max_profile(lambda p: 0.0, _EIGHT_RAYS, _PROBE_RADII) == [1e-300] * len(_PROBE_RADII)


@pytest.mark.parametrize("fast", [10.0, 548.5, 2.0e4, 1.0e6])
def test_anisotropy_probe_measures_axes_that_underflow_in_its_span(fast):
    # exp(-548.5 w^2) is already below 1e-250 at the second probe radius;
    # floored samples only bound the rate from below and must not enter.
    slow = 0.2236
    lam = _anisotropy_scale(lambda p: np.exp(-fast * p.w * p.w - slow * p.z * p.z))
    assert lam == pytest.approx(min((fast / slow) ** 0.25, 32.0), rel=1e-9)


def test_laguerre_series_is_the_weighted_envelope_stack(rng):
    u = np.linspace(0.0, 300.0, 257)
    weights = rng.uniform(0.0, 1.0, 41)
    weights[::3] = 0.0
    want = weights @ laguerre_envelope_all(40, u)
    assert np.abs(laguerre_envelope_series(weights, u) - want).max() <= 1e-15 * weights.sum()
    table = laguerre_envelope_all(40, u)
    for n in (0, 1, 7, 40):
        assert np.array_equal(table[n], laguerre_envelope(n, u))


@pytest.mark.parametrize("k,c", [(0, 0.5), (3, 0.7), (8, 1.3)])
def test_radial_rule_integrates_gaussian_moments(k, c):
    u, wt = radial_rule(192, 40.0 / c + 20.0)
    want = math.gamma(k + 1) / c ** (k + 1)  # the tail past U is below 1e-15 here
    assert abs(np.sum(wt * u**k * np.exp(-c * u)) - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "rate,factors",
    [(0.5, ((1.0, 24),)), (0.6, ((0.13, 1), (0.13, 1), (1.0, 24))), (2.0, ((4.0, 10), (1.0, 3)))],
)
def test_envelope_tail_bounds_the_envelope_integral(rate, factors):
    def envelope(u):
        return np.exp(-rate * u + sum(d * np.log1p(s * u) for s, d in factors))

    cutoff = envelope_cutoff(rate, factors)
    assert envelope_tail(rate, factors, cutoff) <= math.exp(-36.85) * (1.0 + 1e-12)
    # The bisection is tight: a 1% smaller cutoff misses the target.
    assert envelope_tail(rate, factors, 0.99 * cutoff) > math.exp(-36.85)
    for U in (0.7 * cutoff, cutoff, 1.5 * cutoff):
        x, w = np.polynomial.legendre.leggauss(400)
        hi = U + 200.0 / rate
        tail = np.sum(0.5 * (hi - U) * w * envelope(U + 0.5 * (hi - U) * (x + 1.0)))
        assert envelope_tail(rate, factors, U) >= tail
    # Before the envelope's peak no finite bound exists.
    assert envelope_tail(rate, factors, 1e-3) == math.inf


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 30, 133])
@pytest.mark.parametrize("c", [0.52, 1.7, 40.0])
def test_gauss_laguerre_rule_is_exact_to_its_degree(degree, c):
    # u^degree exp(-c u) integrates to degree! / c^(degree + 1).
    u, wt = gauss_laguerre_rule(degree, c)
    assert len(u) == degree // 2 + 1
    want = math.lgamma(degree + 1.0) - (degree + 1.0) * math.log(c)
    got = np.sum(wt * np.exp(degree * np.log(u) - c * u))
    assert abs(got / math.exp(want) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the Taylor-series arithmetic of the Delta families
# ---------------------------------------------------------------------------

from cvteleport.numerics import _pgf_taylor  # noqa: E402


@pytest.mark.parametrize(
    "p", [[1.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.4]]
)
def test_pgf_taylor_is_the_shifted_generating_function(p):
    """``P_i(beta) = [y^i] sum_m p_m (beta + y)^m`` at a number, and at a series
    against the coefficients of the composed polynomial."""
    p = np.array(p)
    pgf = np.polynomial.Polynomial(p)
    shifted = pgf(np.polynomial.Polynomial([0.37, 1.0])).coef
    got = _pgf_taylor(np.array([0.37]), p, len(p) - 1)[:, 0]
    assert np.abs(got - shifted).max() <= 1e-15
    beta = np.array([0.2, 0.3, 0.1, 0.05, 0.0, 0.01])
    composed = [
        np.polynomial.polynomial.polyder(p, i) / math.factorial(i) for i in range(3)
    ]
    got = _pgf_taylor(beta, p, 2)
    for i, coef in enumerate(composed):
        want = np.polynomial.Polynomial(coef)(np.polynomial.Polynomial(beta)).coef
        want = np.append(want, np.zeros(len(beta)))[: len(beta)]
        assert np.abs(got[i] - want).max() <= 1e-15, i


from cvteleport.numerics import _pgf_table, _series_table  # noqa: E402
from cvteleport.photonstats import _gram_table  # noqa: E402
from cvteleport.states import N_MAX_FOCK  # noqa: E402


def _former_series_table(powers, N):
    """``-powers``, ``powers + (n - 1.0)`` and ``n`` as ``_power_series`` built them per call."""
    powers = np.asarray(powers)[:, None]
    n = np.arange(1, N + 1)
    return -powers, powers + (n - 1.0), n


def _former_pgf_table(order, M):
    """The binomial table and ``i + k`` as ``_pgf_taylor`` built them per call."""
    i, k = np.arange(order + 1)[:, None], np.arange(M + 1)
    return np.cumprod(np.vstack([np.ones(M + 1), (k + i[1:]) / i[1:]]), axis=0), i + k


def _former_gram_table(M):
    """The ratio table, ``q + k`` and ``2k`` as ``_fock_gram_moments`` built them per call."""
    q, k = np.arange(5)[:, None], np.arange(M + 1)
    return (q[1:] + k) / q[1:], q + k, 2.0 * k


_TABLES = [
    (_series_table, _former_series_table, shape)
    for shape in [
        ((0.5, 1.5, 2.5), 24), ((1, 2, 3), 0), ((1, 2, 3), 3), ((0.5, 1.5, 2.5), N_MAX_FOCK)
    ]
] + [
    (_pgf_table, _former_pgf_table, shape)
    for shape in [(0, 0), (2, 1), (2, 5), (1, 0), (7, 7), (N_MAX_FOCK, N_MAX_FOCK)]
] + [(_gram_table, _former_gram_table, (M,)) for M in (0, 1, 5, N_MAX_FOCK)]


@pytest.mark.parametrize("table,former,shape", _TABLES)
def test_shape_tables_are_built_once_read_only_and_equal_a_fresh_build(table, former, shape):
    """Each table of small integers is built once per shape, cannot be written,
    and holds the values its caller used to build on every call."""
    got = table(*shape)
    assert table(*shape) is got
    for cached, fresh in zip(got, former(*shape), strict=True):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[(0,) * cached.ndim] = 1.0
        assert cached.shape == fresh.shape and np.array_equal(cached, fresh)


def test_shape_tables_stop_at_n_max():
    for build in (
        lambda: _series_table((1, 2, 3), N_MAX_FOCK + 1),
        lambda: _pgf_table(2, N_MAX_FOCK + 1),
        lambda: _pgf_table(N_MAX_FOCK + 1, 0),
        lambda: _gram_table(N_MAX_FOCK + 1),
    ):
        with pytest.raises(CapacityError):
            build()
