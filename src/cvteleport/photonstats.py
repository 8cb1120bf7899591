"""Photon-number statistics of outputs, the D_N functional, and overlap measures.

Photon probabilities of an output state come from the phase-space trace
formula

``P_n = (1/pi) ∫ d^2 xi  chi_out(xi) chi_n(-xi)``

with ``chi_n`` the Fock-state characteristic function.  The tests hold
:func:`delta_family` against this 2-D integral, evaluated directly on a polar
grid in ``tests/oracles.py``.

Fidelity, purity, and the Frobenius distance are overlap integrals
``Tr(rho_f rho_g) = (1/pi) ∫ d^2 xi f(xi) g(-xi)``.

Delta decomposition.  The transfer function is
``tau = exp(-e u) sum_k w_k(Delta, theta) q_k(u)`` with three Delta-free
polynomials ``q_k`` (:func:`cvteleport.states.transfer_basis`) and weights
``w = (Delta^2, 2 Delta sqrt(1 - Delta^2) cos(theta), 1 - Delta^2)``.  So
every ``P_n`` and the fidelity are linear in ``w`` and the output purity is
the quadratic form ``w^T G w``.  :func:`delta_family` computes the
``(N+1) x 3`` photon basis, the three fidelity overlaps and the 3 x 3 Gram
matrix ``G`` once per (input, r, theta, gain, N); each Delta then costs O(N)
arithmetic, and a Delta grid is one array pass with a row per Delta
(:meth:`DeltaFamily.measure_columns`), whose digits at a Delta do not depend
on the grid.

Dephasing identity.  ``tau`` and the Fock factors depend on ``u = |xi|^2``
only, so the channel is phase covariant: with ``(1/pi) d^2 xi = du dphi /
2 pi`` the angle integral acts on ``chi_in(g xi)`` alone and gives
``A~(g^2 u)``, the characteristic function of the dephased input.  Hence

``photon_basis[n, k] = ∫_0^∞ du exp(-e u) q_k(u) L~_n(u) A~(g^2 u)``,

``L~_n(u) = exp(-u/2) L_n(u)``, for every input.

Coherent and squeezed inputs: Taylor coefficients.  With
``sum_n t^n L~_n(u) = exp(-u (1 + t) / (2 (1 - t))) / (1 - t)``,
``sum_n t^n photon_basis[n, k] = sum_j coef[k, j] M_j(t)``, where
``M_j(t) = (1 - t)^-1 ∫ du exp(-c(t) u) u^j A~(g^2 u)`` and
``c(t) = e + (1 + t) / (2 (1 - t))``.  The angle mean undone, ``M_j`` is a
Gaussian moment: a squeezed vacuum has ``|chi_in(g xi)| = exp(-g^2 (e^{2s}
w^2 + e^{-2s} z^2) / 2)``, so ``M_j`` is :func:`_gaussian_moments` at
``P, Q = A + (1 + t) / (2 (1 - t)) = alpha (1 + rho t) / (1 - t)`` with
``A = e + g^2 e^{+-2s} / 2``, ``alpha = A + 1/2`` and
``rho = (1/2 - A) / alpha``; ``|rho| < 1``.  A coherent state has the
modulus of the vacuum (``s = 0``) and the phase ``J0(2 g |beta| sqrt(u))``,
whose moment ``j! C^(-j-1) exp(-y) L_j(y)``, ``C = P = Q``,
``y = g^2 |beta|^2 / C``, adds the factor ``exp(-y(t)) L_j(y(t))``.  Every
factor is a binomial series ``(1 + rho t)^-a``, a polynomial ``(1 - t)^j``
or the exponential of a series, and products are convolutions
(:func:`_photon_series`): O(N^2) arithmetic whatever ``s`` or ``beta``,
with no quadrature, cutoff or photon sum, and exact up to rounding.
Because ``e >= (1 - g^2) / 2`` for every channel, a coherent input has
``rho <= 0``, so the series of ``exp(-y)`` has terms of one sign.

Fock states and mixtures: exact Gauss-Laguerre rules.
``A~(v) = sum_m p_m L~_m(v)`` is a finite sum up to the top photon number
``M`` (``max_n``), with ``p_m`` from
:func:`cvteleport.states.input_photon_probs`.  Here ``A~ = chi_in``, so also
``fidelity_basis[k] = ∫ tau_k A~(u) A~(g^2 u)`` and
``gram[j, k] = ∫ tau_j tau_k A~(g^2 u)^2``.  Every integrand is
``exp(-c u)`` times a polynomial in ``u`` (``q_k`` has degree 2): the photon
and fidelity integrands have ``c = e + (1 + g^2) / 2`` and degree
``max(N, M) + M + 2``, the Gram integrand ``c = 2 e + g^2`` and degree
``2 M + 4``.  So each takes a Gauss-Laguerre rule that is exact
(:func:`cvteleport.numerics.gauss_laguerre_rule`), with no cutoff, tail
bound or node heuristic.  ``M`` is bounded by ``N_MAX_FOCK`` like ``N``, so a
rule has at most 67 nodes.  Its nodes ``u = x / c`` keep every Laguerre
argument below about ``2 x_max`` (under 600 for ``M, N <= 64``): ``c`` is at
least ``(1 + g^2) / 2`` on the first rule and above ``g^2`` on the second,
because ``a^2 + b^2 >= (1 + g^2) e^{-2r}``.

Phase-sensitive overlaps.  For coherent and squeezed inputs the fidelity
and Gram integrands are not phase invariant, but they are Gaussians times
polynomials in ``u``: their integrals are the same closed-form Gaussian
moments at ``t = 0`` (:func:`_gaussian_overlaps`).  No family plans or
fills a 2-D grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import OutputState
from .errors import CapacityError, ConsistencyError, EvaluationError, InvalidArgumentError
from .numerics import gauss_laguerre_rule, laguerre_envelope_all, laguerre_envelope_series
from .states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    N_MAX_FOCK,
    SqueezedBellResource,
    SqueezedVacuumInput,
    delta_weight_rows,
    input_photon_probs,
    input_purity,
    transfer_basis,
)

_PROB_SLACK = 1e-8
_SUM_SLACK = 1e-7
D_N_UPPER = math.sqrt(2.0)
# Slack of the Fock-diagonal Frobenius / D_N cross-check.
_FROBENIUS_TOL = 1e-6


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon probabilities ``P_0 .. P_N`` plus a truncation-mass bound.

    ``probs`` keeps the raw quadrature values (small negative residues
    allowed for diagnostics); :meth:`clamped` is the [0, 1]-clipped copy used
    by the distortion functional.
    """

    probs: np.ndarray
    N: int
    truncation_mass_bound: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.N + 1,):
            raise InvalidArgumentError(f"expected {self.N + 1} probabilities, got {probs.shape}")
        _raise_first(_probability_checks(probs[None, :]))
        object.__setattr__(self, "probs", probs)

    def clamped(self) -> np.ndarray:
        return np.minimum(np.maximum(self.probs, 0.0), 1.0)

    def mean(self) -> float:
        return float(np.arange(self.N + 1) @ self.clamped())


def _probability_checks(probs: np.ndarray) -> list:
    """The :class:`PhotonDistribution` checks on each row of ``probs``."""
    sums = probs.sum(axis=1)
    return [
        (
            ((probs < -_PROB_SLACK) | (probs > 1.0 + _PROB_SLACK)).any(axis=1),
            lambda j: f"photon probabilities outside [-{_PROB_SLACK}, 1+{_PROB_SLACK}]: "
            f"min={probs[j].min():.3e}, max={probs[j].max():.3e}",
        ),
        (sums > 1.0 + _SUM_SLACK, lambda j: f"photon probabilities sum to {float(sums[j])!r} > 1"),
    ]


def _raise_first(checks: list):
    """Raise :class:`ConsistencyError` for the first Delta that fails a check.

    ``checks`` is a list of ``(failed, message)`` pairs in the order one
    Delta is checked: ``failed`` marks the failing Deltas and
    ``message(j)`` describes the failure at Delta ``j``.  Deltas are taken
    in order, so the error is the one a Delta-by-Delta loop would raise
    first.
    """
    failed = np.array([mask for mask, _ in checks])
    if failed.any():
        j = int(np.flatnonzero(failed.any(axis=0))[0])
        raise ConsistencyError(checks[int(np.argmax(failed[:, j]))][1](j))


@dataclass(frozen=True)
class DistortionMeasures:
    """Per-channel distortion summary: D_N, fidelity, Frobenius, purities."""

    d_n: float
    fidelity: float
    frobenius: float
    purity_in: float
    purity_out: float


def input_distribution(state: InputState, N: int) -> PhotonDistribution:
    probs = input_photon_probs(state, N)
    return PhotonDistribution(probs, N, truncation_mass_bound=max(0.0, 1.0 - probs.sum()))


def _check_cutoff(N: int):
    if N < 0:
        raise InvalidArgumentError("N must be nonnegative")
    if N > N_MAX_FOCK:
        raise CapacityError(f"photon cutoff {N} exceeds N_max={N_MAX_FOCK}")


def _distribution(probs: np.ndarray, N: int) -> PhotonDistribution:
    return PhotonDistribution(probs, N, truncation_mass_bound=max(0.0, 1.0 - probs.sum()))


def d_functional(p_in: PhotonDistribution, p_out: PhotonDistribution) -> float:
    """``D_N = sqrt(sum_n (P_n_out - P_n_in)^2)`` over the shared cutoff."""
    if p_in.N != p_out.N:
        raise InvalidArgumentError(f"distribution lengths differ: {p_in.N} vs {p_out.N}")
    diff = p_out.clamped() - p_in.clamped()
    return float(math.sqrt(np.sum(diff * diff)))


@dataclass(frozen=True, eq=False)
class DeltaFamily:
    """The Delta-independent quadratures of one (input, r, theta, gain, N) cell.

    With the weights ``w`` of :func:`cvteleport.states.delta_weights`,
    ``P_out = photon_basis @ w``, ``F = fidelity_basis @ w`` and
    ``purity_out = w @ gram @ w``.  Every Delta passes the
    :class:`~cvteleport.states.SqueezedBellResource` range check, and photon
    distributions the :class:`PhotonDistribution` validation.
    """

    state: InputState
    r: float
    theta: float
    gain: float
    N: int
    photon_basis: np.ndarray
    fidelity_basis: np.ndarray
    gram: np.ndarray
    purity_in: float
    p_in: PhotonDistribution

    def _weights(self, deltas) -> np.ndarray:
        """``(D, 3)``: the :func:`~cvteleport.states.delta_weight_rows` of the grid.

        Every Delta must lie in [0, 1], as a
        :class:`~cvteleport.states.SqueezedBellResource` of the family's theta
        and r; the first that does not raises the resource's error.
        """
        for delta in deltas:
            if not 0.0 <= delta <= 1.0:
                SqueezedBellResource(delta=delta, theta=self.theta, r=self.r)  # raises
        return delta_weight_rows(deltas, self.theta)

    def _products(self, deltas):
        """``(P_out, F, purity_out)`` over a Delta grid, one row per Delta.  Each
        sum runs over the three weights of one row, so a Delta's digits do not
        depend on the grid around it."""
        w = self._weights(deltas)
        probs = (w[:, :, None] * self.photon_basis.T).sum(axis=1)
        wg = (w[:, :, None] * self.gram).sum(axis=1)
        return probs, (w * self.fidelity_basis).sum(axis=1), (w * wg).sum(axis=1)

    def photon_distribution(self, delta: float) -> PhotonDistribution:
        return _distribution(self._products([delta])[0][0], self.N)

    def fidelity(self, delta: float) -> float:
        return float(self._products([delta])[1][0])

    def purity_out(self, delta: float) -> float:
        return float(self._products([delta])[2][0])

    def frobenius(self, delta: float) -> float:
        return _frobenius(self.purity_in, self.purity_out(delta), self.fidelity(delta))

    def measures(self, delta: float) -> DistortionMeasures:
        """D_N, fidelity, Frobenius distance, and purities at one Delta.

        :meth:`measure_columns` on a grid of one Delta: the same checks and digits.
        """
        cols = self.measure_columns([delta])
        return DistortionMeasures(**{name: float(col[0]) for name, col in cols.items()})

    def measure_columns(self, deltas) -> dict:
        """The :class:`DistortionMeasures` fields over a Delta grid, one array each.

        The grid is weighted in one array pass, one Delta per row, and each
        Delta's values do not depend on the grid around it (:meth:`_products`).
        Each Delta then passes the :class:`PhotonDistribution` checks, D_N
        against [0, sqrt(2)], the
        fidelity against the Cauchy-Schwarz bound, and, for Fock-diagonal
        inputs (Fock states and Fock mixtures), the Frobenius distance
        against D_N: the output is then Fock-diagonal too, so
        ``Frobenius^2 - D_N^2`` is the squared photon-number difference
        beyond N and lies in ``[0, (T_out + T_in)^2]`` up to 1e-6, with ``T``
        the mass beyond N.  This cross-checks the photon-probability and
        overlap integrals.  The first Delta that fails a check raises, with
        the error a per-Delta loop would raise for it.
        """
        probs, fid, pur_out = self._products(deltas)
        pur_in = self.purity_in
        diff = np.minimum(np.maximum(probs, 0.0), 1.0) - self.p_in.clamped()
        d_n = np.sqrt((diff * diff).sum(axis=1))
        frob = np.sqrt(np.maximum(pur_in + pur_out - 2.0 * fid, 0.0))

        checks = _probability_checks(probs) + [
            (
                ~((-1e-9 <= d_n) & (d_n <= D_N_UPPER + 1e-9)),
                lambda j: f"D_N={float(d_n[j])!r} outside [0, sqrt(2)]",
            ),
            # Cauchy-Schwarz bound; implies the purest-state upper bound on fidelity.
            (
                fid > np.sqrt(np.maximum(pur_in * pur_out, 0.0)) + 1e-7,
                lambda j: f"fidelity {float(fid[j])!r} exceeds sqrt(purity_in * purity_out); "
                "quadrature fault",
            ),
        ]
        if isinstance(self.state, (FockInput, FockMixtureInput)):
            beyond = np.maximum(1.0 - probs.sum(axis=1), 0.0) + self.p_in.truncation_mass_bound
            gap = frob * frob - d_n * d_n
            checks.append((
                ~((-_FROBENIUS_TOL <= gap) & (gap <= beyond * beyond + _FROBENIUS_TOL)),
                lambda j: f"D_N={float(d_n[j])!r} and Frobenius={float(frob[j])!r} disagree "
                "for a Fock-diagonal input by more than the photon mass past N; "
                "quadrature or truncation fault",
            ))
        _raise_first(checks)
        return {
            "d_n": d_n,
            "fidelity": fid,
            "frobenius": frob,
            "purity_in": np.full(fid.shape, pur_in),
            "purity_out": pur_out,
        }


def _frobenius(pur_in: float, pur_out: float, fid: float) -> float:
    return math.sqrt(max(pur_in + pur_out - 2.0 * fid, 0.0))


# C(j, i) Gamma(i + 1/2) Gamma(j - i + 1/2) / pi, the weights of _gaussian_moments.
_GAUSS = ((1.0,), (0.5, 0.5), (0.75, 0.5, 0.75), (1.875, 1.125, 1.125, 1.875),
          (6.5625, 3.75, 3.375, 3.75, 6.5625))


def _gaussian_moments(P: float, Q: float, degree: int) -> np.ndarray:
    """``m_j = (1/pi) ∫∫ exp(-P w^2 - Q z^2) (w^2 + z^2)^j dw dz`` for ``j <= degree <= 4``.

    ``m_j = sum_i _GAUSS[j][i] / (P^(i + 1/2) Q^(j - i + 1/2))``; for
    ``P = Q = c`` this is ``j! / c^(j + 1)``.  Raises ``OverflowError`` when a
    power overflows.
    """
    p = [P ** (i + 0.5) for i in range(degree + 1)]
    q = [Q ** (i + 0.5) for i in range(degree + 1)]
    return np.array([
        sum(w / (p[i] * q[j - i]) for i, w in enumerate(_GAUSS[j])) for j in range(degree + 1)
    ])


def _gaussian_overlaps(state: InputState, rate: float, coef: np.ndarray, gain: float):
    """Fidelity overlaps and Gram matrix of a coherent or squeezed input, in closed form.

    With ``q_k`` the transfer polynomials, the fidelity integrand is
    ``exp(-e u) q_k(u) chi_in(xi) chi_in(-g xi)`` and the Gram integrand
    ``exp(-2 e u) q_j(u) q_k(u) |chi_in(g xi)|^2``: Gaussians times
    polynomials in ``u``, so each is a combination of the moments ``m_j`` of
    :func:`_gaussian_moments`.  A squeezed vacuum ``s`` has
    ``|chi_in(xi)|^2 = exp(-e^{2s} w^2 - e^{-2s} z^2)``, and a coherent state
    the modulus of the vacuum (``s = 0``).  So the fidelity Gaussian has
    ``P, Q = e + (1 + g^2) e^{+-2s} / 2`` and the Gram Gaussian
    ``P, Q = 2 e + g^2 e^{+-2s}``.  With ``coef`` the coefficients of ``q_k``
    in ``u`` (:func:`~cvteleport.states.transfer_basis`), the overlaps are
    ``coef @ m`` and ``coef @ H @ coef.T``, ``H[i, l] = m_{i + l}``.

    The coherent fidelity integrand keeps the phase
    ``exp(2i (1 - g) Im(xi conj(beta)))``, whose angular mean is
    ``J0(2 (1 - g) |beta| sqrt(u))``; with ``c = e + (1 + g^2) / 2`` and
    ``y = (1 - g)^2 |beta|^2 / c``,
    ``∫ exp(-c u) u^j J0(2 sqrt(c y u)) du = j! c^(-j-1) exp(-y) L_j(y)``,
    so ``m_j`` gains the factor ``exp(-y) L_j(y)``, with ``L_0 = 1``,
    ``L_1 = 1 - y`` and ``L_2 = 1 - 2 y + y^2 / 2``.  It is taken as
    ``exp(-y/2) (exp(-y/2) L_j(y))``, so it does not underflow before the
    product does.

    Raises :class:`~cvteleport.errors.EvaluationError` when a moment's
    ``P^(i + 1/2) Q^(j - i + 1/2)`` or ``e^{2s}`` overflows, which a gain past
    about 1e34 or a squeezing ``|s|`` past about 79 brings about.
    """
    g2 = gain * gain
    s = state.s if isinstance(state, SqueezedVacuumInput) else 0.0
    try:
        wide, narrow = math.exp(2.0 * s), math.exp(-2.0 * s)
        fid_m = _gaussian_moments(
            rate + 0.5 * (1.0 + g2) * wide, rate + 0.5 * (1.0 + g2) * narrow, 2
        )
        gram_m = _gaussian_moments(2.0 * rate + g2 * wide, 2.0 * rate + g2 * narrow, 4)
    except OverflowError:
        raise EvaluationError(
            f"the Gaussian overlap moments of {state!r} at gain {gain!r} overflow"
        ) from None
    if isinstance(state, CoherentInput):
        y = (1.0 - gain) ** 2 * abs(state.beta) ** 2 / (rate + 0.5 * (1.0 + g2))
        half = math.exp(-0.5 * y)
        fid_m *= [half * (half * l) for l in (1.0, 1.0 - y, 1.0 - 2.0 * y + 0.5 * y * y)]
    hankel = gram_m[np.add.outer(np.arange(3), np.arange(3))]
    return coef @ fid_m, coef @ hankel @ coef.T


def _transfer_terms(rate: float, terms, u: np.ndarray) -> np.ndarray:
    """``(3, len(u))``: the transfer terms ``exp(-e u) q_k(u)``."""
    return np.stack(np.broadcast_arrays(*terms(u))) * np.exp(-rate * u)


def _power_series(A, powers, N: int) -> np.ndarray:
    """``A.shape + (len(powers), N + 1)``: the Taylor coefficients in ``t`` of
    ``(alpha (1 + rho t))^-p`` for each ``p`` in ``powers``, with ``alpha = A + 1/2``
    and ``rho = (1/2 - A) / alpha``.

    The binomial series: the ratio of consecutive coefficients is
    ``-rho (p + n - 1) / n``.
    """
    A = np.asarray(A)[..., None, None]
    powers = np.asarray(powers)[:, None]
    n = np.arange(1, N + 1)
    series = np.empty(A.shape[:-2] + (len(powers), N + 1))
    series[..., :1] = (A + 0.5) ** -powers
    series[..., 1:] = (A - 0.5) / (A + 0.5) * (powers + (n - 1.0)) / n
    return np.cumprod(series, axis=-1)


def _times(x: np.ndarray, y) -> np.ndarray:
    """The Taylor coefficients of the product of two series, to the length of ``x``."""
    return np.convolve(x, y)[: len(x)]


def _exp_series(x: np.ndarray) -> np.ndarray:
    """The Taylor coefficients of ``exp(x(t))``: ``n f_n = sum_k k x_k f_{n-k}``."""
    f = np.zeros_like(x)
    f[0] = math.exp(x[0])
    kx = np.arange(len(x)) * x
    for n in range(1, len(x)):
        f[n] = kx[1 : n + 1] @ f[n - 1 :: -1] / n
    return f


# (1 - t)^j
_FALLING = ((1.0,), (1.0, -1.0), (1.0, -2.0, 1.0))


def _photon_series(state: InputState, rate: float, gain: float, N: int) -> np.ndarray:
    """``(3, N + 1)``: the Taylor coefficients of ``M_j(t)``, ``j = 0, 1, 2``, for a
    coherent or squeezed input; the photon basis is ``(coef @ M).T``.

    With ``p_i`` and ``q_i`` the :func:`_power_series` of
    ``(alpha (1 + rho t))^-(i + 1/2)`` on the two axes,
    ``M_j = (1 - t)^j sum_i _GAUSS[j][i] p_i q_{j-i}``: :func:`_gaussian_moments`
    at ``P, Q`` (module docstring), their factors ``(1 - t)^(i + 1/2)`` gathered.
    A coherent input has ``P = Q = C``, so
    ``M_j = (1 - t)^j j! (alpha (1 + rho t))^-(j+1) exp(-y) L_j(y)`` with
    ``y = g^2 |beta|^2 / C = g^2 |beta|^2 (1 - t) M_0``.  When ``exp(-y(0))``
    underflows, every ``P_n``, ``n <= N_MAX_FOCK``, is below 1e-210 and the
    series is 0.
    """
    g2 = gain * gain
    if isinstance(state, SqueezedVacuumInput):
        wide, narrow = np.exp([2.0 * state.s, -2.0 * state.s])
        p, q = _power_series([rate + 0.5 * g2 * wide, rate + 0.5 * g2 * narrow], (0.5, 1.5, 2.5), N)
        moments = [
            sum(w * _times(p[i], q[j - i]) for i, w in enumerate(_GAUSS[j])) for j in range(3)
        ]
    else:
        # j! (alpha (1 + rho t))^-(j+1)
        moments = np.array([[1.0], [1.0], [2.0]]) * _power_series(rate + 0.5 * g2, (1, 2, 3), N)
        photons = g2 * abs(state.beta) ** 2
        if math.exp(-photons * moments[0, 0]) == 0.0:  # before y, which may hold inf * 0
            return np.zeros_like(moments)
        y = photons * _times(moments[0], _FALLING[1])
        decay = _exp_series(-y)
        y_decay = _times(y, decay)
        laguerre = (decay, decay - y_decay, decay - 2.0 * y_decay + 0.5 * _times(y, y_decay))
        moments = [_times(m, l) for m, l in zip(moments, laguerre)]
    return np.array([_times(m, falling) for m, falling in zip(moments, _FALLING)])


def _radial_family(state: InputState, rate: float, terms, gain: float, N: int):
    """``(photon_basis, fidelity_basis, gram)`` of a Fock state or mixture on the
    two exact Gauss-Laguerre rules of the module docstring."""
    g2 = gain * gain
    M = state.max_n
    if M > N_MAX_FOCK:
        raise CapacityError(f"top photon number {M} exceeds N_max={N_MAX_FOCK}")
    dephased = functools.partial(laguerre_envelope_series, input_photon_probs(state, M))
    u, wt = gauss_laguerre_rule(max(N, M) + M + 2, rate + 0.5 * (1.0 + g2))
    tau_k = _transfer_terms(rate, terms, u)
    # The angular mean of chi_in(g xi): the dephased input A~(g^2 u).
    chi_g = dephased(g2 * u)
    chi_1 = chi_g if gain == 1.0 else dephased(u)
    photon_basis = laguerre_envelope_all(N, u) @ (tau_k * (chi_g * wt)).T
    fidelity_basis = tau_k @ (chi_1 * chi_g * wt)
    u, wt = gauss_laguerre_rule(2 * M + 4, 2.0 * rate + g2)
    tau_k = _transfer_terms(rate, terms, u)
    chi_g = dephased(g2 * u)
    return photon_basis, fidelity_basis, (tau_k * (chi_g * chi_g * wt)) @ tau_k.T


def delta_family(
    state: InputState,
    r: float,
    theta: float = 0.0,
    gain: float = 1.0,
    N: int = 24,
) -> DeltaFamily:
    """Build the :class:`DeltaFamily` of one cell.

    Coherent and squeezed inputs take closed-form overlaps and the Taylor
    coefficients of :func:`_photon_series`; Fock states and mixtures two
    exact Gauss-Laguerre rules.  Raises
    :class:`~cvteleport.errors.InvalidArgumentError` or
    :class:`~cvteleport.errors.CapacityError` for a photon cutoff ``N``
    outside ``[0, N_MAX_FOCK]`` or a Fock-diagonal input whose top photon
    number exceeds ``N_MAX_FOCK``,
    :class:`~cvteleport.errors.EvaluationError` when the Gram rate
    ``2 e + g^2`` or the Gaussian overlap moments overflow, and like the
    resource constructors (bad r, theta or gain).
    """
    _check_cutoff(N)
    ch = Channel(SqueezedBellResource(delta=1.0, theta=theta, r=r), gain=gain)
    rate, terms, coef = transfer_basis(ch)
    if not math.isfinite(2.0 * rate + gain * gain):
        raise EvaluationError(f"the transfer rate at r {r!r} and gain {gain!r} overflows")
    if isinstance(state, (FockInput, FockMixtureInput)):
        photon_basis, fidelity_basis, gram = _radial_family(state, rate, terms, gain, N)
    else:
        fidelity_basis, gram = _gaussian_overlaps(state, rate, coef, gain)
        photon_basis = (coef @ _photon_series(state, rate, gain, N)).T
    return DeltaFamily(
        state=state,
        r=r,
        theta=theta,
        gain=gain,
        N=N,
        photon_basis=photon_basis,
        fidelity_basis=fidelity_basis,
        gram=gram,
        purity_in=input_purity(state),
        p_in=input_distribution(state, N),
    )


def distortion_measures(state: InputState, out: OutputState, N: int) -> DistortionMeasures:
    """D_N, fidelity, Frobenius distance, and purities for one channel run.

    ``out`` must be ``state`` teleported through ``out.channel``; the numbers
    come from that channel's :func:`delta_family` (see
    :meth:`DeltaFamily.measures` for the consistency checks).
    """
    if out.input != state:
        raise InvalidArgumentError("distortion_measures needs the output of teleporting state")
    ch = out.channel
    res = ch.resource
    return delta_family(state, res.r, res.theta, ch.gain, N).measures(res.delta)
