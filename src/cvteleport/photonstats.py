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
every ``P_n`` and the fidelity are linear in ``w``, and the output purity
``w^T G w``, ``D_N^2``, ``1 - F`` and the squared Frobenius distance are
quadratic forms in ``w``.  :func:`delta_family` computes the ``(N+1) x 3``
photon basis, the three fidelity overlaps, ``G`` and these forms once per
(input, r, theta, gain, N); each Delta then costs O(N) arithmetic, and a
Delta grid is one array pass with a row per Delta
(:meth:`DeltaFamily.measure_columns`), whose digits at a Delta do not depend
on the grid.  The optimizer ranks Deltas by the same forms, and asks a
family for the rounding terms of the one form it solves
(:meth:`DeltaFamily.rounding_terms`).

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

Fock states and mixtures: the same series.  ``A~(v) = sum_m p_m L~_m(v)``
is a finite sum up to the top photon number ``M`` (``max_n``, at most
``N_MAX_FOCK``), so with ``sum_m s^m L~_m(g^2 u)`` too,
``∫ e^{-e u} u^j L~_n(u) L~_m(g^2 u) du = [t^n s^m] j! (1 - t)^j (1 - s)^j / D^{j+1}``
with ``D = alpha (1 + rho t) (1 - beta s)``, the vacuum's ``alpha (1 + rho t)``
(``A = e + g^2 / 2``) and ``beta - 1 = -g^2 (1 - t) / (alpha (1 + rho t))``.
As ``1 - s = (1 - beta s) + (beta - 1) s``, the sum over ``m`` makes ``M_j``
the vacuum's times ``sum_{i <= j} C(j, i) (beta - 1)^i P_i(beta)``, where
``P_i(z) = sum_k C(k + i, i) p_{k+i} z^k`` are the Taylor coefficients of
the input's generating function ``sum_m p_m z^m``
(:func:`cvteleport.numerics._pgf_taylor`).  Every coefficient of ``beta`` is
nonnegative (``e >= |1 - g^2| / 2``), so ``P_i(beta)`` sums terms of one
sign and a small photon probability keeps its relative accuracy.  Input and
output are Fock-diagonal, so ``fidelity_basis = p @ photon_basis[:M+1]``.
The Gram matrix (Parseval's identity, a sum over every photon number) is
``coef @ H[i + l] @ coef.T`` with ``H_q = ∫ e^{-2 e u} u^q A~(g^2 u)^2 du``,
whose generating function has ``D' = h (1 - (1 - x) s) (1 - (1 - x) t) -
h x^2 s t``, ``h = 2 e + g^2``, ``x = g^2 / h``.  Expanded in ``s t`` it
factors, so ``H_q`` is a sum of squares with positive weights
(:func:`_fock_gram_moments`, whose tables of small integers are built once
per ``M``).  No quadrature, cutoff or tail bound enters.

Phase-sensitive overlaps.  For coherent and squeezed inputs the fidelity
and Gram integrands are not phase invariant, but they are Gaussians times
polynomials in ``u``: their integrals are the same closed-form Gaussian
moments at ``t = 0`` (:func:`_gaussian_overlaps`).  No family plans or
fills a 2-D grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import OutputState
from .errors import CapacityError, ConsistencyError, EvaluationError, InvalidArgumentError
from .numerics import _FALLING, _exp_series, _frozen, _pgf_taylor, _power_series, _times
from .states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    N_MAX_FOCK,
    ONE,
    SqueezedBellResource,
    SqueezedVacuumInput,
    as_int,
    delta_weight_rows,
    input_photon_probs,
    input_purity,
    sym,
    transfer_basis,
    weighted_forms,
)

_PROB_SLACK = 1e-8
_SUM_SLACK = 1e-7
D_N_UPPER = math.sqrt(2.0)
# Slack of the Fock-diagonal Frobenius / D_N cross-check.
_FROBENIUS_TOL = 1e-6
_ONE_ONE = np.outer(ONE, ONE)


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon probabilities ``P_0 .. P_N``, a 1-D array of at least one entry.

    ``probs`` keeps the values as computed, rounding included (a residue
    down to ``-1e-8`` passes the checks); :meth:`clamped` is the
    [0, 1]-clipped copy used by the distortion functional.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidArgumentError(
                f"photon probabilities must be a nonempty 1-D array, got shape {probs.shape}"
            )
        # One comparison each, which NaN fails; the messages are built on a failure.
        total = probs.sum()
        if not (-_PROB_SLACK <= probs.min() and probs.max() <= 1.0 + _PROB_SLACK
                and total <= 1.0 + _SUM_SLACK):
            _raise_first(_probability_checks(probs[None, :], np.array([total])))
        object.__setattr__(self, "probs", probs)

    @property
    def N(self) -> int:
        return self.probs.size - 1

    @property
    def truncation_mass_bound(self) -> float:
        """The mass beyond ``N``: ``max(0, 1 - sum P_n)``."""
        return max(0.0, 1.0 - self.probs.sum())

    def clamped(self) -> np.ndarray:
        return np.minimum(np.maximum(self.probs, 0.0), 1.0)


def _probability_checks(probs: np.ndarray, sums: np.ndarray) -> list:
    """The :class:`PhotonDistribution` checks on each row of ``probs``, whose
    sums are ``sums``."""
    return [
        (  # written as "in range", so that NaN fails
            ((-_PROB_SLACK <= probs) & (probs <= 1.0 + _PROB_SLACK)).all(axis=1),
            lambda j: f"photon probabilities outside [-{_PROB_SLACK}, 1+{_PROB_SLACK}]: "
            f"min={probs[j].min():.3e}, max={probs[j].max():.3e}",
        ),
        (sums <= 1.0 + _SUM_SLACK, lambda j: f"photon probabilities sum to {float(sums[j])!r} > 1"),
    ]


def _failures(checks: list) -> dict:
    """``{j: message}`` for each Delta ``j`` that fails a check, in order.

    ``checks`` is a list of ``(passed, message)`` pairs in the order one
    Delta is checked: ``passed`` marks the Deltas that pass (a comparison
    with NaN does not) and ``message(j)`` describes the failure at Delta
    ``j``.  A Delta's message is that of the first check it fails, the one a
    Delta-by-Delta loop would raise for it.
    """
    passed = checks[0][0]
    for mask, _ in checks[1:]:
        passed = passed & mask
    if passed.all():
        return {}
    failed = ~np.array([mask for mask, _ in checks])
    return {int(j): checks[int(np.argmax(failed[:, j]))][1](j)
            for j in np.flatnonzero(failed.any(axis=0))}


def _raise_first(checks: list):
    """Raise :class:`ConsistencyError` for the first Delta that fails a check
    (:func:`_failures`): the error a Delta-by-Delta loop would raise first."""
    failures = _failures(checks)
    if failures:
        raise ConsistencyError(failures[min(failures)])


@dataclass(frozen=True)
class DistortionMeasures:
    """Per-channel distortion summary: D_N, fidelity and 1 - F, Frobenius, purities."""

    d_n: float
    fidelity: float
    one_minus_fidelity: float
    frobenius: float
    purity_in: float
    purity_out: float


def input_distribution(state: InputState, N: int) -> PhotonDistribution:
    return PhotonDistribution(input_photon_probs(state, N))


def _check_cutoff(N) -> int:
    N = as_int(N, "N")
    if N < 0:
        raise InvalidArgumentError("N must be nonnegative")
    if N > N_MAX_FOCK:
        raise CapacityError(f"photon cutoff {N} exceeds N_max={N_MAX_FOCK}")
    return N


def d_functional(p_in: PhotonDistribution, p_out: PhotonDistribution) -> float:
    """``D_N = sqrt(sum_n (P_n_out - P_n_in)^2)`` over the shared cutoff."""
    if p_in.N != p_out.N:
        raise InvalidArgumentError(f"distribution lengths differ: {p_in.N} vs {p_out.N}")
    diff = p_out.clamped() - p_in.clamped()
    return float(math.sqrt(np.sum(diff * diff)))


@dataclass(frozen=True, eq=False)
class DeltaFamily:
    """The Delta-independent bases and forms of one (input, r, theta, gain, N) cell.

    With the weights ``w`` of :func:`cvteleport.states.delta_weight_rows`,
    ``P_out = photon_basis @ w``, ``F = fidelity_basis @ w`` and
    ``purity_out = w @ gram @ w``.  ``forms`` holds ``gram`` and the family
    objectives as forms in ``w`` (:meth:`quadratic_forms`), which ``compare``
    and the optimizer both read; :meth:`rounding_terms` builds the rounding
    bound of one of them, which only the optimizer asks for.  Every Delta
    passes the :class:`~cvteleport.states.SqueezedBellResource` range check,
    and photon distributions the :class:`PhotonDistribution` validation.
    """

    state: InputState
    r: float
    theta: float
    photon_basis: np.ndarray
    fidelity_basis: np.ndarray
    gram: np.ndarray
    purity_in: float
    p_in: PhotonDistribution
    forms: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "forms", self.quadratic_forms())

    def quadratic_forms(self) -> np.ndarray:
        """``(4, 3, 3)``: ``gram`` and the forms of ``D_N^2``, ``1 - F`` and
        ``purity_in + purity_out - 2 F``.  ``P_in`` goes on the columns that
        sum to 1 (``ONE @ w = 1``): no O(1) terms cancel in ``P_out - P_in``."""
        f = self.fidelity_basis
        diff = self.photon_basis - self.p_in.clamped()[:, None] * ONE
        fidelity_line, fidelity_sym = sym(np.array((ONE - f, f)), ONE)
        return np.array((self.gram, diff.T @ diff, fidelity_line,
                         self.gram + self.purity_in * _ONE_ONE - 2.0 * fidelity_sym))

    def rounding_terms(self, i: int) -> np.ndarray:
        """``(3, 3)``: the sums of the absolute values of the terms of
        ``forms[i]``, ``i`` 1, 2 or 3, each taken before its cancellation: the
        bound of the rounding in that form.  ``1 - F`` sums ``ONE`` and
        ``|F|``, and the Frobenius form ``|gram|``, ``purity_in`` and ``2 |F|``.
        ``D_N^2`` is ``diff^T diff`` of the photon difference
        ``diff = P_out - P_in``, a difference of numbers up to size 1 that
        carries their rounding, ``|P_out| + P_in`` per entry; to first order
        that adds ``cross + cross^T``, ``cross = |diff|^T (|P_out| + P_in)``,
        to ``|diff|^T |diff|``."""
        if i == 1:
            p_in = self.p_in.clamped()[:, None] * ONE
            diff = np.abs(self.photon_basis - p_in)
            cross = diff.T @ (np.abs(self.photon_basis) + p_in)
            return diff.T @ diff + cross + cross.T
        f = np.abs(self.fidelity_basis)
        if i == 2:
            return sym(ONE + f, ONE)
        if i == 3:
            return np.abs(self.gram) + self.purity_in * _ONE_ONE + 2.0 * sym(f, ONE)
        raise InvalidArgumentError(f"a family form with rounding terms is 1, 2 or 3, got {i!r}")

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

    def photon_distribution(self, delta: float) -> PhotonDistribution:
        w = self._weights([delta])
        return PhotonDistribution((w[:, :, None] * self.photon_basis.T).sum(axis=1)[0])

    def measures(self, delta: float) -> DistortionMeasures:
        """D_N, fidelity, Frobenius distance, and purities at one Delta.

        :meth:`measure_columns` on a grid of one Delta: the same checks and digits.
        """
        cols = self.measure_columns([delta])
        return DistortionMeasures(**{name: float(col[0]) for name, col in cols.items()})

    def measure_columns(self, deltas) -> dict:
        """The :class:`DistortionMeasures` fields over a Delta grid, one array each.

        The grid is weighted in one array pass, one Delta per row, so each
        Delta's values do not depend on the grid around it: ``purity_out``,
        ``D_N^2`` (off the photon difference, ``P_out`` not clamped), ``1 - F``
        and ``Frobenius^2`` are ``forms`` at its weights, summed as the
        optimizer sums its scores.  Each Delta then passes the
        :class:`PhotonDistribution` checks, D_N against [0, sqrt(2)], the
        fidelity against the Cauchy-Schwarz bound, and, for Fock-diagonal
        inputs (Fock states and Fock mixtures), the Frobenius distance
        against D_N: the output is then Fock-diagonal too, so
        ``Frobenius^2 - D_N^2`` is the squared photon-number difference
        beyond N and lies in ``[0, (T_out + T_in)^2]`` up to 1e-6, with ``T``
        the mass beyond N.  Its fidelity is read off the photon basis, so
        this holds the photon basis to the Gram moments.  The first Delta that
        fails a check raises, with the error a per-Delta loop would raise.
        """
        fid, values, roots, checks = self._checked(self._weights(deltas))
        _raise_first(checks)
        pur_out, _, one_minus_fid, _ = values.T
        _, d_n, _, frob = roots.T
        return {
            "d_n": d_n,
            "fidelity": fid,
            "one_minus_fidelity": one_minus_fid,
            "frobenius": frob,
            "purity_in": np.full(fid.shape, self.purity_in),
            "purity_out": pur_out,
        }

    def failed_checks(self, w) -> dict:
        """``{j: message}`` for each row ``j`` of weights ``w`` ``(D, 3)``, the
        :func:`~cvteleport.states.delta_weight_rows` of Deltas in [0, 1], that
        fails a :meth:`measure_columns` check: the message of the
        :class:`~cvteleport.errors.ConsistencyError` that ``measure_columns``
        raises for that Delta alone.  The optimizer checks the winners of one
        family's cells in one pass, at the weight rows they were scored at,
        and builds no columns."""
        return _failures(self._checked(w)[-1])

    def _checked(self, w) -> tuple:
        """``(fidelity, values, roots, checks)`` at the weight rows ``w``:
        ``values`` ``(D, 4)`` is ``forms`` at each row, ``roots`` the square
        roots of their positive parts (``D_N`` and the Frobenius distance in
        columns 1 and 3), and ``checks`` the :meth:`measure_columns` checks,
        for :func:`_failures`."""
        probs = (w[:, :, None] * self.photon_basis.T).sum(axis=1)
        sums = probs.sum(axis=1)
        fid = (w * self.fidelity_basis).sum(axis=1)
        values = weighted_forms(w[:, None, :], self.forms)
        roots = np.sqrt(np.maximum(values, 0.0))
        pur_out, d_n, frob = values[:, 0], roots[:, 1], roots[:, 3]

        checks = _probability_checks(probs, sums) + [
            (  # a square root: NaN, which fails, or at least 0
                d_n <= D_N_UPPER + 1e-9,
                lambda j: f"D_N={float(d_n[j])!r} outside [0, sqrt(2)]",
            ),
            # Cauchy-Schwarz bound; implies the purest-state upper bound on fidelity.
            (
                fid <= np.sqrt(np.maximum(self.purity_in * pur_out, 0.0)) + 1e-7,
                lambda j: f"fidelity {float(fid[j])!r} exceeds sqrt(purity_in * purity_out); "
                "the family's fidelity and Gram bases disagree",
            ),
        ]
        if isinstance(self.state, (FockInput, FockMixtureInput)):
            beyond = np.maximum(1.0 - sums, 0.0) + self.p_in.truncation_mass_bound
            gap = frob * frob - d_n * d_n
            checks.append((
                (-_FROBENIUS_TOL <= gap) & (gap <= beyond * beyond + _FROBENIUS_TOL),
                lambda j: f"D_N={float(d_n[j])!r} and Frobenius={float(frob[j])!r} disagree "
                "for a Fock-diagonal input by more than the photon mass past N; "
                "the family's photon and Gram bases disagree",
            ))
        return fid, values, roots, checks


# C(j, i) Gamma(i + 1/2) Gamma(j - i + 1/2) / pi, the weights of _gaussian_moments.
_GAUSS = ((1.0,), (0.5, 0.5), (0.75, 0.5, 0.75), (1.875, 1.125, 1.125, 1.875),
          (6.5625, 3.75, 3.375, 3.75, 6.5625))


def _gaussian_moments(P: float, Q: float, degree: int) -> np.ndarray:
    """``m_j = (1/pi) ∫∫ exp(-P w^2 - Q z^2) (w^2 + z^2)^j dw dz`` for ``j <= degree <= 4``.

    ``m_j = sum_i _GAUSS[j][i] / (P^(i + 1/2) Q^(j - i + 1/2))``; for
    ``P = Q = c`` this is ``j! / c^(j + 1)``, each sum left to right from 0.0
    (not ``sum``, which compensates from Python 3.12).  Raises
    ``OverflowError`` when a power overflows.
    """
    p = [P ** (i + 0.5) for i in range(degree + 1)]
    q = [Q ** (i + 0.5) for i in range(degree + 1)]
    moments = []
    for j in range(degree + 1):
        total = 0.0
        for i, w in enumerate(_GAUSS[j]):
            total += w / (p[i] * q[j - i])
        moments.append(total)
    return np.array(moments)


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
    return coef @ fid_m, coef @ gram_m[_HANKEL] @ coef.T


_FACTORIAL = np.array([1.0, 1.0, 2.0, 6.0, 24.0])
_HANKEL = np.add.outer(np.arange(3), np.arange(3))
_Q = np.arange(5)
# C(q, l), q, l <= 4
_BINOMIAL = np.array([[math.comb(q, l) for l in range(5)] for q in range(5)], dtype=float)


def _photon_series(
    state: InputState, rate: float, gain: float, N: int, p: Optional[np.ndarray] = None
) -> np.ndarray:
    """``(3, N + 1)``: the Taylor coefficients of ``M_j(t)``, ``j = 0, 1, 2``; the
    photon basis is ``(coef @ M).T``.

    With ``p_i`` and ``q_i`` the :func:`_power_series` of
    ``(alpha (1 + rho t))^-(i + 1/2)`` on the two axes, a squeezed vacuum has
    ``M_j = (1 - t)^j sum_i _GAUSS[j][i] p_i q_{j-i}``: :func:`_gaussian_moments`
    at ``P, Q`` (module docstring), their factors ``(1 - t)^(i + 1/2)`` gathered.
    Every other input has the vacuum's ``M_j = (1 - t)^j j! (alpha (1 + rho t))^-(j+1)``
    times an input factor.  A coherent input has ``P = Q = C`` and the factor
    ``exp(-y) L_j(y)`` with ``y = g^2 |beta|^2 / C = g^2 |beta|^2 (1 - t) M_0``;
    when ``exp(-y(0))`` underflows, every ``P_n``, ``n <= N_MAX_FOCK``, is
    below 1e-210 and the series is 0.  A Fock state or mixture has the factor
    ``sum_i C(j, i) (beta - 1)^i P_i(beta)`` of the module docstring
    (:func:`~cvteleport.numerics._pgf_taylor`), with ``p`` its photon
    probabilities ``p_0 .. p_M``.
    """
    g2 = gain * gain
    if isinstance(state, SqueezedVacuumInput):
        wide, narrow = np.exp([2.0 * state.s, -2.0 * state.s])
        p, q = _power_series([rate + 0.5 * g2 * wide, rate + 0.5 * g2 * narrow], (0.5, 1.5, 2.5), N)
        moments = [
            sum(w * _times(p[i], q[j - i]) for i, w in enumerate(_GAUSS[j])) for j in range(3)
        ]
        return np.array([_times(m, falling) for m, falling in zip(moments, _FALLING)])
    # j! (alpha (1 + rho t))^-(j+1)
    moments = _FACTORIAL[:3, None] * _power_series(rate + 0.5 * g2, (1, 2, 3), N)
    if isinstance(state, CoherentInput):
        photons = g2 * abs(state.beta) ** 2
        if math.exp(-photons * moments[0, 0]) == 0.0:  # before y, which may hold inf * 0
            return np.zeros_like(moments)
        y = photons * _times(moments[0], _FALLING[1])
        decay = _exp_series(-y)
        y_decay = _times(y, decay)
        factor = (decay, decay - y_decay, decay - 2.0 * y_decay + 0.5 * _times(y, y_decay))
    else:
        beta = _times(moments[0], (rate + 0.5 * (1.0 - g2), 0.5 * (1.0 + g2) - rate))
        pgf = _pgf_taylor(beta, p, 2)
        shift = -g2 * _times(moments[0], _FALLING[1])  # beta - 1
        once = _times(shift, pgf[1])
        factor = (pgf[0], pgf[0] + once, pgf[0] + 2.0 * once + _times(shift, _times(shift, pgf[2])))
    return np.array([
        _times(_times(m, f), falling) for m, f, falling in zip(moments, factor, _FALLING)
    ])


@functools.lru_cache(maxsize=None)
def _gram_table(M: int) -> tuple:
    """``(ratios, index, 2k)`` of :func:`_fock_gram_moments` for the top photon
    number ``M``: the ratios ``(q + k) / q`` whose products are ``C(q + k, k)``,
    ``(4, M + 1)``, the index ``q + k``, ``(5, M + 1)``, and ``2k``, ``k <= M``,
    as read-only arrays built once per ``M``."""
    if M > N_MAX_FOCK:
        raise CapacityError(f"top photon number {M} exceeds N_max={N_MAX_FOCK}")
    q, k = _Q[:, None], np.arange(M + 1)
    return _frozen((q[1:] + k) / q[1:], q + k, 2.0 * k)


def _fock_gram_moments(p: np.ndarray, rate: float, g2: float) -> np.ndarray:
    """``H_q = ∫ exp(-2 e u) u^q A~(g^2 u)^2 du``, ``q <= 4``, for the photon
    probabilities ``p``: with ``h``, ``x`` and ``D'`` of the module docstring,
    ``H_q = q! h^-(q+1) sum_k C(q + k, k) x^(2k) v_{q,k}^2``, where
    ``v_{q,k} = sum_{l <= q} C(q, l) (-x)^l P_{k+l}(1 - x)``, from
    ``1 - s = (1 - (1 - x) s) - x s``."""
    M = len(p) - 1
    ratios, index, two_k = _gram_table(M)
    h = 2.0 * rate + g2
    x = g2 / h
    pgf = np.zeros(M + 5)
    pgf[: M + 1] = _pgf_taylor(np.array([2.0 * rate / h]), p, M)[:, 0]
    v = (_BINOMIAL * (-x) ** _Q[None, :]) @ pgf[index]
    weight = np.empty((5, M + 1))
    weight[0], weight[1:] = x ** two_k, ratios
    return _FACTORIAL * h ** -(_Q + 1.0) * np.sum(np.cumprod(weight, axis=0) * v * v, axis=1)


def _fock_family(state: InputState, rate: float, coef: np.ndarray, gain: float, N: int):
    """``(photon_basis, fidelity_basis, gram)`` of a Fock state or mixture.  Raises
    :class:`~cvteleport.errors.EvaluationError` where ``(2 e + g^2)^5``
    overflows: ``H_4`` would underflow and ``coef`` overflow."""
    M = state.max_n
    if M > N_MAX_FOCK:
        raise CapacityError(f"top photon number {M} exceeds N_max={N_MAX_FOCK}")
    try:
        (2.0 * rate + gain * gain) ** 5
    except OverflowError:
        raise EvaluationError(f"the Gram moments of {state!r} at gain {gain!r} overflow") from None
    p = input_photon_probs(state, M)
    rows = (coef @ _photon_series(state, rate, gain, max(N, M), p)).T
    gram_m = _fock_gram_moments(p, rate, gain * gain)
    return rows[: N + 1], p @ rows[: M + 1], coef @ gram_m[_HANKEL] @ coef.T


def delta_family(
    state: InputState,
    r: float,
    theta: float = 0.0,
    gain: float = 1.0,
    N: int = 24,
) -> DeltaFamily:
    """Build the :class:`DeltaFamily` of one cell.

    Every input takes the Taylor coefficients of :func:`_photon_series`;
    coherent and squeezed inputs take closed-form overlaps, Fock states and
    mixtures the fidelity off their photon rows and the Gram moments of
    :func:`_fock_gram_moments`.  Raises
    :class:`~cvteleport.errors.InvalidArgumentError` or
    :class:`~cvteleport.errors.CapacityError` for a photon cutoff ``N`` that
    is not an integer or lies outside ``[0, N_MAX_FOCK]``, or a Fock-diagonal
    input whose top photon number exceeds ``N_MAX_FOCK``,
    :class:`~cvteleport.errors.EvaluationError` when the Gram rate
    ``2 e + g^2``, its fifth power (Fock-diagonal inputs) or the Gaussian
    overlap moments overflow or a basis has an entry that is not finite, and
    like the resource constructors (bad r, theta or gain).
    """
    N = _check_cutoff(N)
    ch = Channel(SqueezedBellResource(delta=1.0, theta=theta, r=r), gain=gain)
    rate, _, coef = transfer_basis(ch)
    if not math.isfinite(2.0 * rate + gain * gain):
        raise EvaluationError(f"the transfer rate at r {r!r} and gain {gain!r} overflows")
    if isinstance(state, (FockInput, FockMixtureInput)):
        photon_basis, fidelity_basis, gram = _fock_family(state, rate, coef, gain, N)
    else:
        fidelity_basis, gram = _gaussian_overlaps(state, rate, coef, gain)
        photon_basis = (coef @ _photon_series(state, rate, gain, N)).T
    bases = {"photon": photon_basis, "fidelity": fidelity_basis, "Gram": gram}
    for name, basis in bases.items():
        if not np.isfinite(basis).all():
            raise EvaluationError(
                f"the {name} basis of {state!r} at r {r!r} and gain {gain!r} is not finite"
            )
    return DeltaFamily(
        state=state,
        r=r,
        theta=theta,
        photon_basis=photon_basis,
        fidelity_basis=fidelity_basis,
        gram=gram,
        purity_in=input_purity(state),
        p_in=input_distribution(state, N),
    )


def distortion_measures(out: OutputState, N: int) -> DistortionMeasures:
    """D_N, fidelity, Frobenius distance, and purities of ``out`` against its input.

    The numbers come from the :func:`delta_family` of ``out.input`` and
    ``out.channel`` (see :meth:`DeltaFamily.measures` for the consistency
    checks).
    """
    ch = out.channel
    res = ch.resource
    return delta_family(out.input, res.r, res.theta, ch.gain, N).measures(res.delta)
