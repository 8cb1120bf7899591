"""Cumulant tables, moment sets and distortion records.

Derivative convention
---------------------

Texts in this area disagree on where ``1/i^(n+m)`` prefactors sit, so the
package fixes one convention and validates it against every closed form in
the catalog.  The cumulant table of a one-mode function ``f`` holds

``K(n, m) = Re[ (1/i)^(n+m) d^(n+m) log f / dz^n dw^m |_0 ]``,
``1 <= n + m <= 4``,

the joint cumulants of the symmetric-order quadratures: ``K(1, 0) = <x>``,
``K(2, 0) = <Dx^2>``, ``K(1, 1) = <{Dx Dp}>``, ``K(3, 0)`` the third central
moment and ``K(4, 0)`` the fourth cumulant, with ``mu4 = K(4, 0) + 3 K(2, 0)^2``.
In this scale the vacuum has ``<x^2> = 1`` and a coherent state with real
displacement ``beta`` has ``<x> = 2 beta``: the quadratures are
``x = a + a^dag`` and ``[x, p] = 2i``.

Additivity.  ``log chi_out(xi) = log tau(xi) + log chi_in(g xi)``, so an
output's table is ``K_out(n, m) = g^(n+m) K_in(n, m) + K_tau(n, m)``
(:func:`moment_set`): the distortion of the cumulants depends on the resource
alone.  Coherent states and squeezed vacuum have only means and variances,
so their outputs' fourth cumulants are the resource's, exactly.

Radial functions.  Fock states, their mixtures and the transfer function are
functions ``F(u) = exp(-c u) P(u)`` of ``u = |xi|^2``, with
``P(u) = 1 + p1 u + p2 u^2 + ...``.  With ``F'(0) = f1``,
``log F = f1 u + (2 p2 - p1^2) u^2 / 2 + ...``: the envelope ``exp(-c u)``
is linear in ``u``, so it enters ``K(2, 0) = K(0, 2) = -2 f1`` only, and
``K(4, 0) = K(0, 4) = 12 (2 p2 - p1^2)``, ``K(2, 2) = 4 (2 p2 - p1^2)``;
every other entry is 0.  For Fock states and mixtures ``p1 = -<n>`` and
``p2 = <n(n-1)>/4``, so ``K(4, 0) = 6 <n(n-1)> - 12 <n>^2``.  The transfer
function's ``f1`` and its ``p1, 2 p2`` are linear in the Delta weights
(:func:`transfer_derivative_forms` at its own rate and at rate 0).  Read off
``P``, the fourth cumulants keep relative accuracy near their zeros, where
``12 (F''(0) - F'(0)^2)`` would cancel terms of the size of ``c^2``.

Photon numbers.  ``x^2 + p^2 = 4 a^dag a + 2`` turns the raw quadrature
moments into ``<a^dag a>`` and ``<a^dag^2 a^2>``, but subtracts the vacuum's
2 and 8 from entries near 1, so near the vacuum it keeps only absolute
accuracy: the vacuum through a TMSV at r = 10 would get ``g2(0)`` 26, not 2.
So :func:`photon_moments` takes them in normal order, where no vacuum term is
left: closed forms for the catalog, and for an output the product rule on
``exp(u/2) chi_out = [exp((1 - g^2) u/2) tau] [exp(g^2 u/2) chi_in(g xi)]``.
The first factor is ``exp(-a^2 u) sum_k w_k q_k(u)``
(:func:`~cvteleport.states.transfer_basis`, and ``e - (1 - g^2)/2 = a^2``);
with ``f1, f2`` its derivatives in ``u`` at 0, ``<n>_out = g^2 <n>_in - f1``
and ``<a^dag^2 a^2>_out = g^4 <a^dag^2 a^2>_in - 4 g^2 <n>_in f1 + 2 f2``,
at every gain.

The tests hold the tables against a finite-difference engine that
differentiates the characteristic functions numerically and converts raw
moments to central ones on its own (``tests/oracles.py``), and against a
symbolic expansion of the two-mode resource (``tests/test_symbolic.py``); the
photon moments against the quadrature identities, the normal-ordered finite
differences and the photon distributions of the Delta family.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import OutputState, teleport
from .errors import (
    ConsistencyError,
    DegenerateStateError,
    EvaluationError,
    InvalidArgumentError,
)
from .states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    SqueezedBellResource,
    SqueezedVacuumInput,
    _basis_rows,
    delta_weight_rows,
    transfer_coefficients,
    transfer_label,
)

_N_MEAN_FLOOR = 1e-12

_KEYS = tuple((n, m) for n in range(5) for m in range(5) if 1 <= n + m <= 4)


def _radial_cumulants(f1: float, p1: float, p2: float) -> dict:
    """The table of ``F(|xi|^2)``, ``F(u) = exp(-c u) P(u)`` with ``F'(0) = f1``
    and ``P(u) = 1 + p1 u + p2 u^2 + ...``."""
    k = dict.fromkeys(_KEYS, 0.0)
    k[(2, 0)] = k[(0, 2)] = -2.0 * f1
    k[(4, 0)] = k[(0, 4)] = 12.0 * (2.0 * p2 - p1 * p1)
    k[(2, 2)] = 4.0 * (2.0 * p2 - p1 * p1)
    return k


def transfer_derivative_forms(ch: Channel, rate: Optional[float] = None):
    """The rows ``(d1, d2)`` with ``F'(0) = d1 @ w`` and ``F''(0) = d2 @ w`` for
    ``F(u) = exp(-rate u) sum_k w_k q_k(u)``, the polynomials ``q_k`` of
    :func:`~cvteleport.states.transfer_basis` and the weights ``w`` of
    :func:`~cvteleport.states.delta_weight_rows` (``w0 + w2 = 1`` carries the
    constants).  The default rate is the transfer function's own, so that
    ``F(|xi|^2)`` is the transfer function.  Only r and the gain enter."""
    # In Python floats: numpy's per-call overhead would dominate three-entry rows.
    own, coef = _basis_rows(*transfer_coefficients(ch))
    return np.array(_derivative_rows(coef, own if rate is None else rate))


def _derivative_rows(coef, c) -> tuple:
    """The rows ``(d1, d2)`` of :func:`transfer_derivative_forms` at rate
    ``c`` from the rows ``coef`` of ``_basis_rows``: the u and u^2
    coefficients of ``(1 - c u + c^2 u^2 / 2) q_k(u)``, times 1! and 2!.
    Entry by entry on floats, or on arrays of one shape, as ``_basis_rows``:
    the optimizer's table of every r of a grid runs the operations that one
    channel runs here."""
    return ([q1 - c * q0 for q0, q1, _ in coef],
            [2.0 * q2 - 2.0 * c * q1 + c * c * q0 for q0, q1, q2 in coef])


def _checked(what: str, compute):
    """``compute()``, a cumulant table or a tuple of floats; EvaluationError where
    it overflows or a value is not finite.  The public building blocks of
    :func:`moment_set` check this way; it calls them unchecked and checks its
    fields itself."""
    try:
        values = compute()
    except OverflowError:
        raise EvaluationError(f"the {what} overflow") from None
    for value in values.values() if isinstance(values, dict) else values:
        if not math.isfinite(value):
            raise EvaluationError(f"the {what} overflow to a value that is not finite: {value!r}")
    return values


def state_cumulants(state: InputState) -> dict:
    """Closed-form cumulant table ``{(n, m): K(n, m)}`` of a catalog state.
    Raises :class:`~cvteleport.errors.EvaluationError` where it overflows."""
    return _checked(f"cumulants of {state!r}", lambda: _state_cumulants(state))


def _state_cumulants(state: InputState) -> dict:
    if isinstance(state, (FockInput, FockMixtureInput)):
        # exp(-u/2) sum_n p_n L_n(u), and sum_n p_n L_n(u) = 1 - <n> u + <n(n-1)>/4 u^2 - ...
        n, a22 = _photon_moments(state)
        return _radial_cumulants(-(n + 0.5), -n, 0.25 * a22)
    k = dict.fromkeys(_KEYS, 0.0)
    if isinstance(state, CoherentInput):
        # The derivative convention maps <p> to -2 Im(beta); sign only
        # matters for complex displacements, which the catalog never uses.
        k[(1, 0)], k[(0, 1)] = 2.0 * state.beta.real, -2.0 * state.beta.imag
        k[(2, 0)] = k[(0, 2)] = 1.0
    elif isinstance(state, SqueezedVacuumInput):
        k[(2, 0)], k[(0, 2)] = math.exp(-2.0 * state.s), math.exp(2.0 * state.s)
    else:
        raise InvalidArgumentError(f"unknown input state {state!r}")
    return k


def transfer_cumulants(ch: Channel) -> dict:
    """Cumulant table of the transfer function, a radial non-state function.
    Raises :class:`~cvteleport.errors.EvaluationError` where it overflows."""
    return _checked(f"transfer cumulants of {transfer_label(ch)}", lambda: _transfer_cumulants(ch))


def _transfer_cumulants(ch: Channel) -> dict:
    w = delta_weight_rows(ch.resource.delta, ch.resource.theta)[0]
    f1 = float(transfer_derivative_forms(ch)[0] @ w)
    p1, p2 = (float(d @ w) for d in transfer_derivative_forms(ch, 0.0))
    return _radial_cumulants(f1, p1, 0.5 * p2)


def photon_moments(source) -> tuple[float, float]:
    """``(<a^dag a>, <a^dag^2 a^2>)`` of a catalog input state or a teleportation
    output, in the closed forms of the module docstring: for an output, the
    normal-ordered product rule with the transfer factor's derivatives from
    :func:`transfer_derivative_forms` at rate ``a^2``.  Raises
    :class:`~cvteleport.errors.EvaluationError` where they overflow."""
    return _checked(f"photon moments of {_label(source)}", lambda: _photon_moments(source))


def _photon_moments(source) -> tuple[float, float]:
    if isinstance(source, OutputState):
        ch = source.channel
        n, a22 = _photon_moments(source.input)
        a, _ = transfer_coefficients(ch)
        w = delta_weight_rows(ch.resource.delta, ch.resource.theta)[0]
        f1, f2 = (float(d @ w) for d in transfer_derivative_forms(ch, a * a))
        g2 = ch.gain ** 2
        return g2 * n - f1, 2.0 * f2 - 4.0 * g2 * n * f1 + g2 * g2 * a22
    if isinstance(source, (FockInput, FockMixtureInput)):
        weights = ((source.n, 1.0),) if isinstance(source, FockInput) else source.weights
        # Left to right from 0.0: sum() compensates float sums from Python 3.12.
        n_mean = a22 = 0.0
        for n, p in weights:
            n_mean += p * n
            a22 += p * n * (n - 1)
        return n_mean, a22
    if isinstance(source, CoherentInput):
        n = abs(source.beta) ** 2
        return n, n * n
    if isinstance(source, SqueezedVacuumInput):
        sh, ch = math.sinh(source.s), math.cosh(source.s)
        return sh * sh, (sh * ch) ** 2 + 2.0 * sh**4
    raise InvalidArgumentError(f"unknown input state {source!r}")


# ---------------------------------------------------------------------------
# Moment sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSet:
    """Second-through-fourth order observables extracted from one function."""

    x_mean: float
    p_mean: float
    x2_central: float
    p2_central: float
    cov_xp: float
    mu3_x: float
    mu3_p: float
    mu4_x: float
    mu4_p: float
    kappa4_x: float
    kappa4_p: float
    n_mean: float
    g2_zero: Optional[float]
    is_state: bool = True
    label: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = tuple(
    field.name for field in dataclasses.fields(MomentSet) if field.name not in ("is_state", "label")
)


def moment_set(source) -> MomentSet:
    """Full :class:`MomentSet` of a catalog input state or a teleportation output.

    The quadrature fields are entries of the cumulant table, for an output
    ``g^(n+m) K_in + K_tau``; the photon numbers come from
    :func:`photon_moments`.  ``g2_zero`` is None when ``n_mean`` is below 1e-12.
    Raises :class:`~cvteleport.errors.EvaluationError` when a field overflows
    or is not finite.
    """
    label = _label(source)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite field raises below
            ms = _moment_set(source, label)
    except OverflowError:
        raise EvaluationError(f"the moments of {label} overflow") from None
    for field in _FIELDS:
        value = getattr(ms, field)
        if value is not None and not math.isfinite(value):
            raise EvaluationError(f"the moment {field} of {label} is not finite: {value!r}")
    return ms


def _label(source) -> str:
    return source.label if isinstance(source, OutputState) else f"{source!r}"


def _moment_set(source, label: str) -> MomentSet:
    if isinstance(source, OutputState):
        g, k_tau = source.channel.gain, _transfer_cumulants(source.channel)
        k = {key: g ** sum(key) * v + k_tau[key] for key, v in _state_cumulants(source.input).items()}
    else:
        k = _state_cumulants(source)
    x2, p2 = k[(2, 0)], k[(0, 2)]
    if x2 < -1e-10 or p2 < -1e-10:
        raise ConsistencyError(f"negative central second moment for a state ({x2!r}, {p2!r})")
    n_mean, a22 = _photon_moments(source)
    return MomentSet(
        x_mean=k[(1, 0)],
        p_mean=k[(0, 1)],
        x2_central=x2,
        p2_central=p2,
        cov_xp=k[(1, 1)],
        mu3_x=k[(3, 0)],
        mu3_p=k[(0, 3)],
        mu4_x=k[(4, 0)] + 3.0 * x2 * x2,
        mu4_p=k[(0, 4)] + 3.0 * p2 * p2,
        kappa4_x=k[(4, 0)],
        kappa4_p=k[(0, 4)],
        n_mean=n_mean,
        g2_zero=a22 / (n_mean * n_mean) if abs(n_mean) > _N_MEAN_FLOOR else None,
        label=label,
    )


# ---------------------------------------------------------------------------
# Closed-form resource expressions and distortion records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceClosedForms:
    """Closed-form transfer-function "averages" in Delta, theta, and r.

    With ``F(|xi|^2)`` the transfer function, ``x2_ab = -2 F'(0)`` and
    ``n_ab = -F'(0) - 1 = x2_ab / 2 - 1``, a bookkeeping quantity that shares
    its minimizer in Delta with the ``n_transfer`` objective ``-F'(0)``.
    ``kappa4_ab`` is
    ``24 e^{-4r} (1 - Delta^2) [1 - 2 (Delta cos(theta) - sqrt(1 - Delta^2))^2]``,
    the fourth x-cumulant of the transfer function at every theta.
    """

    x2_ab: float
    n_ab: float
    kappa4_ab: float


def resource_closed_forms(res: SqueezedBellResource) -> ResourceClosedForms:
    delta, theta, r = res.delta, res.theta, res.r
    q = math.sqrt(max(1.0 - delta * delta, 0.0))
    x2 = math.exp(-2.0 * r) * (6.0 - 4.0 * delta**2 - 4.0 * delta * q * math.cos(theta))
    kappa4 = (
        24.0 * math.exp(-4.0 * r) * (1.0 - delta * delta)
        * (1.0 - 2.0 * (delta * math.cos(theta) - q) ** 2)
    )
    return ResourceClosedForms(x2_ab=x2, n_ab=0.5 * x2 - 1.0, kappa4_ab=kappa4)


@dataclass(frozen=True)
class CovarianceDistortion:
    """Second-moment distortion record; ``d_x2``, ``d_p2`` and ``d_cov`` are the
    transfer table's entries ``out - g^2 in``, which is ``out - in`` only at g = 1."""

    x2_in: float
    x2_out: float
    p2_in: float
    p2_out: float
    cov_in: float
    cov_out: float
    d_x2: float
    d_p2: float
    d_cov: float
    gain: float


def distortion_covariance(state: InputState, ch: Channel) -> CovarianceDistortion:
    """In/out second central moments and the transfer table's entries, read off
    the cumulant tables: the output's is ``g^2 K_in + K_tau``, so
    ``d = out - g^2 in`` is ``K_tau`` alone, whatever the input.  Raises
    :class:`~cvteleport.errors.EvaluationError` where an entry overflows."""
    k_in, k_tau = state_cumulants(state), transfer_cumulants(ch)
    x2, p2, cov = (2, 0), (0, 2), (1, 1)
    x2_out, p2_out, cov_out = _checked(
        f"output second moments of {state!r} through {transfer_label(ch)}",
        lambda: tuple(ch.gain ** 2 * k_in[key] + k_tau[key] for key in (x2, p2, cov)),
    )
    return CovarianceDistortion(
        x2_in=k_in[x2],
        x2_out=x2_out,
        p2_in=k_in[p2],
        p2_out=p2_out,
        cov_in=k_in[cov],
        cov_out=cov_out,
        d_x2=k_tau[x2],
        d_p2=k_tau[p2],
        d_cov=k_tau[cov],
        gain=ch.gain,
    )


def squeezing_ratio(source) -> float:
    """Squeezing ``S = <Dx^2> / <Dp^2>`` of a state (1 means unsqueezed)."""
    ms = source if isinstance(source, MomentSet) else moment_set(source)
    if ms.p2_central <= _N_MEAN_FLOOR:
        raise DegenerateStateError("squeezing undefined: vanishing momentum variance")
    return ms.x2_central / ms.p2_central


@dataclass(frozen=True)
class SqueezingTransmission:
    s_in: float
    s_out: float
    quotient: float


def squeezing_transmission(state: InputState, ch: Channel) -> SqueezingTransmission:
    s_in = squeezing_ratio(moment_set(state))
    s_out = squeezing_ratio(moment_set(teleport(state, ch)))
    return SqueezingTransmission(s_in=s_in, s_out=s_out, quotient=s_out / s_in)
