"""Raw moments, central moments, cumulants, and distortion records.

Derivative convention
---------------------

Texts in this area disagree on where ``1/i^(n+m)`` prefactors sit, so the
package fixes one convention and validates it against every closed form in
the catalog.  The quadrature-sector ("xp") moments of any one-mode function
``f`` are

``M(n, m) = Re[ (1/i)^(n+m) d^(n+m) f / dz^n dw^m |_0 ]``

the symmetric-order moments ``<{x^n p^m}>``.  In this scale the vacuum has
``<x^2> = 1`` and a coherent state with real displacement ``beta`` has
``<x> = 2 beta``: the quadratures are ``x = a + a^dag`` and ``[x, p] = 2i``.

Photon numbers.  ``x^2 + p^2 = 4 a^dag a + 2`` and
``(x^2 + p^2)^2 = x^4 + p^4 + 2 {x^2 p^2} - 4`` give
``<a^dag a> = (M(2,0) + M(0,2) - 2) / 4`` and
``<a^dag^2 a^2> = (M(4,0) + M(0,4) + 2 M(2,2) - 8) / 16 - 2 <a^dag a>``
(:func:`moment_set_from_tables`).  They subtract the vacuum's 2 and 8 from
entries near 1, so near the vacuum they keep only absolute accuracy: the
vacuum through a TMSV at r = 10 would get ``g2(0)`` 26, not 2.  So
:func:`photon_moments` takes them in normal order, where no vacuum term is
left: closed forms for the catalog, and for an output the product rule on
``exp(u/2) chi_out = [exp((1 - g^2) u/2) tau] [exp(g^2 u/2) chi_in(g xi)]``,
``u = |xi|^2``.  The first factor is ``exp(-a^2 u) sum_k w_k q_k(u)``
(:func:`~cvteleport.states.transfer_basis`, and ``e - (1 - g^2)/2 = a^2``);
with ``f1, f2`` its derivatives in ``u`` at 0, ``<n>_out = g^2 <n>_in - f1``
and ``<a^dag^2 a^2>_out = g^4 <a^dag^2 a^2>_in - 4 g^2 <n>_in f1 + 2 f2``.
The output xp table applies the same product rule to ``tau(xi) chi_in(g xi)``
(:func:`output_moment_binomial`), so both hold at every gain.

The tests hold the tables against a finite-difference engine that
differentiates the characteristic functions numerically
(``tests/oracles.py``), and the photon moments against the identities on
the tables, the normal-ordered finite differences and the photon
distributions of the Delta family.
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
    delta_weights,
    transfer_coefficients,
)

_N_MEAN_FLOOR = 1e-12

_XP_KEYS = tuple((i, j) for i in range(5) for j in range(5) if i + j <= 4)


@dataclass(frozen=True)
class MomentTable:
    """Quadrature-sector raw moments ``M(n, m)``, ``n + m <= 4``, of one state or
    transfer function.

    ``is_state`` is False for transfer functions, whose entries need not
    satisfy state inequalities.
    """

    values: dict
    is_state: bool
    label: str = ""

    def get(self, n: int, m: int):
        try:
            return self.values[(n, m)]
        except KeyError:
            raise InvalidArgumentError(
                f"moment table {self.label!r} has no entry ({n}, {m})"
            ) from None


def _gauss_raw_moments(mean: float, var: float):
    """Raw moments m_0..m_4 of a 1-D normal distribution."""
    return (
        1.0,
        mean,
        mean**2 + var,
        mean**3 + 3.0 * mean * var,
        mean**4 + 6.0 * mean**2 * var + 3.0 * var**2,
    )


def _product_xp_values(mx, mp):
    return {(i, j): mx[i] * mp[j] for i, j in _XP_KEYS}


def _radial_xp_values(f1: float, f2: float):
    """xp table of a radial function ``F(u)``: F(0)=1 with F'(0)=f1, F''(0)=f2.

    Nonzero only when both orders are even:
    ``M(2a, 2b) = (-1)^(a+b) (2a)! (2b)! / (a! b!) F^(a+b)(0)``.
    """
    vals = {key: 0.0 for key in _XP_KEYS}
    vals[(0, 0)] = 1.0
    vals[(2, 0)] = vals[(0, 2)] = -2.0 * f1
    vals[(2, 2)] = 4.0 * f2
    vals[(4, 0)] = vals[(0, 4)] = 12.0 * f2
    return vals


def transfer_derivative_forms(ch: Channel):
    """``(d1, d2)`` with ``F'(0) = d1 @ w``, ``F''(0) = d2 @ w`` for the transfer
    function seen as ``F(|xi|^2)`` and the weights ``w`` of :func:`delta_weights`
    (``w0 + w2 = 1`` carries the constants).  Only r and the gain enter."""
    a, b = transfer_coefficients(ch)
    e, ab = 0.5 * (a * a + b * b), a * b
    d2 = np.array([e * e, -2.0 * e * ab, 5.0 * e * e + 2.0 * ab * ab])
    return np.array([-e, ab, -3.0 * e]), d2


def _normal_transfer_derivs(ch: Channel):
    """``f1, f2`` of ``exp(-a^2 u) sum_k w_k q_k(u)``, the transfer factor of the
    normal-ordered output (module docstring)."""
    a, b = transfer_coefficients(ch)
    a2, ab, b2 = a * a, a * b, b * b
    w = np.array(delta_weights(ch.resource))
    d1 = np.array([-a2, ab, -2.0 * a2 - b2])
    d2 = np.array([a2 * a2, -2.0 * a2 * ab, 3.0 * a2 * a2 + 4.0 * a2 * b2])
    return float(d1 @ w), float(d2 @ w)


def state_xp_table(state: InputState) -> MomentTable:
    """Closed-form quadrature-sector raw moments of a catalog state."""
    if isinstance(state, FockInput):
        n = state.n
        f1 = -(n + 0.5)
        f2 = 0.5 * n * (n - 1) + n + 0.25
        vals = _radial_xp_values(f1, f2)
    elif isinstance(state, CoherentInput):
        mx = _gauss_raw_moments(2.0 * state.beta.real, 1.0)
        # The derivative convention maps <p> to -2 Im(beta); sign only
        # matters for complex displacements, which the catalog never uses.
        mp = _gauss_raw_moments(-2.0 * state.beta.imag, 1.0)
        vals = _product_xp_values(mx, mp)
    elif isinstance(state, SqueezedVacuumInput):
        mx = _gauss_raw_moments(0.0, math.exp(-2.0 * state.s))
        mp = _gauss_raw_moments(0.0, math.exp(2.0 * state.s))
        vals = _product_xp_values(mx, mp)
    elif isinstance(state, FockMixtureInput):
        vals = {key: 0.0 for key in _XP_KEYS}
        for n, p in state.weights:
            sub = state_xp_table(FockInput(n)).values
            for key in _XP_KEYS:
                vals[key] += p * sub[key]
    else:
        raise InvalidArgumentError(f"unknown input state {state!r}")
    return MomentTable(vals, is_state=True, label=f"xp[{state!r}]")


def transfer_xp_table(ch: Channel) -> MomentTable:
    """Quadrature-sector "averages" of the transfer function (non-state)."""
    w = np.array(delta_weights(ch.resource))
    f1, f2 = (float(d @ w) for d in transfer_derivative_forms(ch))
    return MomentTable(
        _radial_xp_values(f1, f2), is_state=False, label=f"xp[transfer {ch!r}]"
    )


def output_moment_binomial(
    input_moms: MomentTable, transfer_moms: MomentTable, n: int, m: int, g: float
):
    """Output raw moment from the double binomial sum over input/transfer tables.

    ``sum_{i<=n, j<=m} C(n,i) C(m,j) g^(i+j) <.>_in(i,j) <.>_AB(n-i, m-j)``.
    """
    acc = 0.0
    for i in range(n + 1):
        for j in range(m + 1):
            acc += (
                math.comb(n, i)
                * math.comb(m, j)
                * g ** (i + j)
                * input_moms.get(i, j)
                * transfer_moms.get(n - i, m - j)
            )
    return acc


def output_xp_table(state: InputState, ch: Channel) -> MomentTable:
    tin = state_xp_table(state)
    tab = transfer_xp_table(ch)
    vals = {
        (n, m): output_moment_binomial(tin, tab, n, m, ch.gain) for n, m in _XP_KEYS
    }
    return MomentTable(vals, is_state=True, label=f"xp[out {state!r}]")


def photon_moments(source) -> tuple[float, float]:
    """``(<a^dag a>, <a^dag^2 a^2>)`` of a catalog input state or a teleportation
    output, in the closed forms of the module docstring."""
    if isinstance(source, OutputState):
        n, a22 = photon_moments(source.input)
        f1, f2 = _normal_transfer_derivs(source.channel)
        g2 = source.channel.gain ** 2
        return g2 * n - f1, 2.0 * f2 - 4.0 * g2 * n * f1 + g2 * g2 * a22
    if isinstance(source, (FockInput, FockMixtureInput)):
        weights = ((source.n, 1.0),) if isinstance(source, FockInput) else source.weights
        return sum(p * n for n, p in weights), sum(p * n * (n - 1) for n, p in weights)
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


def _central_from_raw(m1, m2, m3, m4):
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return mu2, mu3, mu4


def _moment_set(xp: MomentTable, n_mean: float, a22: float, label: str) -> MomentSet:
    """The :class:`MomentSet` of an xp table and the photon moments ``<a^dag a>``,
    ``<a^dag^2 a^2>``; ``g2_zero`` is None when ``n_mean`` is below 1e-12."""
    x_mean = float(xp.get(1, 0))
    p_mean = float(xp.get(0, 1))
    x2c, mu3x, mu4x = _central_from_raw(x_mean, xp.get(2, 0), xp.get(3, 0), xp.get(4, 0))
    p2c, mu3p, mu4p = _central_from_raw(p_mean, xp.get(0, 2), xp.get(0, 3), xp.get(0, 4))
    if xp.is_state and (x2c < -1e-10 or p2c < -1e-10):
        raise ConsistencyError(
            f"negative central second moment for a state ({x2c!r}, {p2c!r})"
        )
    return MomentSet(
        x_mean=x_mean,
        p_mean=p_mean,
        x2_central=float(x2c),
        p2_central=float(p2c),
        cov_xp=float(xp.get(1, 1)) - x_mean * p_mean,
        mu3_x=float(mu3x),
        mu3_p=float(mu3p),
        mu4_x=float(mu4x),
        mu4_p=float(mu4p),
        kappa4_x=float(mu4x - 3.0 * x2c * x2c),
        kappa4_p=float(mu4p - 3.0 * p2c * p2c),
        n_mean=n_mean,
        g2_zero=a22 / (n_mean * n_mean) if abs(n_mean) > _N_MEAN_FLOOR else None,
        is_state=xp.is_state,
        label=label,
    )


def moment_set_from_tables(xp: MomentTable, label: str = "") -> MomentSet:
    """The :class:`MomentSet` of any xp table, its photon moments read off the
    table by the identities of the module docstring (to absolute rounding only)."""
    n_mean = float(xp.get(2, 0) + xp.get(0, 2) - 2.0) / 4.0
    a22 = float(xp.get(4, 0) + xp.get(0, 4) + 2.0 * xp.get(2, 2) - 8.0) / 16.0 - 2.0 * n_mean
    return _moment_set(xp, n_mean, a22, label)


def moment_set(source) -> MomentSet:
    """Full :class:`MomentSet` of a catalog input state or a teleportation output.

    The quadrature fields come from the exact closed-form xp tables, the
    photon numbers from :func:`photon_moments`.
    """
    if isinstance(source, OutputState):
        table, label = output_xp_table(source.input, source.channel), source.charfn.label
    else:
        table, label = state_xp_table(source), f"{source!r}"
    return _moment_set(table, *photon_moments(source), label)


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
    e2r = math.exp(2.0 * r)
    em2r = math.exp(-2.0 * r)
    x2 = em2r * (6.0 - 4.0 * delta**2 - 4.0 * delta * q * math.cos(theta))
    n_ab = -em2r * (-3.0 + e2r + 2.0 * delta**2 + 2.0 * delta * q * math.cos(theta))
    kappa4 = (
        24.0 * math.exp(-4.0 * r) * (1.0 - delta * delta)
        * (1.0 - 2.0 * (delta * math.cos(theta) - q) ** 2)
    )
    return ResourceClosedForms(x2_ab=x2, n_ab=n_ab, kappa4_ab=kappa4)


@dataclass(frozen=True)
class CovarianceDistortion:
    """Second-moment distortion record; differences depend only on the resource."""

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
    """In/out second central moments and their (input-independent) differences."""
    ms_in = moment_set(state)
    ms_out = moment_set(teleport(state, ch))
    g2 = ch.gain * ch.gain
    d_x2 = ms_out.x2_central - g2 * ms_in.x2_central
    d_p2 = ms_out.p2_central - g2 * ms_in.p2_central
    d_cov = ms_out.cov_xp - g2 * ms_in.cov_xp
    tab = transfer_xp_table(ch)
    expected = float(tab.get(2, 0))
    if abs(d_x2 - expected) > 1e-9 or abs(d_p2 - expected) > 1e-9:
        raise ConsistencyError(
            "covariance distortion depends on the input; moment tables are inconsistent"
        )
    return CovarianceDistortion(
        x2_in=ms_in.x2_central,
        x2_out=ms_out.x2_central,
        p2_in=ms_in.p2_central,
        p2_out=ms_out.p2_central,
        cov_in=ms_in.cov_xp,
        cov_out=ms_out.cov_xp,
        d_x2=d_x2,
        d_p2=d_p2,
        d_cov=d_cov,
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
