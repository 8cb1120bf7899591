"""Raw moments, central moments, cumulants, and distortion records.

Derivative conventions
----------------------

Texts in this area disagree on where ``1/i^(n+m)`` prefactors sit, so the
package fixes one convention and validates it against every closed form in
the catalog:

* Quadrature-sector ("xp") moments of any one-mode function ``f``:

  ``M(n, m) = Re[ (1/i)^(n+m) d^(n+m) f / dz^n dw^m |_0 ]``

  In this scale the vacuum has ``<x^2> = 1`` and a coherent state with real
  displacement ``beta`` has ``<x> = 2 beta`` (the quadratures are measured in
  units of ``a + a^dag``).

* Ladder-sector ("normal") moments:

  ``A(n, m) = d^n/d xi^n (-d/d xi*)^m G |_0``

  where ``G`` is the normal-ordered function ``exp(|xi|^2/2) chi`` for a
  state, but the *bare* restriction ``chi_AB(g xi*, xi)`` for a transfer
  function.  The bare choice is forced by the Leibniz/binomial expansion of
  the output: the ordering factor of ``chi_out`` attaches entirely to the
  input factor.  With it, ``A(1,1)`` is the physical photon number for states
  (coherent: ``|beta|^2``, Fock-n: ``n``) and output-photon-number additivity
  ``<n>_out = g^2 <n>_in + A_tilde(1,1)`` holds exactly.

The closed-form transfer-function photon-number "average"
(:func:`resource_closed_forms` field ``n_ab``) equals the bare-derivative
value minus 1; both share the same minimizer in ``Delta``, which is the only
property asserted across the two (their offset is a pure ordering-bookkeeping
convention).

All moments come from the exact per-state tables below.  The tests hold
them against a finite-difference engine that differentiates the
characteristic functions numerically (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
_NORMAL_KEYS = tuple((i, j) for i in range(3) for j in range(3))


@dataclass(frozen=True)
class MomentTable:
    """Raw-moment lookup table for one state or transfer function.

    ``kind`` is ``"xp"`` (quadrature sector, real entries) or ``"normal"``
    (ladder sector, complex entries).  ``is_state`` is False for transfer
    functions, whose entries need not satisfy state inequalities.
    """

    values: dict
    kind: str
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


def _transfer_radial_derivs(ch: Channel):
    """F'(0), F''(0) of the transfer function at the resource's Delta and theta."""
    w = np.array(delta_weights(ch.resource))
    return tuple(float(d @ w) for d in transfer_derivative_forms(ch))


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
    return MomentTable(vals, kind="xp", is_state=True, label=f"xp[{state!r}]")


def state_normal_table(state: InputState) -> MomentTable:
    """Closed-form ladder-sector moments ``A(n, m) = <a^dag^n a^m>``, n, m <= 2."""
    vals = {key: 0.0 + 0.0j for key in _NORMAL_KEYS}
    vals[(0, 0)] = 1.0 + 0.0j
    if isinstance(state, FockInput):
        n = state.n
        vals[(1, 1)] = complex(n)
        vals[(2, 2)] = complex(n * (n - 1))
    elif isinstance(state, CoherentInput):
        beta = state.beta
        for i, j in _NORMAL_KEYS:
            vals[(i, j)] = np.conj(beta) ** i * beta**j
    elif isinstance(state, SqueezedVacuumInput):
        sh, chs = math.sinh(state.s), math.cosh(state.s)
        vals[(1, 1)] = complex(sh * sh)
        vals[(2, 0)] = vals[(0, 2)] = complex(-sh * chs)
        vals[(2, 2)] = complex((sh * chs) ** 2 + 2.0 * sh**4)
    elif isinstance(state, FockMixtureInput):
        for n, p in state.weights:
            vals[(1, 1)] += p * n
            vals[(2, 2)] += p * n * (n - 1)
    else:
        raise InvalidArgumentError(f"unknown input state {state!r}")
    return MomentTable(vals, kind="normal", is_state=True, label=f"normal[{state!r}]")


def transfer_xp_table(ch: Channel) -> MomentTable:
    """Quadrature-sector "averages" of the transfer function (non-state)."""
    f1, f2 = _transfer_radial_derivs(ch)
    return MomentTable(
        _radial_xp_values(f1, f2), kind="xp", is_state=False, label=f"xp[transfer {ch!r}]"
    )


def transfer_normal_table(ch: Channel) -> MomentTable:
    """Ladder-sector "averages" of the bare transfer function (non-state)."""
    f1, f2 = _transfer_radial_derivs(ch)
    vals = {key: 0.0 + 0.0j for key in _NORMAL_KEYS}
    vals[(0, 0)] = 1.0 + 0.0j
    vals[(1, 1)] = complex(-f1)
    vals[(2, 2)] = complex(2.0 * f2)
    return MomentTable(vals, kind="normal", is_state=False, label=f"normal[transfer {ch!r}]")


def output_moment_binomial(
    input_moms: MomentTable, transfer_moms: MomentTable, n: int, m: int, g: float
):
    """Output raw moment from the double binomial sum over input/transfer tables.

    ``sum_{i<=n, j<=m} C(n,i) C(m,j) g^(i+j) <.>_in(i,j) <.>_AB(n-i, m-j)``.
    """
    if input_moms.kind != transfer_moms.kind:
        raise InvalidArgumentError("input and transfer tables use different sectors")
    acc = 0.0 if input_moms.kind == "xp" else 0.0 + 0.0j
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
    return MomentTable(vals, kind="xp", is_state=True, label=f"xp[out {state!r}]")


def output_normal_table(state: InputState, ch: Channel) -> MomentTable:
    tin = state_normal_table(state)
    tab = transfer_normal_table(ch)
    vals = {
        (n, m): output_moment_binomial(tin, tab, n, m, ch.gain) for n, m in _NORMAL_KEYS
    }
    return MomentTable(vals, kind="normal", is_state=True, label=f"normal[out {state!r}]")


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
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "x_mean": self.x_mean,
            "p_mean": self.p_mean,
            "x2_central": self.x2_central,
            "p2_central": self.p2_central,
            "cov_xp": self.cov_xp,
            "mu3_x": self.mu3_x,
            "mu3_p": self.mu3_p,
            "mu4_x": self.mu4_x,
            "mu4_p": self.mu4_p,
            "kappa4_x": self.kappa4_x,
            "kappa4_p": self.kappa4_p,
            "n_mean": self.n_mean,
            "g2_zero": self.g2_zero,
            "is_state": self.is_state,
            "label": self.label,
        }


def _central_from_raw(m1, m2, m3, m4):
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return mu2, mu3, mu4


def moment_set_from_tables(xp: MomentTable, normal: MomentTable, label: str = "") -> MomentSet:
    x_mean = float(np.real(xp.get(1, 0)))
    p_mean = float(np.real(xp.get(0, 1)))
    x2c, mu3x, mu4x = _central_from_raw(
        x_mean, np.real(xp.get(2, 0)), np.real(xp.get(3, 0)), np.real(xp.get(4, 0))
    )
    p2c, mu3p, mu4p = _central_from_raw(
        p_mean, np.real(xp.get(0, 2)), np.real(xp.get(0, 3)), np.real(xp.get(0, 4))
    )
    cov = float(np.real(xp.get(1, 1))) - x_mean * p_mean
    kappa4x = mu4x - 3.0 * x2c * x2c
    kappa4p = mu4p - 3.0 * p2c * p2c
    n_mean = float(np.real(normal.get(1, 1)))
    a22 = float(np.real(normal.get(2, 2)))
    is_state = xp.is_state and normal.is_state
    if is_state and (x2c < -1e-10 or p2c < -1e-10):
        raise ConsistencyError(
            f"negative central second moment for a state ({x2c!r}, {p2c!r})"
        )
    g2 = a22 / (n_mean * n_mean) if abs(n_mean) > _N_MEAN_FLOOR else None
    notes = {
        "xp": "derivative convention: <x^n p^m> = Re[(1/i)^(n+m) d^(n+m) chi / dz^n dw^m]_0",
        "normal": "states: normal-ordered; transfer functions: bare derivatives",
        "g2_zero": "absent (null) when n_mean is below 1e-12",
    }
    return MomentSet(
        x_mean=x_mean,
        p_mean=p_mean,
        x2_central=float(x2c),
        p2_central=float(p2c),
        cov_xp=cov,
        mu3_x=float(mu3x),
        mu3_p=float(mu3p),
        mu4_x=float(mu4x),
        mu4_p=float(mu4p),
        kappa4_x=float(kappa4x),
        kappa4_p=float(kappa4p),
        n_mean=n_mean,
        g2_zero=g2,
        is_state=is_state,
        label=label,
        notes=notes,
    )


def moment_set(source) -> MomentSet:
    """Full :class:`MomentSet` of a catalog input state or a teleportation output.

    Both come from the exact closed-form tables.
    """
    if isinstance(source, OutputState):
        return moment_set_from_tables(
            output_xp_table(source.input, source.channel),
            output_normal_table(source.input, source.channel),
            label=source.charfn.label,
        )
    # catalog input state
    return moment_set_from_tables(
        state_xp_table(source), state_normal_table(source), label=f"{source!r}"
    )


# ---------------------------------------------------------------------------
# Closed-form resource expressions and distortion records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceClosedForms:
    """Closed-form transfer-function "averages" in Delta, theta, and r.

    ``n_ab`` carries an ordering bookkeeping that sits exactly 1 below the
    bare-derivative photon-number average; only its minimizer in Delta is
    convention-independent.  ``kappa4_ab`` is
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
