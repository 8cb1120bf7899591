"""Exact one-dimensional optimization of the resource parameter Delta.

With ``Delta = cos(t/2)``, ``t`` in ``[0, pi]``, the weights of
:func:`cvteleport.states.delta_weights` are linear in ``{1, cos t, sin t}``
and every objective is linear or quadratic in them: it is ``outer(g(t))``,
``g`` a trigonometric polynomial of degree 2 and ``outer`` the identity, a
square root or ``|.|``.  :func:`minimize_delta` fits ``g`` at five Deltas,
checks the fit at a sixth, and finds the stationary points (for ``|.|``
also the zeros) of ``g`` as unit-circle roots of quartics in ``e^{it}``.  The
deepest interior local minimum wins, even over a lower end (the fourth-order
transfer cumulant's stationary minimum is the optimum of record); without
one, the lower end.  Ties go to the smaller Delta.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions; the test suite holds the optimizer to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, CVTeleportError, EvaluationError, InvalidArgumentError
from .moments import moment_set, transfer_xp_table
from .numerics import QuadratureConfig
from .photonstats import d_functional, delta_family
from .states import Channel, InputState, SqueezedBellResource

OBJECTIVE_KINDS = (
    "x2_transfer",
    "kappa4_transfer",
    "n_transfer",
    "mu4_x",
    "mu4_p",
    "d_functional",
    "one_minus_fidelity",
    "frobenius",
)
INPUT_DEPENDENT_KINDS = ("mu4_x", "mu4_p", "d_functional", "one_minus_fidelity", "frobenius")

CLOSED_FORM_KINDS = (
    "fidelity_fock1",
    "fidelity_coherent",
    "mu4_x_coherent",
    "mu4_x_squeezed",
    "mu4_x_fock1",
    "mu4_p_squeezed",
)

# Fit nodes at t = 0, pi/4, pi/2, 3pi/4, pi (exactly Delta = 1 and 0), check node at t = 3pi/8.
_NODES = (1.0, math.cos(math.pi / 8), math.sqrt(0.5), math.sin(math.pi / 8), 0.0)
_CHECK_NODE = math.cos(3 * math.pi / 16)
_FIT_RTOL = 1e-9  # relative check mismatch; exact objectives stay near 1e-14
# Sums of probabilities and overlaps (<= 1) that round on that scale, not relative to g.
_FAMILY_KINDS = ("d_functional", "one_minus_fidelity", "frobenius")
# A root this close to the unit circle is a real t, and a t this close to 0 or pi an end.
_ROOT_TOL = 1e-7


@dataclass(frozen=True)
class Objective:
    """A distortion measure seen as a function of Delta at fixed (theta, r)."""

    kind: str
    r: float
    theta: float = 0.0
    input: Optional[InputState] = None
    gain: float = 1.0
    n_photons: int = 24
    quad_cfg: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidArgumentError(f"unknown objective kind {self.kind!r}")
        if self.kind in INPUT_DEPENDENT_KINDS and self.input is None:
            raise InvalidArgumentError(f"objective {self.kind!r} requires an input state")


@dataclass(frozen=True)
class OptimumRecord:
    """One optimized cell; ``iterations`` counts the objective evaluations spent."""

    delta_star: float
    objective_value: float
    r: float
    kind: str
    iterations: int
    error: Optional[str] = None


def _channel(obj: Objective, delta: float) -> Channel:
    return Channel(
        SqueezedBellResource(delta=delta, theta=obj.theta, r=obj.r), gain=obj.gain
    )


def _objective_parts(obj: Objective):
    """``(g, outer)`` with objective ``outer(g(Delta))`` and ``g`` trigonometric in t."""
    if obj.kind in ("x2_transfer", "n_transfer"):
        # n_transfer, the bare-derivative photon-number average, is x2 / 2;
        # resource_closed_forms.n_ab differs by a constant, so the minimizer is shared.
        half = 0.5 if obj.kind == "n_transfer" else 1.0
        return (lambda d: half * float(transfer_xp_table(_channel(obj, d)).get(2, 0))), float

    if obj.kind == "kappa4_transfer":
        def table_kappa4(d: float) -> float:
            tab = transfer_xp_table(_channel(obj, d))
            mu2 = float(tab.get(2, 0))
            return float(tab.get(4, 0)) - 3.0 * mu2 * mu2

        return table_kappa4, float

    if obj.kind in ("mu4_x", "mu4_p"):
        ms_in = moment_set(obj.input)
        in_var = ms_in.x2_central if obj.kind == "mu4_x" else ms_in.p2_central
        key_mu4 = (4, 0) if obj.kind == "mu4_x" else (0, 4)
        g2 = obj.gain * obj.gain

        def mu4_distortion(d: float) -> float:
            tab = transfer_xp_table(_channel(obj, d))
            return float(tab.get(*key_mu4)) + 6.0 * g2 * in_var * float(tab.get(2, 0))

        return mu4_distortion, abs

    family = delta_family(
        obj.input, obj.r, obj.theta, obj.gain, obj.n_photons, obj.quad_cfg
    )

    if obj.kind == "d_functional":
        return (lambda d: d_functional(family.p_in, family.photon_distribution(d)) ** 2), math.sqrt

    if obj.kind == "one_minus_fidelity":
        return (lambda d: 1.0 - family.fidelity(d)), float

    def frobenius_squared(d: float) -> float:
        return family.purity_in + family.purity_out(d) - 2.0 * family.fidelity(d)

    return frobenius_squared, lambda v: math.sqrt(max(v, 0.0))  # rounding can dip below 0


def objective_function(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> objective value for ``obj``."""
    g, outer = _objective_parts(obj)
    return lambda d: outer(g(d))


def _basis(delta) -> np.ndarray:
    """Rows ``(1, cos t, sin t, cos 2t, sin 2t)`` at ``t = 2 arccos(Delta)``."""
    d2 = np.square(delta)
    c, s = 2.0 * d2 - 1.0, 2.0 * np.multiply(delta, np.sqrt(np.maximum(1.0 - d2, 0.0)))
    return np.stack([np.ones_like(c), c, s, 2.0 * c * c - 1.0, 2.0 * s * c], axis=-1)


_FIT = np.linalg.inv(_basis(_NODES))


def _interior_roots(quartic) -> list:
    """Delta = cos(t/2) at each real t in (0, pi) with ``quartic(e^{it}) = 0``."""
    z = np.roots(quartic).astype(complex)
    # Newton steps on the quartic: a near-zero leading coefficient (g almost
    # free of cos 2t, sin 2t) leaves np.roots inexact near the unit circle.
    z = z[(np.abs(z) > 0.5) & (np.abs(z) < 2.0)]
    for _ in range(3):
        dz = np.polyval(np.polyder(quartic), z)
        z = z - np.divide(np.polyval(quartic, z), dz, out=np.zeros_like(z), where=dz != 0)
    t = np.angle(z[np.abs(np.abs(z) - 1.0) <= _ROOT_TOL])
    return np.cos(0.5 * t[(t > _ROOT_TOL) & (t < math.pi - _ROOT_TOL)]).tolist()


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta.

    Raises ``EvaluationError`` for a non-finite objective, ``ConsistencyError`` for a failed fit.
    """
    g, outer = _objective_parts(obj)

    def G(x: float) -> float:
        v = float(g(x))
        if not math.isfinite(v):
            raise EvaluationError(f"objective {obj.kind!r} non-finite at delta={x!r}", delta=x)
        return v

    values = np.array([G(x) for x in _NODES + (_CHECK_NODE,)])
    # Fitting offsets from the first sample keeps a constant g exactly flat.
    coef = _FIT @ (values[:5] - values[0]) + [values[0], 0, 0, 0, 0]
    mismatch = abs(_basis(_CHECK_NODE) @ coef - values[5])
    scale = max(np.max(np.abs(values)), 1.0 if obj.kind in _FAMILY_KINDS else 0.0)
    if mismatch > _FIT_RTOL * scale:
        raise ConsistencyError(
            f"objective {obj.kind!r} is no degree-2 trigonometric polynomial: "
            f"fit mismatch {mismatch:.3e} at delta={_CHECK_NODE!r}"
        )

    # g = a0 + Re(u1 z + u2 z^2) at z = e^{it}; z^2 g'(t) / i and z^2 g(t) are quartics in z.
    a0, u1, u2 = coef[0], coef[1] - 1j * coef[2], coef[3] - 1j * coef[4]
    stationary = np.array(_interior_roots([u2, u1 / 2, 0, -u1.conjugate() / 2, -u2.conjugate()]))
    rows = _basis(stationary)
    curvature = rows @ (coef * [0, -1, -1, -4, -4])  # g''(t)
    if outer is abs:  # |g| also dips where g has a negative maximum, and at zeros of g
        curvature *= np.sign(rows @ coef)
    minima = stationary[curvature > 0].tolist()
    if outer is abs:
        minima += _interior_roots([u2 / 2, u1 / 2, a0, u1.conjugate() / 2, u2.conjugate() / 2])
    if minima:
        _, delta_star = min((outer(float(_basis(d) @ coef)), d) for d in minima)
        value = outer(G(delta_star))
    else:
        value, delta_star = min((outer(values[4]), 0.0), (outer(values[0]), 1.0))
    return OptimumRecord(delta_star, float(value), obj.r, obj.kind, iterations=7 if minima else 6)


def closed_form_delta(kind: str, r: float, s: Optional[float] = None) -> float:
    """Evaluate one of the six closed-form optimal-Delta expressions."""
    if kind not in CLOSED_FORM_KINDS:
        raise InvalidArgumentError(f"unknown closed-form kind {kind!r}")
    if kind in ("mu4_x_squeezed", "mu4_p_squeezed") and s is None:
        raise InvalidArgumentError(f"closed form {kind!r} requires the input squeezing s")

    if kind == "fidelity_fock1":
        e2r, e4r, e6r = math.exp(2 * r), math.exp(4 * r), math.exp(6 * r)
        arg = math.exp(-2 * r) * (1 - e2r + e4r + 3 * e6r) / (3.0 * (e2r - 1.0) ** 2)
        return math.cos(0.5 * math.atan(arg))
    if kind == "fidelity_coherent":
        return math.cos(0.5 * math.atan(1.0 + math.exp(-2.0 * r)))
    if kind == "mu4_x_coherent":
        e2r = math.exp(2.0 * r)
        num = (3.0 + e2r) ** 2
        return math.sqrt(1.0 + num / math.sqrt(num * (13.0 + 2.0 * e2r * (5.0 + e2r)))) / math.sqrt(2.0)
    if kind == "mu4_x_squeezed":
        e2r, e2s = math.exp(2.0 * r), math.exp(2.0 * s)
        num = (e2r + 3.0 * e2s) ** 2
        den = math.sqrt(num * (2.0 * e2r**2 + 13.0 * e2s**2 + 10.0 * e2r * e2s))
        return math.sqrt(1.0 + num / den) / math.sqrt(2.0)
    if kind == "mu4_x_fock1":
        e2r = math.exp(2.0 * r)
        sq = (1.0 + e2r) ** 2
        return math.sqrt(
            1.0 + 3.0 * sq / math.sqrt(sq * (13.0 + 30.0 * e2r + 18.0 * e2r * e2r))
        ) / math.sqrt(2.0)
    # mu4_p_squeezed: the x-form of the coherent case with r -> r + s
    e2rs = math.exp(2.0 * (r + s))
    num = (3.0 + e2rs) ** 2
    return math.sqrt(1.0 + num / math.sqrt(num * (13.0 + 2.0 * e2rs * (5.0 + e2rs)))) / math.sqrt(2.0)


def sweep_r(
    kinds: Sequence[str],
    r_grid: Sequence[float],
    input: Optional[InputState] = None,
    theta: float = 0.0,
    gain: float = 1.0,
    n_photons: int = 24,
    quad_cfg: QuadratureConfig | None = None,
) -> list[OptimumRecord]:
    """Minimize every (kind, r) cell; a cell's ``CVTeleportError`` is recorded and
    the sweep continues, any other exception is a fault and propagates."""
    if not kinds or len(r_grid) == 0:
        raise InvalidArgumentError("sweep needs nonempty kind and r grids")
    records = []
    for kind in kinds:
        for r in r_grid:
            try:
                obj = Objective(
                    kind=kind,
                    r=float(r),
                    theta=theta,
                    input=input,
                    gain=gain,
                    n_photons=n_photons,
                    quad_cfg=quad_cfg or QuadratureConfig(),
                )
                records.append(minimize_delta(obj))
            except CVTeleportError as exc:  # record the cell, keep sweeping
                records.append(
                    OptimumRecord(
                        delta_star=float("nan"),
                        objective_value=float("nan"),
                        r=float(r),
                        kind=kind,
                        iterations=0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return records
