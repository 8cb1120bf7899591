"""Exact one-dimensional optimization of the resource parameter Delta.

Every objective is ``outer(w @ Q @ w)``: ``w`` the weights of
:func:`cvteleport.states.delta_weights`, ``Q`` a Delta-free 3 x 3 matrix
from the transfer-derivative forms or the Delta family, and ``outer`` the
identity, a square root or ``|.|``.  With ``Delta = cos(t/2)``, ``t`` in
``[0, pi]``, ``w`` is linear in ``{1, cos t, sin t}``, so ``w @ Q @ w`` is a
trigonometric polynomial ``g(t)`` of degree 2 whose coefficients are a linear
map of ``Q``.  :func:`minimize_delta` finds the stationary points (for
``|.|`` also the zeros) of ``g`` as unit-circle roots of quartics in
``e^{it}``.  The deepest interior local minimum wins, even over a lower end
(the fourth-order transfer cumulant's stationary minimum is the optimum of
record); without one, the lower end.  Ties go to the smaller Delta.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions; the test suite holds the optimizer to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AccuracyError, CVTeleportError, EvaluationError, InvalidArgumentError
from .moments import moment_set, transfer_derivative_forms
from .photonstats import delta_family
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

# _ONE @ w = Delta^2 + (1 - Delta^2) = 1, so a linear objective l @ w is (l @ w)(_ONE @ w).
_ONE = np.array([1.0, 0.0, 1.0])
_UPPER = np.triu_indices(3)
# A coefficient sums at most four entries of Q of at most four terms each,
# every term rounded to about an ulp: 16 eps of the largest terms bounds
# that rounding.
_ROUNDING = 16.0 * np.finfo(float).eps
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


def _sym(x, y) -> np.ndarray:
    return 0.5 * (np.outer(x, y) + np.outer(y, x))


def _form(obj: Objective):
    """``(Q, terms, outer, family)``: objective ``outer(w @ Q @ w)``, ``terms`` the
    sums of the absolute values of the terms summed into ``Q``, and ``family`` the
    :class:`DeltaFamily` that ``Q`` was read from, if any."""
    if obj.kind in ("d_functional", "one_minus_fidelity", "frobenius"):
        family = delta_family(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons)
        if obj.kind == "d_functional":
            # P_out - P_in, P_in on the columns that sum to 1: no O(1) terms cancel in Q.
            diff = family.photon_basis - np.outer(family.p_in.clamped(), _ONE)
            return diff.T @ diff, np.abs(diff).T @ np.abs(diff), math.sqrt, family
        f = family.fidelity_basis
        if obj.kind == "frobenius":  # purity_in + purity_out - 2 F
            ones = family.purity_in * np.outer(_ONE, _ONE)
            Q = family.gram + ones - 2.0 * _sym(f, _ONE)
            terms = np.abs(family.gram) + ones + 2.0 * _sym(np.abs(f), _ONE)
            return Q, terms, (lambda v: math.sqrt(max(v, 0.0))), family  # rounding can dip below 0
        return _sym(_ONE - f, _ONE), _sym(_ONE + np.abs(f), _ONE), float, family

    d1, d2 = transfer_derivative_forms(_channel(obj, 1.0))
    if obj.kind == "kappa4_transfer":  # mu4 - 3 mu2^2 = 12 F''(0) - 12 F'(0)^2
        Q = 12.0 * (_sym(d2, _ONE) - np.outer(d1, d1))
        terms = 12.0 * (_sym(np.abs(d2), _ONE) + np.outer(np.abs(d1), np.abs(d1)))
        return Q, terms, float, None
    if obj.kind in ("mu4_x", "mu4_p"):  # mu4 + 6 g^2 var mu2, mu4 = 12 F''(0), mu2 = -2 F'(0)
        ms_in = moment_set(obj.input)
        var = obj.gain * obj.gain * (ms_in.x2_central if obj.kind == "mu4_x" else ms_in.p2_central)
        line, terms = 12.0 * d2 - 12.0 * var * d1, 12.0 * np.abs(d2) + 12.0 * abs(var) * np.abs(d1)
        return _sym(line, _ONE), _sym(terms, _ONE), abs, None
    # x2 = -2 F'(0); n_transfer, the bare-derivative photon-number average, is x2 / 2;
    # resource_closed_forms.n_ab differs by a constant, so the minimizer is shared.
    line = (-1.0 if obj.kind == "n_transfer" else -2.0) * d1
    return _sym(line, _ONE), _sym(np.abs(line), _ONE), float, None


def _trig_form(obj: Objective):
    """``(coef, outer, family)`` with objective ``outer(_basis(Delta) @ coef)``.

    ``trig`` maps ``Q[_UPPER]`` to ``coef`` through ``w = W (1, cos t, sin t)``,
    ``W = [[1/2, 1/2, 0], [0, 0, cos theta], [1/2, -1/2, 0]]``.  Raises
    ``EvaluationError`` for a non-finite form and ``AccuracyError`` when the
    Delta-dependent coefficients lie within the rounding of their largest terms.
    """
    c = math.cos(obj.theta)
    trig = np.array([
        [0.375, 0.0, 0.25, 0.5 * c * c, 0.0, 0.375],
        [0.5, 0.0, 0.0, 0.0, 0.0, -0.5],
        [0.0, c, 0.0, 0.0, c, 0.0],
        [0.125, 0.0, -0.25, -0.5 * c * c, 0.0, 0.125],
        [0.0, 0.5 * c, 0.0, 0.0, -0.5 * c, 0.0],
    ])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form raises below
        Q, terms, outer, family = _form(obj)
        coef = trig @ Q[_UPPER]
        rounding = _ROUNDING * np.max(np.abs(trig[1:]) @ terms[_UPPER])
    if not np.all(np.isfinite(coef)):
        raise EvaluationError(f"objective {obj.kind!r} has non-finite coefficients {coef!r}")
    variation = np.max(np.abs(coef[1:]))
    if variation <= rounding:
        raise AccuracyError(
            f"objective {obj.kind!r} varies over Delta by {variation:.3e}, within the "
            f"rounding {rounding:.3e} of its terms; no optimum can be certified",
            estimate=variation,
        )
    return coef, outer, family


def objective_function(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> objective value for ``obj``, from its trigonometric form."""
    coef, outer, _ = _trig_form(obj)

    def f(delta: float) -> float:
        _channel(obj, delta)  # validates Delta
        return outer(float(_basis(delta) @ coef))

    return f


def _basis(delta) -> np.ndarray:
    """Rows ``(1, cos t, sin t, cos 2t, sin 2t)`` at ``t = 2 arccos(Delta)``."""
    d2 = np.square(delta)
    c, s = 2.0 * d2 - 1.0, 2.0 * np.multiply(delta, np.sqrt(np.maximum(1.0 - d2, 0.0)))
    return np.stack([np.ones_like(c), c, s, 2.0 * c * c - 1.0, 2.0 * s * c], axis=-1)


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

    The objective is evaluated once, at the optimum: for the family kinds
    that is the :meth:`DeltaFamily.measures` value ``compare`` prints, with
    its checks.  Raises like :func:`_trig_form`.
    """
    coef, outer, family = _trig_form(obj)

    def g(delta: float) -> float:
        return float(_basis(delta) @ coef)

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
    _, delta_star = min((outer(g(d)), d) for d in minima or [0.0, 1.0])
    if family is None:
        value = outer(g(delta_star))
    else:
        m = family.measures(delta_star)
        value = {"d_functional": m.d_n, "frobenius": m.frobenius}.get(obj.kind, 1.0 - m.fidelity)
    return OptimumRecord(delta_star, float(value), obj.r, obj.kind, iterations=1)


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
