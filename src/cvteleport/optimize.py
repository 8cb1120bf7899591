"""Exact one-dimensional optimization of the resource parameter Delta.

Every objective is ``outer(w @ Q @ w)``: ``w`` the weights of
:func:`cvteleport.states.delta_weights`, ``Q`` a Delta-free 3 x 3 matrix
from the transfer-derivative forms or the Delta family, and ``outer`` the
identity, a square root or ``|.|``.  With ``Delta = cos(t/2)``, ``t`` in
``[0, pi]``, ``w`` is linear in ``{1, cos t, sin t}``, so ``w @ Q @ w`` is a
trigonometric polynomial ``g(t)`` of degree 2 whose coefficients are a linear
map of ``Q``.  The candidates are the stationary points (for ``|.|`` also the
zeros) of ``g``: the unit-circle roots of quartics in ``e^{it}``.  The deepest
interior local minimum wins, even over a lower end (the fourth-order transfer
cumulant's stationary minimum is the optimum of record); without one, the
lower end.  Ties go to the smaller Delta.

:func:`sweep_r` solves all of its (kind, r) cells as one array problem.  It
builds each cell's ``Q``, maps the stacked forms to coefficients in one
product, finds every cell's roots in one stacked eigenvalue solve of
companion matrices with Newton steps over the whole stack, and selects every
optimum from one evaluation of all candidates.  :func:`minimize_delta` is
the one-cell case of the same solve.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions; the test suite holds the optimizer to them.
"""

from __future__ import annotations

import functools
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
    xy = np.multiply.outer(x, y)
    return 0.5 * (xy + xy.T)


def _root(v):
    """``sqrt(max(v, 0))``, elementwise: the norm of a square that rounding can dip below 0."""
    return np.sqrt(np.maximum(v, 0.0))


def _form(obj: Objective, input_moments=None, families=None):
    """``(Q, terms, outer, family)``: objective ``outer(w @ Q @ w)``, ``terms`` the
    sums of the absolute values of the terms summed into ``Q``, and ``family`` the
    :class:`DeltaFamily` that ``Q`` was read from, if any.  ``outer`` is ``float``,
    :func:`_root` or ``abs``.  ``input_moments`` maps the input to its
    :class:`MomentSet` in place of :func:`moment_set`, and ``families`` builds the
    family in place of :func:`delta_family`; a sweep passes ones that build each
    once."""
    if obj.kind in ("d_functional", "one_minus_fidelity", "frobenius"):
        family = (families or delta_family)(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons)
        if obj.kind == "d_functional":
            # P_out - P_in, P_in on the columns that sum to 1: no O(1) terms cancel in Q.
            diff = family.photon_basis - np.outer(family.p_in.clamped(), _ONE)
            return diff.T @ diff, np.abs(diff).T @ np.abs(diff), _root, family
        f = family.fidelity_basis
        if obj.kind == "frobenius":  # purity_in + purity_out - 2 F
            ones = family.purity_in * np.outer(_ONE, _ONE)
            Q = family.gram + ones - 2.0 * _sym(f, _ONE)
            terms = np.abs(family.gram) + ones + 2.0 * _sym(np.abs(f), _ONE)
            return Q, terms, _root, family
        return _sym(_ONE - f, _ONE), _sym(_ONE + np.abs(f), _ONE), float, family

    d1, d2 = transfer_derivative_forms(_channel(obj, 1.0))
    if obj.kind == "kappa4_transfer":  # mu4 - 3 mu2^2 = 12 F''(0) - 12 F'(0)^2
        Q = 12.0 * (_sym(d2, _ONE) - np.outer(d1, d1))
        terms = 12.0 * (_sym(np.abs(d2), _ONE) + np.outer(np.abs(d1), np.abs(d1)))
        return Q, terms, float, None
    if obj.kind in ("mu4_x", "mu4_p"):  # mu4 + 6 g^2 var mu2, mu4 = 12 F''(0), mu2 = -2 F'(0)
        ms_in = (input_moments or moment_set)(obj.input)
        var = obj.gain * obj.gain * (ms_in.x2_central if obj.kind == "mu4_x" else ms_in.p2_central)
        line, terms = 12.0 * d2 - 12.0 * var * d1, 12.0 * np.abs(d2) + 12.0 * abs(var) * np.abs(d1)
        return _sym(line, _ONE), _sym(terms, _ONE), abs, None
    # x2 = -2 F'(0); n_transfer, the bare-derivative photon-number average, is x2 / 2;
    # resource_closed_forms.n_ab differs by a constant, so the minimizer is shared.
    line = (-1.0 if obj.kind == "n_transfer" else -2.0) * d1
    return _sym(line, _ONE), _sym(np.abs(line), _ONE), float, None


def _trig(theta: float) -> np.ndarray:
    """The 5 x 6 map from ``Q[_UPPER]`` to the coefficients of ``g`` at phase ``theta``.

    It is ``w = W (1, cos t, sin t)``,
    ``W = [[1/2, 1/2, 0], [0, 0, cos theta], [1/2, -1/2, 0]]``, substituted in
    ``w @ Q @ w``.
    """
    c = math.cos(theta)
    return np.array([
        [0.375, 0.0, 0.25, 0.5 * c * c, 0.0, 0.375],
        [0.5, 0.0, 0.0, 0.0, 0.0, -0.5],
        [0.0, c, 0.0, 0.0, c, 0.0],
        [0.125, 0.0, -0.25, -0.5 * c * c, 0.0, 0.125],
        [0.0, 0.5 * c, 0.0, 0.0, -0.5 * c, 0.0],
    ])


def _coefficients(kinds: Sequence[str], forms: Sequence[tuple], trig: np.ndarray):
    """``(coef, errors)`` for the stacked ``forms`` of :func:`_form`.

    ``coef[i] = trig @ Q_i[_UPPER]``, so the objective of cell ``i`` is
    ``outer(_basis(Delta) @ coef[i])``.  ``errors[i]`` is ``None``, an
    ``EvaluationError`` for a non-finite row, or an ``AccuracyError`` when the
    row's Delta-dependent coefficients lie within the rounding of their
    largest terms.
    """
    Q = np.array([form[0] for form in forms])[:, _UPPER[0], _UPPER[1], None]
    terms = np.array([form[1] for form in forms])[:, _UPPER[0], _UPPER[1], None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is an error below
        # One matrix-vector product per row: the sums do not depend on the stack.
        coef = np.matmul(trig, Q)[:, :, 0]
        rounding = _ROUNDING * np.max(np.matmul(np.abs(trig[1:]), terms)[:, :, 0], axis=1)
    finite = np.isfinite(coef).all(axis=1)
    variation = np.max(np.abs(coef[:, 1:]), axis=1)
    flat = finite & (variation <= rounding)
    errors = [None] * len(kinds)
    for i in (~finite).nonzero()[0]:
        errors[i] = EvaluationError(
            f"objective {kinds[i]!r} has non-finite coefficients {coef[i]!r}"
        )
    for i in flat.nonzero()[0]:
        errors[i] = AccuracyError(
            f"objective {kinds[i]!r} varies over Delta by {variation[i]:.3e}, within the "
            f"rounding {rounding[i]:.3e} of its terms; no optimum can be certified",
            estimate=variation[i],
        )
    return coef, errors


def _trig_form(obj: Objective):
    """``(coef, outer, family)`` of one cell, with objective ``outer(_basis(Delta) @ coef)``.

    Raises like :func:`_form` and with the errors of :func:`_coefficients`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form raises below
        form = _form(obj)
    coef, (error,) = _coefficients([obj.kind], [form], _trig(obj.theta))
    if error is not None:
        raise error
    return coef[0], form[2], form[3]


def objective_function(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> objective value for ``obj``, from its trigonometric form."""
    coef, outer, _ = _trig_form(obj)

    def f(delta: float) -> float:
        _channel(obj, delta)  # validates Delta
        return float(outer(float(_basis(delta) @ coef)))

    return f


def _basis(delta) -> np.ndarray:
    """Rows ``(1, cos t, sin t, cos 2t, sin 2t)`` at ``t = 2 arccos(Delta)``."""
    d2 = np.square(delta)
    c, s = 2.0 * d2 - 1.0, 2.0 * np.multiply(delta, np.sqrt(np.maximum(1.0 - d2, 0.0)))
    rows = np.empty(np.shape(delta) + (5,))
    rows[..., 0], rows[..., 1], rows[..., 2] = 1.0, c, s
    rows[..., 3], rows[..., 4] = 2.0 * c * c - 1.0, 2.0 * s * c
    return rows


def _dot(rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``(n, k)``: ``rows[i, j] @ coef[i]`` for ``rows`` ``(n, k, 5)``.

    Each is its own dot product, as when one Delta is evaluated, so a value
    does not depend on how many are taken together.
    """
    return np.matmul(rows[:, :, None, :], coef[:, None, :, None])[:, :, 0, 0]


# The derivative's coefficients are the quartic's times these, as in np.polyder.
_SLOPE = np.arange(4, 0, -1)


def _interior_roots(quartics: np.ndarray) -> np.ndarray:
    """``(n, 4)``: Delta = cos(t/2) at the real t in (0, pi) with
    ``quartics[i](e^{it}) = 0``, NaN in the places left over.

    As in ``np.roots``, a row's zero leading and trailing coefficients are
    stripped (a zero trailing coefficient is a root at 0) and the remaining
    roots are the eigenvalues of its companion matrix; the rows of one shape
    take one stacked eigenvalue call.  Three Newton steps on the full quartic
    then polish the roots with ``0.5 < |z| < 2``: a near-zero leading
    coefficient (``g`` almost free of ``cos 2t, sin 2t``) leaves the
    eigenvalues inexact near the unit circle.
    """
    n = len(quartics)
    nonzero = np.ones((n, 6), dtype=bool)  # a zero row leads at 5: no roots
    nonzero[:, :5] = quartics != 0
    lead, trail = nonzero.argmax(axis=1), nonzero[:, 4::-1].argmax(axis=1)
    z = np.zeros((n, 4), complex)  # stripped and trailing roots stay 0
    for lo, hi in set(zip(lead.tolist(), trail.tolist())):
        m = 4 - lo - hi
        if m > 0:
            rows = (lead == lo) & (trail == hi)
            p = quartics[rows, lo:5 - hi]
            companion = np.repeat(np.eye(m, k=-1, dtype=complex)[None], len(p), axis=0)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            z[rows, :m] = np.linalg.eigvals(companion)
    annulus = (np.abs(z) > 0.5) & (np.abs(z) < 2.0)
    # Horner, as in np.polyval, on the quartic (rows :n) and its derivative (rows n:) at once.
    columns = np.zeros((5, 2 * n, 1), complex)
    columns[:, :n, 0] = quartics.T
    columns[1:, n:, 0] = (quartics[:, :-1] * _SLOPE).T
    for _ in range(3):
        zz = np.concatenate([z, z])
        y = np.zeros((2 * n, 4), complex)
        for column in columns:
            y = y * zz + column
        value, dz = y[:n], y[n:]
        z = z - np.divide(value, dz, out=np.zeros((n, 4), complex), where=annulus & (dz != 0))
    t = np.angle(z)
    interior = annulus & (np.abs(np.abs(z) - 1.0) <= _ROOT_TOL)
    interior &= (t > _ROOT_TOL) & (t < math.pi - _ROOT_TOL)
    return np.where(interior, np.cos(0.5 * t), np.nan)


# g''(t) = _basis(Delta) @ (coef * _CURVATURE)
_CURVATURE = np.array([0.0, -1.0, -1.0, -4.0, -4.0])
_ENDS = np.array([0.0, 1.0])


def _select(coef: np.ndarray, outers: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``(delta_star, value)`` for every row of ``coef`` ``(n, 5)``, the objective
    of row ``i`` being ``outers[i](_basis(Delta) @ coef[i])``.

    The candidates are the interior local minima of ``g``, and for
    ``outer = abs`` also its interior maxima below 0 and its zeros.  The
    deepest candidate wins; without one, the lower end; ties go to the
    smaller Delta.
    """
    n = len(coef)
    # g = a0 + Re(u1 z + u2 z^2) at z = e^{it}; z^2 g'(t) / i and z^2 g(t) are quartics in z.
    a0, u1, u2 = coef[:, 0], coef[:, 1] - 1j * coef[:, 2], coef[:, 3] - 1j * coef[:, 4]
    dips = np.array([outer is abs for outer in outers], dtype=bool)
    quartics = np.zeros((n, 5), complex)
    quartics[:, 0], quartics[:, 1] = u2, u1 / 2
    quartics[:, 3], quartics[:, 4] = -u1.conj() / 2, -u2.conj()
    if dips.any():
        zeros = np.stack([u2 / 2, u1 / 2, a0, u1.conj() / 2, u2.conj() / 2], axis=1)
        quartics = np.concatenate([quartics, zeros[dips]])
    roots = _interior_roots(quartics)
    # Columns: the stationary points, the zeros of g (for |g|), the ends.
    deltas = np.full((n, 10), np.nan)
    deltas[:, :4], deltas[:, 8:] = roots[:n], _ENDS
    deltas[dips, 4:8] = roots[n:]

    taken = ~np.isnan(deltas)
    rows = _basis(np.where(taken, deltas, 0.0))
    g = _dot(rows, coef)
    curvature = _dot(rows[:, :4], coef * _CURVATURE)
    curvature[dips] *= np.sign(g[dips, :4])  # |g| has a minimum where g < 0 has a maximum
    taken[:, :4] &= curvature > 0
    taken[:, 8:] = ~taken[:, :8].any(axis=1, keepdims=True)
    for outer in set(outers) - {float}:
        same = np.array([o is outer for o in outers], dtype=bool)
        g[same] = outer(g[same])
    best = np.min(np.where(taken, g, np.inf), axis=1)
    ties = taken & (g == best[:, None])
    return np.min(np.where(ties, deltas, np.inf), axis=1), best


def _record(obj: Objective, delta_star, value, family) -> OptimumRecord:
    """The optimum of one cell.  For the family kinds the value is the
    :meth:`DeltaFamily.measures` value ``compare`` prints, with its checks."""
    delta_star = float(delta_star)
    if family is not None:
        m = family.measures(delta_star)
        value = {"d_functional": m.d_n, "frobenius": m.frobenius}.get(obj.kind, 1.0 - m.fidelity)
    return OptimumRecord(delta_star, float(value), obj.r, obj.kind, iterations=1)


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta.

    The one-cell case of the solve of :func:`sweep_r`.  The objective is
    evaluated once, at the optimum: for the family kinds that is the
    :meth:`DeltaFamily.measures` value ``compare`` prints, with its checks.
    Raises like :func:`_trig_form`.
    """
    coef, outer, family = _trig_form(obj)
    (delta_star,), (value,) = _select(coef[None, :], [outer])
    return _record(obj, delta_star, value, family)


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


def _failed(kind: str, r: float, exc: CVTeleportError) -> OptimumRecord:
    return OptimumRecord(
        delta_star=float("nan"),
        objective_value=float("nan"),
        r=r,
        kind=kind,
        iterations=0,
        error=f"{type(exc).__name__}: {exc}",
    )


def sweep_r(
    kinds: Sequence[str],
    r_grid: Sequence[float],
    input: Optional[InputState] = None,
    theta: float = 0.0,
    gain: float = 1.0,
    n_photons: int = 24,
) -> list[OptimumRecord]:
    """Minimize every (kind, r) cell, kind-major, in one batched solve.

    Each cell's form comes from :func:`_form`, with the input's moments read
    once and one :func:`delta_family` built per r for all family kinds.  Then
    one product gives all coefficients, one stacked eigenvalue solve all
    candidates, and one evaluation of them all every optimum; the family
    kinds then take their value from :meth:`DeltaFamily.measures`.
    Every cell gets the record :func:`minimize_delta` gives it.  A cell's
    ``CVTeleportError`` is recorded in its place and the sweep continues; any
    other exception is a fault and propagates.
    """
    if not kinds or len(r_grid) == 0:
        raise InvalidArgumentError("sweep needs nonempty kind and r grids")
    input_moments = functools.lru_cache(maxsize=1)(moment_set)
    families = functools.lru_cache(maxsize=None)(delta_family)
    cells = [(kind, float(r)) for kind in kinds for r in r_grid]
    outcomes: list = [None] * len(cells)  # a record or a CVTeleportError per cell
    places, objs, forms = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form is an error below
        for place, (kind, r) in enumerate(cells):
            try:
                obj = Objective(
                    kind=kind, r=r, theta=theta, input=input, gain=gain, n_photons=n_photons
                )
                forms.append(_form(obj, input_moments, families))
            except CVTeleportError as exc:  # record the cell, keep sweeping
                outcomes[place] = exc
                continue
            places.append(place)
            objs.append(obj)
    if objs:
        coef, errors = _coefficients([obj.kind for obj in objs], forms, _trig(theta))
        solved = [i for i, error in enumerate(errors) if error is None]
        stars, values = _select(coef[solved], [forms[i][2] for i in solved])
        for place, error in zip(places, errors):
            outcomes[place] = error
        for i, delta_star, value in zip(solved, stars, values):
            try:
                outcomes[places[i]] = _record(objs[i], delta_star, value, forms[i][3])
            except CVTeleportError as exc:
                outcomes[places[i]] = exc
    return [
        outcome if isinstance(outcome, OptimumRecord) else _failed(kind, r, outcome)
        for outcome, (kind, r) in zip(outcomes, cells)
    ]
