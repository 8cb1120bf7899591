"""Exact one-dimensional optimization of the resource parameter Delta.

Every objective is ``outer(w @ Q @ w)``: ``w`` a row of
:func:`cvteleport.states.delta_weight_rows`, ``Q`` a Delta-free 3 x 3 matrix
from the transfer-derivative forms or the Delta family, and ``outer`` the
identity, a square root or ``|.|``.  With ``Delta = cos(t/2)``, ``t`` in
``[0, pi]``, ``w`` is linear in ``{1, cos t, sin t}``, so ``w @ Q @ w`` is a
trigonometric polynomial ``g(t)`` of degree 2 whose coefficients are a linear
map of ``Q``.  The candidates are the stationary points (for ``|.|`` also the
zeros) of ``g``: the unit-circle roots of quartics in ``e^{it}``.  The deepest
interior local minimum wins, even over a lower end (the fourth-order transfer
cumulant's stationary minimum is the optimum of record); without one, the
lower end.  Ties go to the smaller Delta.

One solve, :func:`_solve`, takes a kinds x r grid as one array problem.  It
builds each r's transfer-derivative forms and Delta family once, up front,
and each kind's ``Q`` for all r in one stacked pass, :func:`_forms`; maps
them to coefficients in one product, finds every cell's roots in one stacked
eigenvalue solve of companion matrices with Newton steps, and scores every
candidate once, as ``outer(w @ Q @ w)`` at its Delta weights, not as ``g``,
whose coefficients of size 1 cancel near a transfer kind's zero.  The
winner's score is the value printed for every kind.  A family kind's ``Q`` is
its :class:`~cvteleport.photonstats.DeltaFamily`'s own form, so that value is
the column ``compare`` prints at Delta*, bit for bit.
:func:`minimize_delta` is its one-cell call, which raises the cell's error;
:func:`sweep_r` its grid call, which records each cell's error.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions in the same parameterisation, ``cos(t*/2)`` with ``t*`` an
``atan2`` of two polynomials in ``tanh r``: bounded at every r, with the
paper's large-r limit ``cos(pi/8)`` at ``tanh r = 1``.  The test suite holds
the optimizer to them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AccuracyError, CVTeleportError, EvaluationError, InvalidArgumentError
from .moments import moment_set, transfer_derivative_forms
from .photonstats import delta_family
from .states import ONE, Channel, InputState, SqueezedBellResource, delta_weight_rows, sym, weighted_forms

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
# The kinds whose forms come from the Delta family; the rest from the transfer-derivative forms.
_FAMILY_KINDS = ("d_functional", "one_minus_fidelity", "frobenius")

CLOSED_FORM_KINDS = (
    "fidelity_fock1",
    "fidelity_coherent",
    "mu4_x_coherent",
    "mu4_x_squeezed",
    "mu4_x_fock1",
    "mu4_p_squeezed",
)

_UPPER = np.triu_indices(3)
# A coefficient sums at most four entries of Q of at most four terms each,
# every term rounded to about an ulp: 16 eps of the largest terms bounds
# that rounding.
_ROUNDING = 16.0 * np.finfo(float).eps
# A root this close to the unit circle is a real t, and a t this close to 0 or pi an end.
_ROOT_TOL = 1e-7


def _check_kind(kind: str, input: Optional[InputState]) -> None:
    """InvalidArgumentError unless ``kind`` is an objective kind and has the input it needs."""
    if kind not in OBJECTIVE_KINDS:
        raise InvalidArgumentError(f"unknown objective kind {kind!r}")
    if kind in INPUT_DEPENDENT_KINDS and input is None:
        raise InvalidArgumentError(f"objective {kind!r} requires an input state")


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
        _check_kind(self.kind, self.input)


@dataclass(frozen=True)
class OptimumRecord:
    """One optimized cell, or a failed one: ``error`` names its ``CVTeleportError``."""

    delta_star: float
    objective_value: float
    r: float
    kind: str
    error: Optional[str] = None

    @property
    def iterations(self) -> int:
        """1 for a solved cell, 0 for a failed one; not a count of objective evaluations."""
        return 0 if self.error else 1


def _root(v):
    """``sqrt(max(v, 0))``, elementwise: the norm of a square that rounding can dip below 0."""
    return np.sqrt(np.maximum(v, 0.0))


def _transfer_rows(ch: Channel) -> np.ndarray:
    """``(4, 3)``: the rows :func:`transfer_derivative_forms` of ``ch`` at its
    own rate, ``F'(0)`` and ``F''(0)`` of the transfer function ``F``, then at
    rate 0, ``P'(0)`` and ``P''(0)`` of its polynomial factor ``P``."""
    return np.concatenate((transfer_derivative_forms(ch), transfer_derivative_forms(ch, 0.0)))


def _forms(kind: str, sources: Sequence, gain: float, input_moments) -> tuple:
    """``(Q, terms, outer)`` for ``m`` cells of one kind, ``Q`` and ``terms``
    ``(m, 3, 3)``: cell ``i`` has objective ``outer(w @ Q[i] @ w)``, and
    ``terms[i]`` holds the sums of the absolute values of the terms summed
    into ``Q[i]``.  ``outer`` is ``float``, :func:`_root` or ``abs``.
    ``sources[i]`` is cell ``i``'s :class:`DeltaFamily` and its
    ``quadratic_forms(absolute=True)`` for the family kinds, whose own forms
    are stacked, else its :func:`_transfer_rows`;
    ``input_moments`` is the input's :func:`moment_set` for ``mu4_x`` and
    ``mu4_p``.  Each row is the elementwise arithmetic of its own cell, so
    its bits do not depend on the cells built with it.
    """
    if kind in _FAMILY_KINDS:  # forms[0] is the Gram matrix
        i = _FAMILY_KINDS.index(kind) + 1
        Q = np.array([family.forms[i] for family, _ in sources])
        terms = np.array([terms[i] for _, terms in sources])
        return Q, terms, float if kind == "one_minus_fidelity" else _root

    d1, d2, dp1, dp2 = np.array(sources).swapaxes(0, 1)
    if kind == "kappa4_transfer":  # 12 (P''(0) - P'(0)^2): exp(-e u) leaves log F past u^1
        square = dp1[:, :, None] * dp1[:, None, :]
        Q = 12.0 * (sym(dp2, ONE) - square)
        terms = 12.0 * (sym(np.abs(dp2), ONE) + np.abs(square))
        return Q, terms, float
    if kind in ("mu4_x", "mu4_p"):  # mu4 + 6 g^2 var mu2, mu4 = 12 F''(0), mu2 = -2 F'(0)
        var = gain * gain * (
            input_moments.x2_central if kind == "mu4_x" else input_moments.p2_central
        )
        line, terms = 12.0 * d2 - 12.0 * var * d1, 12.0 * np.abs(d2) + 12.0 * abs(var) * np.abs(d1)
        return sym(line, ONE), sym(terms, ONE), abs
    # x2 = -2 F'(0); n_transfer = -F'(0) = x2 / 2, and resource_closed_forms.n_ab
    # = -F'(0) - 1 differs by a constant, so the minimizer is shared.
    line = (-1.0 if kind == "n_transfer" else -2.0) * d1
    return sym(line, ONE), sym(np.abs(line), ONE), float


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


def _coefficients(kinds: Sequence[str], Q: np.ndarray, terms: np.ndarray, trig: np.ndarray):
    """``(coef, errors)`` for the stacked ``Q`` and ``terms`` of :func:`_forms`.

    ``coef[i] = 2^-scale trig @ Q[i][_UPPER]``, the even ``scale`` bringing
    the row's largest term near 1: a power of two scales exactly and moves no
    root, and a row of subnormal forms (r past about 354) keeps the digits
    the root finder needs.  ``errors[i]`` is ``None``, an ``EvaluationError``
    for a row whose unscaled coefficients are not all finite, or an
    ``AccuracyError`` when the row's Delta-dependent coefficients lie within
    the rounding of their largest terms.
    """
    Q = Q[:, _UPPER[0], _UPPER[1], None]
    terms = terms[:, _UPPER[0], _UPPER[1], None]
    scale = 2 * (np.frexp(terms[:, :, 0].max(axis=1))[1] // 2)  # 0 for a row that is 0 or not finite
    down = -scale[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is an error below
        # One matrix-vector product per row: the sums do not depend on the stack.
        coef = np.matmul(trig, np.ldexp(Q, down))[:, :, 0]
        rounding = _ROUNDING * np.max(np.matmul(np.abs(trig[1:]), np.ldexp(terms, down))[:, :, 0], axis=1)
        unscaled = np.ldexp(coef, scale[:, None])
    finite = np.isfinite(unscaled).all(axis=1)
    variation = np.max(np.abs(coef[:, 1:]), axis=1)
    flat = finite & (variation <= rounding)
    errors = [None] * len(kinds)
    for i in (~finite).nonzero()[0]:
        errors[i] = EvaluationError(
            f"objective {kinds[i]!r} has non-finite coefficients {unscaled[i]!r}"
        )
    for i in flat.nonzero()[0]:
        varies = math.ldexp(variation[i], int(scale[i]))
        rounds = math.ldexp(rounding[i], int(scale[i]))
        errors[i] = AccuracyError(
            f"objective {kinds[i]!r} varies over Delta by {varies:.3e}, within the "
            f"rounding {rounds:.3e} of its terms; no optimum can be certified",
            estimate=varies,
        )
    return coef, errors


# The derivative's coefficients are the quartic's times these, as in np.polyder.
_SLOPE = np.arange(4, 0, -1)


def _interior_roots(quartics: np.ndarray) -> tuple:
    """``(deltas, curvature)``, each ``(n, 4)``: Delta = cos(t/2) at the real
    t in (0, pi) with ``quartics[i](e^{it}) = 0``, and ``-Re(P'(z) / z)`` there
    for ``P = quartics[i]``; NaN in the places left over.  For
    ``P(z) = z^2 g'(t) / i`` that is ``g''(t)``.

    As in ``np.roots``, a row's zero leading and trailing coefficients are
    stripped (a zero trailing coefficient is a root at 0) and the remaining
    roots are the eigenvalues of its companion matrix; the rows of one shape
    take one stacked eigenvalue call.  Three Newton steps on the full quartic
    then polish the roots with ``0.5 < |z| < 2``: a near-zero leading
    coefficient (``g`` almost free of ``cos 2t, sin 2t``) leaves the
    eigenvalues inexact near the unit circle.  ``P'`` is the derivative the
    last step evaluated.
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
    curvature = np.divide(dz, zz[:n], out=np.full((n, 4), np.nan, complex), where=interior)
    return np.where(interior, np.cos(0.5 * t), np.nan), -curvature.real


_ENDS = np.array([0.0, 1.0])


def _select(coef: np.ndarray, Q: np.ndarray, theta: float, outers: Sequence) -> tuple:
    """``(delta_star, value)`` for every row of ``coef`` ``(n, 5)``, row ``i``
    the coefficients of ``g = w @ Q[i] @ w`` and its objective
    ``outers[i](g)``.

    The candidates come from the coefficients: the interior local minima of
    ``g``, for ``outer = abs`` also its interior maxima below 0 and its
    zeros, and without any of these the two ends.  Each candidate is scored
    as ``outer(w @ Q[i] @ w)`` at its :func:`delta_weight_rows`, the value
    printed.  The lowest score wins; ties go to the smaller Delta.
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
    roots, curvature = _interior_roots(quartics)
    # Columns: the stationary points, the zeros of g (for |g|), the ends.
    deltas = np.full((n, 10), np.nan)
    deltas[:, :4], deltas[:, 8:] = roots[:n], _ENDS
    deltas[dips, 4:8] = roots[n:]

    taken = ~np.isnan(deltas)
    w = delta_weight_rows(np.where(taken, deltas, 0.0), theta).reshape(n, 10, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite is an error
        g = weighted_forms(w, Q[:, None])
    curvature = curvature[:n]
    curvature[dips] *= np.sign(g[dips, :4])  # |g| has a minimum where g < 0 has a maximum
    taken[:, :4] &= curvature > 0
    taken[:, 8:] = ~taken[:, :8].any(axis=1, keepdims=True)
    for outer in set(outers) - {float}:
        same = np.array([o is outer for o in outers], dtype=bool)
        g[same] = outer(g[same])
    best = np.min(np.where(taken, g, np.inf), axis=1)
    ties = taken & (g == best[:, None])
    return np.min(np.where(ties, deltas, np.inf), axis=1), best


def _record(kind: str, r: float, delta_star, value, family) -> OptimumRecord:
    """The optimum of one cell, ``value`` the score it was ranked by: for a
    family kind the column ``compare`` prints at ``delta_star``, which must
    pass its checks.  EvaluationError for a value that is not finite."""
    delta_star = float(delta_star)
    if family is not None:
        family.measure_columns([delta_star])  # raises the first failed check
    if not math.isfinite(value):
        raise EvaluationError(f"objective {kind!r} is not finite at Delta={delta_star!r}: {value!r}")
    return OptimumRecord(delta_star, float(value), r, kind)


def _solve(kinds: Sequence, r_grid: Sequence[float], input, theta, gain, n_photons) -> list:
    """For every cell of the ``kinds`` x ``r_grid`` grid, kind-major, its
    :class:`OptimumRecord` or the ``CVTeleportError`` it raised.

    Each kind is checked once.  Each build that the valid kinds need,
    :func:`_transfer_rows` or :func:`delta_family`, is made once per distinct
    r, up front, a failed build's error standing in for its value; the
    input's moments are read once, when a ``mu4`` kind has a built r.  The
    cells' forms then go through :func:`_coefficients` and :func:`_select`,
    whose winning score is the value :func:`_record` records.  A cell's
    error is the first of: its kind or input, its r (the channel, or the
    family), the input's moments (``mu4_x``, ``mu4_p``), its form, its
    value.  Any other exception than a ``CVTeleportError`` propagates.
    """
    def attempt(f, *args):
        """``f(*args)``, or the ``CVTeleportError`` it raised."""
        try:
            return f(*args)
        except CVTeleportError as exc:
            return exc

    def build(family: bool, r):
        if family:  # with its rounding terms, built once for every family kind
            made = delta_family(input, r, theta, gain, n_photons)
            return made, made.quadratic_forms(absolute=True)
        return _transfer_rows(Channel(SqueezedBellResource(1.0, theta, r), gain=gain))

    checks = [attempt(_check_kind, kind, input) for kind in kinds]  # None, or the kind's error
    valid = [kind for kind, check in zip(kinds, checks) if check is None]
    built = {family: {r: attempt(build, family, r) for r in dict.fromkeys(r_grid)}
             for family in {kind in _FAMILY_KINDS for kind in valid}}
    read = {"mu4_x", "mu4_p"}.intersection(valid) and any(
        not isinstance(rows, CVTeleportError) for rows in built[False].values())
    moments = attempt(moment_set, input) if read else None
    outcomes, rows, Qs, terms = [], [], [], []  # rows: (kind, place, outer, family) per form
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form is an error below
        for kind, check in zip(kinds, checks):
            if check is not None:
                outcomes += [check] * len(r_grid)
                continue
            family = kind in _FAMILY_KINDS
            kept = [len(outcomes) + j for j, r in enumerate(r_grid)
                    if not isinstance(built[family][r], CVTeleportError)]
            outcomes += [built[family][r] for r in r_grid]
            if not kept:
                continue
            try:
                if kind in ("mu4_x", "mu4_p") and isinstance(moments, CVTeleportError):
                    raise moments
                Q, T, outer = _forms(kind, [outcomes[place] for place in kept], gain, moments)
            except CVTeleportError as exc:
                for place in kept:
                    outcomes[place] = exc
                continue
            rows += [(kind, place, outer, outcomes[place][0] if family else None) for place in kept]
            Qs.append(Q)
            terms.append(T)
    if not rows:
        return outcomes
    Q = np.concatenate(Qs)
    coef, errors = _coefficients([row[0] for row in rows], Q, np.concatenate(terms), _trig(theta))
    solved = [i for i, error in enumerate(errors) if error is None]
    stars, values = _select(coef[solved], Q[solved], theta, [rows[i][2] for i in solved])
    for (_, place, _, _), error in zip(rows, errors):
        outcomes[place] = error
    for i, delta_star, value in zip(solved, stars, values):
        kind, place, _, family = rows[i]
        r = r_grid[place % len(r_grid)]
        outcomes[place] = attempt(_record, kind, r, delta_star, value, family)
    return outcomes


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta.

    The one-cell :func:`_solve`, which :func:`sweep_r` runs over a grid.  Each
    candidate is scored once, as ``outer(w @ Q @ w)`` at its Delta weights,
    and the winner's score is the value; for a family kind it is the column
    ``compare`` prints, and Delta* passes its checks.  Raises the cell's
    ``CVTeleportError``.
    """
    (outcome,) = _solve([obj.kind], [obj.r], obj.input, obj.theta, obj.gain, obj.n_photons)
    if isinstance(outcome, CVTeleportError):
        raise outcome
    return outcome


def closed_form_delta(kind: str, r: float, s: Optional[float] = None) -> float:
    """One of the six closed-form optimal Deltas, as ``cos(t*/2)``.

    Each ``t* = atan2(y, x)`` for x, y polynomials in ``E = e^{2r}`` (the coherent mu4
    form's ``1 - cos^2 t*`` is the perfect square of ``(2 + E) / sqrt(13 + 10 E + 2 E^2)``);
    over a power of ``e^r cosh r`` they are bounded polynomials in ``T = tanh r``, and
    every ``t*`` tends to ``atan2(2, 2) = pi/4`` as T -> 1.  Raises InvalidArgumentError
    for a non-finite r or s.
    """
    if kind not in CLOSED_FORM_KINDS:
        raise InvalidArgumentError(f"unknown closed-form kind {kind!r}")
    if kind in ("mu4_x_squeezed", "mu4_p_squeezed") and s is None:
        raise InvalidArgumentError(f"closed form {kind!r} requires the input squeezing s")
    if not (math.isfinite(r) and (s is None or math.isfinite(s))):
        raise InvalidArgumentError(f"closed form {kind!r} needs a finite r and s, got {r!r}, {s!r}")

    if kind == "fidelity_coherent":
        # e^40 already rounds the atan to pi/2; e^{-2r} would overflow from r = -355.
        return math.cos(0.5 * math.atan(1.0 + math.exp(min(-2.0 * r, 40.0))))
    if kind in ("mu4_x_squeezed", "mu4_p_squeezed"):
        # The coherent mu4 optimum at an effective squeezing: r - s for x, r + s for p.
        r += s if kind == "mu4_p_squeezed" else -s
    t = math.tanh(r)
    if kind == "fidelity_fock1":
        return math.cos(0.5 * math.atan2(1.0 + t * (2.0 + 3.0 * t), 3.0 * t * t * (1.0 + t)))
    if kind == "mu4_x_fock1":
        return math.cos(0.5 * math.atan2(5.0 + t, 6.0))
    return math.cos(0.5 * math.atan2(3.0 - t, 4.0 - 2.0 * t))


def sweep_r(
    kinds: Sequence[str],
    r_grid: Sequence[float],
    input: Optional[InputState] = None,
    theta: float = 0.0,
    gain: float = 1.0,
    n_photons: int = 24,
) -> list[OptimumRecord]:
    """Minimize every (kind, r) cell, kind-major, in one batched :func:`_solve`.

    Every cell gets the record :func:`minimize_delta` gives it, from the same
    code.  A cell's ``CVTeleportError`` is recorded in its place and the sweep
    continues; any other exception is a fault and propagates.
    """
    if not kinds or len(r_grid) == 0:
        raise InvalidArgumentError("sweep needs nonempty kind and r grids")
    r_grid = [float(r) for r in r_grid]
    outcomes = _solve(kinds, r_grid, input, theta, gain, n_photons)
    return [
        outcome if isinstance(outcome, OptimumRecord) else OptimumRecord(
            float("nan"), float("nan"), r, kind, error=f"{type(outcome).__name__}: {outcome}"
        )
        for outcome, (kind, r) in zip(outcomes, itertools.product(kinds, r_grid))
    ]
