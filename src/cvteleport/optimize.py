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

One solve, :func:`_solve`, takes a kinds x r grid as one cell table: each
(kind, r) cell holds its source, the r's transfer-derivative forms or Delta
family, built once per distinct r, up front, or its first error.  The
transfer-derivative forms of every distinct r are built in one array pass,
:func:`_transfer_table`, from each r's (a, b) in Python floats, through the
arithmetic that :func:`~cvteleport.moments.transfer_derivative_forms` runs
for one channel, so each r's rows have that function's bits.  Each kind's
live cells, those with no error yet, get their ``Q`` and its rounding terms
in one stacked pass, :func:`_forms`; a family builds the terms of the one
form a kind solves, and ``compare`` builds none.  The transfer
forms are built from the channel's (a, b) scaled by a power of two to size
1, so no r leaves them subnormal; the printed value is the score times that
power, rounded once.  The solve maps all live cells' forms to coefficients
in one product, finds every cell's roots in one stacked eigenvalue solve of
companion matrices with Newton steps on flat arrays, and scores every
candidate once, in one table, as ``outer(w @ Q @ w)`` at its Delta weights,
not as ``g``, whose coefficients of size 1 cancel near a transfer kind's
zero.  The winner's score is the value printed for every kind.  A family
kind's ``Q`` is its :class:`~cvteleport.photonstats.DeltaFamily`'s own form,
so that value is the column ``compare`` prints at Delta*, bit for bit; the
winners of one family's cells pass ``compare``'s checks in one check pass, at
the weight rows they were scored at.  Overflow and invalid values are ignored
once for the whole solve: a value that is not finite is an error of its cell.
The winners are checked for range and finiteness on arrays, and the solve
returns float64 columns of Delta* and values with each cell's error or None.
:func:`minimize_delta` is its one-cell call, which raises the cell's error;
:func:`sweep_columns` its grid call, which gives each cell's error text, and
:func:`sweep_r` the same grid as records.

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

from .errors import (
    AccuracyError,
    ConsistencyError,
    CVTeleportError,
    EvaluationError,
    InvalidArgumentError,
)
from .moments import _derivative_rows, moment_set
from .photonstats import delta_family
from .states import (
    ONE,
    Channel,
    InputState,
    SqueezedBellResource,
    _basis_rows,
    delta_weight_rows,
    sym,
    transfer_coefficients,
    weighted_forms,
)

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


def _transfer_table(rs: Sequence[float], theta: float, gain: float) -> tuple:
    """``(rows, scales, errors)`` for the distinct r values ``rs``, one entry each.

    ``rows`` ``(n, 4, 3)`` are
    :func:`~cvteleport.moments.transfer_derivative_forms` of the
    channel at r at ``scales``, at its own rate, ``F'(0)`` and ``F''(0)`` of
    the transfer function ``F``, then at rate 0, ``P'(0)`` and ``P''(0)`` of
    its polynomial factor ``P``.  ``2^scale`` is the power of two that brings
    ``max(|a|, |b|)`` into ``[1/2, 1)``: rows 0 and 2 are ``4^-scale`` and
    rows 1 and 3 ``16^-scale`` times the unscaled ones wherever those are
    normal, and at g = 1, where a = b, they are of size 1 at every r.
    ``errors[i]`` is None, or the ``CVTeleportError`` of the channel at
    ``rs[i]`` (a bad r, theta or gain, or ``cosh(r)`` overflowing), whose row
    holds no form.

    Each r's (a, b) is :func:`transfer_coefficients` of its channel, in
    Python floats; the scales and rows then take one array pass for every r,
    through the arithmetic
    :func:`~cvteleport.moments.transfer_derivative_forms` runs for one
    channel, so each row has that function's bits at its r.  Its caller
    ignores overflow and invalid values: a row they touch fails later.
    """
    coefficients, errors = [], []
    for r in rs:
        try:
            coefficients.append(
                transfer_coefficients(Channel(SqueezedBellResource(1.0, theta, r), gain=gain))
            )
            errors.append(None)
        except CVTeleportError as exc:
            coefficients.append((0.0, 0.0))
            errors.append(exc)
    a, b = np.array(coefficients).T
    scales = np.frexp(np.maximum(np.abs(a), np.abs(b)))[1]  # 0 for a value that is not finite
    own, coef = _basis_rows(np.ldexp(a, -scales), np.ldexp(b, -scales))
    # q[j][:, k] is entry j of basis row k, so one call of _derivative_rows
    # runs each entry's operations on a whole (rate, r, k) stack at once.
    n = len(rs)
    q = np.empty((3, n, 3))
    for k, row in enumerate(coef):
        for j, entry in enumerate(row):
            q[j, :, k] = entry
    rates = np.zeros((2, n, 1))  # its own rate, then 0
    rates[0, :, 0] = own
    (d1,), (d2,) = _derivative_rows([q], rates)
    return np.array([d1, d2]).transpose(2, 1, 0, 3).reshape(n, 4, 3), scales, errors


def _forms(kind: str, sources: Sequence, gain: float, input_moments) -> tuple:
    """``(Q, terms, outer, exponents)`` for ``m`` cells of one kind, ``Q`` and
    ``terms`` ``(m, 3, 3)`` and ``exponents`` ``(m,)`` even integers: cell
    ``i`` has objective ``outer(2^exponents[i] w @ Q[i] @ w)``, and
    ``terms[i]`` holds the sums of the absolute values of the terms summed
    into ``Q[i]``.  ``outer`` is ``float``, :func:`_root` or ``abs``.
    For the family kinds ``sources[i]`` is cell ``i``'s :class:`DeltaFamily`,
    whose form of the kind and its
    :meth:`~cvteleport.photonstats.DeltaFamily.rounding_terms`, built once
    per family, are stacked with exponent 0.  For the transfer kinds
    ``sources`` is ``(rows, scales)``, cell ``i``'s rows and scale of
    :func:`_transfer_table` at row ``i``; the scale gives the exponent:
    ``4 scale`` for ``kappa4_transfer``, of degree 4 in (a, b), and
    ``2 scale`` for the other transfer kinds.
    ``input_moments`` is the input's :func:`moment_set` for ``mu4_x`` and
    ``mu4_p``.  Each row is the elementwise arithmetic of its own cell, so
    its bits do not depend on the cells built with it.
    """
    if kind in _FAMILY_KINDS:  # forms[0] is the Gram matrix
        i = _FAMILY_KINDS.index(kind) + 1
        Q = np.array([family.forms[i] for family in sources])
        built = {family: family.rounding_terms(i) for family in dict.fromkeys(sources)}
        terms = np.array([built[family] for family in sources])
        return Q, terms, float if kind == "one_minus_fidelity" else _root, np.zeros(len(Q), int)

    rows, scales = sources
    d1, d2, dp1, dp2 = rows.swapaxes(0, 1)
    if kind == "kappa4_transfer":  # 12 (P''(0) - P'(0)^2): exp(-e u) leaves log F past u^1
        square = dp1[:, :, None] * dp1[:, None, :]
        Q = 12.0 * (sym(dp2, ONE) - square)
        terms = 12.0 * (sym(np.abs(dp2), ONE) + np.abs(square))
        return Q, terms, float, 4 * scales
    if kind in ("mu4_x", "mu4_p"):  # mu4 + 6 g^2 var mu2, mu4 = 12 F''(0), mu2 = -2 F'(0)
        var = gain * gain * (
            input_moments.x2_central if kind == "mu4_x" else input_moments.p2_central
        )
        d2 = np.ldexp(d2, 2 * scales[:, None])  # F''(0) at the 4^-scale of F'(0)
        line, terms = 12.0 * d2 - 12.0 * var * d1, 12.0 * np.abs(d2) + 12.0 * abs(var) * np.abs(d1)
        return sym(line, ONE), sym(terms, ONE), abs, 2 * scales
    # x2 = -2 F'(0); n_transfer = -F'(0) = x2 / 2, and resource_closed_forms.n_ab
    # = -F'(0) - 1 differs by a constant, so the minimizer is shared.
    line = (-1.0 if kind == "n_transfer" else -2.0) * d1
    return sym(line, ONE), sym(np.abs(line), ONE), float, 2 * scales


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


def _coefficients(kinds: Sequence[str], Q: np.ndarray, terms: np.ndarray, trig: np.ndarray,
                  exponents: Sequence[int]):
    """``(coef, errors)`` for the stacked ``Q`` and ``terms`` of :func:`_forms`,
    row ``i`` of each ``2^-exponents[i]`` times its form (an even power).

    ``coef[i] = 2^-scale trig @ Q[i][_UPPER]``, ``scale`` bringing the row's
    largest term into [1/2, 1): a power of two scales exactly and moves no
    root, and a row of subnormal forms keeps what digits are left for the
    root finder.  ``errors[i]`` is ``None``, an ``EvaluationError`` for a row
    whose unscaled coefficients (the form's, ``2^(scale + exponents[i])``
    times ``coef[i]``) are not all finite, or an ``AccuracyError`` when the
    row's Delta-dependent coefficients lie within the rounding of their
    largest terms; its numbers are the form's.  Its caller ignores overflow
    and invalid values around it: a row they touch is an error above.
    """
    Q = Q[:, _UPPER[0], _UPPER[1], None]
    terms = terms[:, _UPPER[0], _UPPER[1], None]
    scale = np.frexp(terms.max(axis=(1, 2)))[1]  # 0 for a row that is 0 or not finite
    down = -scale[:, None, None]
    # One matrix-vector product per row: the sums do not depend on the stack.
    coef = np.matmul(trig, np.ldexp(Q, down))[:, :, 0]
    rounding = _ROUNDING * np.matmul(np.abs(trig[1:]), np.ldexp(terms, down)).max(axis=(1, 2))
    up = scale + exponents
    unscaled = np.ldexp(coef, up[:, None])
    finite = np.isfinite(unscaled).all(axis=1)
    variation = np.abs(coef[:, 1:]).max(axis=1)
    errors = [None] * len(kinds)
    if (finite & (variation > rounding)).all():  # the common case: no row fails
        return coef, errors
    for i in (~finite).nonzero()[0]:
        errors[i] = EvaluationError(
            f"objective {kinds[i]!r} has non-finite coefficients {unscaled[i]!r}"
        )
    for i in (finite & (variation <= rounding)).nonzero()[0]:
        varies = math.ldexp(variation[i], int(up[i]))
        rounds = math.ldexp(rounding[i], int(up[i]))
        errors[i] = AccuracyError(
            f"objective {kinds[i]!r} varies over Delta by {varies:.3e}, within the "
            f"rounding {rounds:.3e} of its terms; no optimum can be certified",
            estimate=varies,
        )
    return coef, errors


# The derivative's coefficients are the quartic's times these, as in np.polyder.
_SLOPE = np.arange(4, 0, -1)
# The companion matrix of a monic polynomial of degree m, 1 <= m <= 4, but its first row.
_COMPANIONS = {m: np.eye(m, k=-1, dtype=complex)[None] for m in range(1, 5)}


def _eigenvalues(p: np.ndarray) -> np.ndarray:
    """``(n, m)``: the roots of each row of ``p`` ``(n, m + 1)``, a polynomial
    whose leading coefficient is not 0, as ``np.roots`` finds them: the
    eigenvalues of its companion matrix, in one stacked call."""
    companion = _COMPANIONS[p.shape[1] - 1].repeat(len(p), axis=0)
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(companion)


def _interior_roots(quartics: np.ndarray) -> tuple:
    """``(deltas, curvature)``, each ``(n, 4)``: Delta = cos(t/2) at the real
    t in (0, pi) with ``quartics[i](e^{it}) = 0``, and ``-Re(P'(z) / z)`` there
    for ``P = quartics[i]``; NaN in the places left over.  For
    ``P(z) = z^2 g'(t) / i`` that is ``g''(t)``.

    As in ``np.roots``, a row's zero leading and trailing coefficients are
    stripped (a zero trailing coefficient is a root at 0) and the remaining
    roots are the eigenvalues of its companion matrix (:func:`_eigenvalues`);
    the rows of one shape take one stacked eigenvalue call, and when all rows
    share one shape, the common case of a one-cell solve, that call takes
    them with no row mask.  Three Newton steps on the full quartic then
    polish the roots with ``0.5 < |z| < 2``: a near-zero leading coefficient
    (``g`` almost free of ``cos 2t, sin 2t``) leaves the eigenvalues inexact
    near the unit circle.  Each step runs Horner's rule, ``y = y * z + c`` from
    ``y = 0`` as ``np.polyval`` does, on one flat array holding every root's
    quartic and derivative.  ``P'`` is the derivative the last step
    evaluated.
    """
    n = len(quartics)
    nonzero = np.ones((n, 6), dtype=bool)  # a zero row leads at 5: no roots
    nonzero[:, :5] = quartics != 0
    lead, trail = nonzero.argmax(axis=1), nonzero[:, 4::-1].argmax(axis=1)
    shapes = set(zip(lead.tolist(), trail.tolist()))
    z = np.zeros((n, 4), complex)  # stripped and trailing roots stay 0
    for lo, hi in shapes:
        if lo + hi < 4:  # one shape, the common case, needs no row mask
            rows = slice(None) if len(shapes) == 1 else (lead == lo) & (trail == hi)
            z[rows, :4 - lo - hi] = _eigenvalues(quartics[rows, lo:5 - hi])
    z = z.ravel()  # root k of row i at 4 i + k
    size = np.abs(z)
    annulus = (size > 0.5) & (size < 2.0)
    # Each root's quartic (the first 4 n places) and derivative (the last 4 n), one
    # flat array per coefficient, so each Horner step is one product and one sum.
    columns = np.zeros((5, 2, n), complex)
    columns[:, 0] = quartics.T
    columns[1:, 1] = (quartics[:, :-1] * _SLOPE).T
    columns = columns.repeat(4, axis=2).reshape(5, 8 * n)
    for _ in range(3):
        at = np.concatenate((z, z))
        y = np.zeros(8 * n, complex)
        for column in columns:
            y = y * at + column
        value, dz = y[:4 * n], y[4 * n:]
        z = z - np.divide(value, dz, out=np.zeros(4 * n, complex), where=annulus & (dz != 0))
    t = np.arctan2(z.imag, z.real)  # np.angle
    interior = np.abs(np.abs(z) - 1.0) <= _ROOT_TOL  # so in the annulus, and polished
    interior &= (t > _ROOT_TOL) & (t < math.pi - _ROOT_TOL)
    curvature = np.divide(dz, at[:4 * n], out=np.full(4 * n, np.nan, complex), where=interior)
    deltas = np.where(interior, np.cos(0.5 * t), np.nan)
    return deltas.reshape(n, 4), -curvature.real.reshape(n, 4)


_ENDS = np.array([0.0, 1.0])


def _select(coef: np.ndarray, Q: np.ndarray, theta: float, outers: Sequence) -> tuple:
    """``(delta_star, value, w)`` for every row of ``coef`` ``(n, 5)``, row ``i``
    the coefficients of ``g = w @ Q[i] @ w`` and its objective
    ``outers[i](g)``; ``w[i]`` is the :func:`delta_weight_rows` row of
    ``delta_star[i]``.

    The candidates come from the coefficients: the interior local minima of
    ``g``, for ``outer = abs`` also its interior maxima below 0 and its
    zeros, and without any of these the two ends.  One table holds every
    row's candidates, NaN in its empty places, and their weight rows, with
    columns for the ``abs`` rows' zeros only when there are such rows.  Each
    candidate is scored once, as ``outer(w @ Q[i] @ w)`` at its weight row,
    the value printed; an empty place scores NaN and is never taken.  The
    lowest taken score wins, read in one masked minimum; ties go to the
    smaller Delta.  The winner's weight row is returned with it, so the
    family checks (:func:`_solve`) run at the weights it was scored at.
    """
    n = len(coef)
    dips = [i for i, outer in enumerate(outers) if outer is abs]
    # g = a0 + Re(u1 z + u2 z^2) at z = e^{it}; z^2 g'(t) / i and z^2 g(t) are quartics in z.
    u = coef[:, 1::2] - 1j * coef[:, 2::2]  # u1, u2
    v = -u.conj()
    quartics = np.zeros((n + len(dips), 5), complex)
    quartics[:n, 0], quartics[:n, 1] = u[:, 1], u[:, 0] / 2
    quartics[:n, 3], quartics[:n, 4] = v[:, 0] / 2, v[:, 1]
    if dips:  # u2 / 2, u1 / 2, a0, conj(u1) / 2, conj(u2) / 2
        quartics[n:, 1::-1], quartics[n:, 2] = u[dips] / 2, coef[dips, 0]
        quartics[n:, 3:] = u[dips].conj() / 2
    roots, curvature = _interior_roots(quartics)
    # Columns: the stationary points, the zeros of g (for |g|), the ends.
    deltas = np.empty((n, 10 if dips else 6))
    deltas[:, :4], deltas[:, -2:] = roots[:n], _ENDS
    taken = np.empty(deltas.shape, dtype=bool)
    if dips:
        deltas[:, 4:8] = np.nan
        deltas[dips, 4:8] = roots[n:]
        taken[:, 4:8] = deltas[:, 4:8] == deltas[:, 4:8]  # not NaN
    w = delta_weight_rows(deltas, theta).reshape(deltas.shape + (3,))
    g = weighted_forms(w, Q[:, None])
    curvature = curvature[:n]  # NaN, so not taken, where there is no root
    if dips:
        curvature[dips] *= np.sign(g[dips, :4])  # |g| has a minimum where g < 0 has a maximum
    taken[:, :4] = curvature > 0
    taken[:, -2:] = ~taken[:, :-2].any(axis=1, keepdims=True)
    stop = 0
    for outer, run in itertools.groupby(outers):  # a kind's rows are one run
        start, stop = stop, stop + len(list(run))
        if outer is not float:
            g[start:stop] = outer(g[start:stop])
    best = g.min(axis=1, where=taken, initial=np.inf)
    tied = np.where(taken & (g == best[:, None]), deltas, np.inf)
    winner = np.arange(n), tied.argmin(axis=1)
    return tied[winner], best, w[winner]


def _record(kinds: Sequence[str], stars, values, families: Sequence, failures: dict) -> dict:
    """``{i: error}`` for each solved cell ``i`` that fails a check: the
    error of the first it fails.

    Cell ``i`` is of kind ``kinds[i]``, with Delta* ``stars[i]`` and
    ``values[i]`` the score it was ranked by.  For a family kind
    ``families[i]`` is its Delta family, else None; its value is the column
    ``compare`` prints at ``stars[i]``, which must lie in [0, 1] (the error
    a :class:`SqueezedBellResource` raises) and pass its checks:
    ``failures[i]`` is the message of the first check it fails, from its
    family's one check pass (ConsistencyError).  Every value must be finite
    (EvaluationError).  Range and finiteness are checked on the arrays, and
    an error is built only for a cell that fails them or has a failure.
    """
    suspects = failures.keys() | np.flatnonzero(
        ~(np.isfinite(values) & (stars >= 0.0) & (stars <= 1.0))
    ).tolist()
    errors = {}
    for i in suspects:
        delta_star, value, family = float(stars[i]), values[i], families[i]
        try:
            if family is not None:
                if not 0.0 <= delta_star <= 1.0:  # no winner: no score is a number
                    SqueezedBellResource(delta=delta_star, theta=family.theta, r=family.r)  # raises
                if i in failures:
                    raise ConsistencyError(failures[i])
            if not math.isfinite(value):
                raise EvaluationError(
                    f"objective {kinds[i]!r} is not finite at Delta={delta_star!r}: {value!r}"
                )
        except CVTeleportError as exc:
            errors[i] = exc
    return errors


def _solve(kinds: Sequence, r_grid: Sequence[float], input, theta, gain, n_photons) -> tuple:
    """``(stars, values, errors)`` over the cells of the ``kinds`` x
    ``r_grid`` grid, kind-major: each cell's Delta* and objective value, two
    float64 columns, NaN where the cell failed, and its ``CVTeleportError``
    or None, a list.

    One cell table holds each (kind, r) cell's source or its first error.
    Each kind is checked once.  The sources that the valid kinds need are
    built once per distinct r, up front, a failed build's error standing in
    for its value: the transfer kinds' rows of every r in one
    :func:`_transfer_table` pass, and one :func:`delta_family` per r for
    the family kinds; the input's moments are read once, when a valid
    ``mu4`` kind is present.  The transfer rows of the live cells, those with
    no error yet, are taken once for every transfer kind.  Each kind's live
    cells then take one :func:`_forms` pass, which builds the rounding terms
    of that kind's form alone, and all live cells one :func:`_coefficients`
    and one :func:`_select` pass, whose winning score, times 2 to the form's exponent, is the value;
    the winners of each family's cells take one check pass,
    :meth:`~cvteleport.photonstats.DeltaFamily.failed_checks`, at their
    weight rows, and all winners one :func:`_record` pass.  Overflow and
    invalid values are ignored, once, for the transfer rows, the forms and
    the solve: a value that is not finite is an error of its cell.  A cell's
    error is the first of: its kind or input, its r (the channel, or the
    family), the input's moments (``mu4_x``, ``mu4_p``), its form, its Delta*
    (outside [0, 1], or failing a family check), its value.  Any other
    exception than a ``CVTeleportError`` propagates.
    """
    def attempt(f, *args, **kwargs):
        """``f(*args, **kwargs)``, or the ``CVTeleportError`` it raised."""
        try:
            return f(*args, **kwargs)
        except CVTeleportError as exc:
            return exc

    def by_cell(builds: list) -> tuple:
        """``(errors, live, take)`` from the error or None of each build of
        ``rs``: each grid cell's, the grid positions of the cells with none,
        and the places in ``rs`` of their builds."""
        errors = [builds[i] for i in where]
        live = [j for j, error in enumerate(errors) if error is None]
        return errors, live, [where[j] for j in live]

    n = len(r_grid)
    rs = list(dict.fromkeys(r_grid))  # each distinct r once: -0.0 and 0.0 share one build
    at = {r: i for i, r in enumerate(rs)}
    where = [at[r] for r in r_grid]
    checks = [attempt(_check_kind, kind, input) for kind in kinds]  # None, or the kind's error
    valid = [kind for kind, check in zip(kinds, checks) if check is None]
    needed = {kind in _FAMILY_KINDS for kind in valid}  # which of the two sources
    # A family kind or not -> each grid cell's build error or None, the live
    # cells' grid positions, and their stacked sources for _forms.
    sources = {}
    if True in needed:
        families = [attempt(delta_family, input, r, theta, gain, n_photons) for r in rs]
        errors, live, take = by_cell([f if isinstance(f, CVTeleportError) else None
                                      for f in families])
        sources[True] = errors, live, [families[i] for i in take]
    moments = attempt(moment_set, input) if {"mu4_x", "mu4_p"}.intersection(valid) else None
    cells = []  # kind-major: each cell's error, or None
    # Per stacked row, in stack order: its cell's place, kind, outer and family or None.
    places, row_kinds, outers, row_families, forms = [], [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        if False in needed:
            rows, scales, builds = _transfer_table(rs, theta, gain)
            errors, live, take = by_cell(builds)
            sources[False] = errors, live, (rows.take(take, 0), scales.take(take))
        for k, (kind, check) in enumerate(zip(kinds, checks)):
            if check is not None:
                cells += [check] * n
                continue
            family = kind in _FAMILY_KINDS
            errors, live, source = sources[family]
            cells += errors
            if not live:
                continue
            form = (moments if kind in ("mu4_x", "mu4_p") and isinstance(moments, CVTeleportError)
                    else attempt(_forms, kind, source, gain, moments))
            if isinstance(form, CVTeleportError):
                for j in live:
                    cells[k * n + j] = form
                continue
            forms.append(form)
            places += [k * n + j for j in live]
            row_kinds += [kind] * len(live)
            outers += [form[2]] * len(live)
            row_families += source if family else [None] * len(live)
        if not forms:
            return np.full(len(cells), math.nan), np.full(len(cells), math.nan), cells
        if len(forms) == 1:
            Q, terms, _, exponents = forms[0]
        else:
            Q, terms, exponents = (np.concatenate([form[i] for form in forms]) for i in (0, 1, 3))
        coef, errors = _coefficients(row_kinds, Q, terms, _trig(theta), exponents)
        solved = [i for i, error in enumerate(errors) if error is None]
        if len(solved) < len(errors):
            for p, error in zip(places, errors):
                if error is not None:
                    cells[p] = error
            # take copies a few rows at a quarter of the cost of indexing with a list.
            coef, Q, exponents = coef.take(solved, 0), Q.take(solved, 0), np.take(exponents, solved)
            places, row_kinds, outers, row_families = (
                [column[i] for i in solved] for column in (places, row_kinds, outers, row_families)
            )
        stars, values, weights = _select(coef, Q, theta, outers)
        values = np.ldexp(values, exponents)  # rounds once, where it is subnormal
    # One check pass per family, over the winners of its cells at their weight rows.
    winners = {}
    for i, family in enumerate(row_families):
        if family is not None:
            winners.setdefault(family, []).append(i)
    failures = {js[m]: message for family, js in winners.items()
                for m, message in family.failed_checks(weights[js]).items()}
    for i, error in _record(row_kinds, stars, values, row_families, failures).items():
        cells[places[i]] = error
        stars[i] = values[i] = math.nan
    if len(places) == len(cells):  # every cell solved: the rows are the cells, in order
        return stars, values, cells
    columns = np.full((2, len(cells)), math.nan)
    columns[:, places] = stars, values
    return columns[0], columns[1], cells


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta.

    The one-cell :func:`_solve`, which :func:`sweep_r` runs over a grid.  Each
    candidate is scored once, as ``outer(w @ Q @ w)`` at its Delta weights,
    and the winner's score is the value; for a family kind it is the column
    ``compare`` prints, and Delta* passes its checks.  Raises the cell's
    ``CVTeleportError``.
    """
    stars, values, errors = _solve([obj.kind], [obj.r], obj.input, obj.theta, obj.gain,
                                   obj.n_photons)
    (star,), (value,), (error,) = stars.tolist(), values.tolist(), errors
    if error is not None:
        raise error
    return OptimumRecord(star, value, obj.r, obj.kind)


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


def sweep_columns(
    kinds: Sequence[str],
    r_grid: Sequence[float],
    input: Optional[InputState] = None,
    theta: float = 0.0,
    gain: float = 1.0,
    n_photons: int = 24,
) -> tuple:
    """:func:`sweep_r` as columns over its cells, kind-major:
    ``(delta_star, objective_value, errors)``, two float64 arrays, NaN at a
    failed cell, and each cell's ``"Type: message"`` error text or None."""
    if not kinds or len(r_grid) == 0:
        raise InvalidArgumentError("sweep needs nonempty kind and r grids")
    stars, values, errors = _solve(kinds, [float(r) for r in r_grid], input, theta, gain, n_photons)
    texts = [None if error is None else f"{type(error).__name__}: {error}" for error in errors]
    return stars, values, texts


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
    stars, values, errors = sweep_columns(kinds, r_grid, input, theta, gain, n_photons)
    cells = itertools.product(kinds, [float(r) for r in r_grid])
    return [OptimumRecord(star, value, r, kind, error) for star, value, error, (kind, r)
            in zip(stars.tolist(), values.tolist(), errors, cells)]
