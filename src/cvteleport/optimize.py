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

One solve, :func:`_solve`, handles a list of (kind, r) cells as one array
problem.  It builds each r's transfer-derivative forms and Delta family once,
and each kind's ``Q`` for all of its r values in one stacked pass,
:func:`_forms`; maps the stacked forms to coefficients in one product, finds
every cell's roots in one stacked eigenvalue solve of companion matrices with
Newton steps over the whole stack, and selects every optimum from one
evaluation of all candidates.  :func:`minimize_delta` is its one-cell call,
which raises the cell's error; :func:`sweep_r` its grid call, which records
each cell's error.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions; the test suite holds the optimizer to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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

# _ONE @ w = Delta^2 + (1 - Delta^2) = 1, so a linear objective l @ w is (l @ w)(_ONE @ w).
_ONE = np.array([1.0, 0.0, 1.0])
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
        """The objective evaluations spent: one, at the optimum; none for a failed cell."""
        return 0 if self.error else 1


def _outer(x, y) -> np.ndarray:
    """``outer(x, y)`` of each row of stacked ``x`` and ``y`` (``(..., 3)``)."""
    return x[..., :, None] * y[..., None, :]


def _sym(x, y) -> np.ndarray:
    xy = _outer(x, y)
    return 0.5 * (xy + xy.swapaxes(-1, -2))


def _root(v):
    """``sqrt(max(v, 0))``, elementwise: the norm of a square that rounding can dip below 0."""
    return np.sqrt(np.maximum(v, 0.0))


def _forms(kind: str, sources: Sequence, gain: float, input_moments) -> tuple:
    """``(Q, terms, outer)`` for ``m`` cells of one kind, ``Q`` and ``terms``
    ``(m, 3, 3)``: cell ``i`` has objective ``outer(w @ Q[i] @ w)``, and
    ``terms[i]`` holds the sums of the absolute values of the terms summed
    into ``Q[i]``.  ``outer`` is ``float``, :func:`_root` or ``abs``.
    ``sources[i]`` is cell ``i``'s :class:`DeltaFamily` for the family kinds,
    else its rows ``(d1, d2)`` of :func:`transfer_derivative_forms`;
    ``input_moments`` is the input's :func:`moment_set` for ``mu4_x`` and
    ``mu4_p``.  Each row is the elementwise arithmetic of its own cell, so
    its bits do not depend on the cells built with it.
    """
    if kind == "d_functional":
        # P_out - P_in, P_in on the columns that sum to 1: no O(1) terms cancel in Q.
        # One 2-D product per cell: a stacked matmul may round differently.
        diffs = [family.photon_basis - np.outer(family.p_in.clamped(), _ONE) for family in sources]
        Q = np.array([diff.T @ diff for diff in diffs])
        return Q, np.array([np.abs(diff).T @ np.abs(diff) for diff in diffs]), _root
    if kind in _FAMILY_KINDS:
        f = np.array([family.fidelity_basis for family in sources])
        if kind == "frobenius":  # purity_in + purity_out - 2 F
            gram = np.array([family.gram for family in sources])
            purity_in = np.array([family.purity_in for family in sources])
            ones = purity_in[:, None, None] * np.outer(_ONE, _ONE)
            Q = gram + ones - 2.0 * _sym(f, _ONE)
            terms = np.abs(gram) + ones + 2.0 * _sym(np.abs(f), _ONE)
            return Q, terms, _root
        return _sym(_ONE - f, _ONE), _sym(_ONE + np.abs(f), _ONE), float

    d1, d2 = np.array(sources).swapaxes(0, 1)
    if kind == "kappa4_transfer":  # mu4 - 3 mu2^2 = 12 F''(0) - 12 F'(0)^2
        Q = 12.0 * (_sym(d2, _ONE) - _outer(d1, d1))
        terms = 12.0 * (_sym(np.abs(d2), _ONE) + _outer(np.abs(d1), np.abs(d1)))
        return Q, terms, float
    if kind in ("mu4_x", "mu4_p"):  # mu4 + 6 g^2 var mu2, mu4 = 12 F''(0), mu2 = -2 F'(0)
        var = gain * gain * (
            input_moments.x2_central if kind == "mu4_x" else input_moments.p2_central
        )
        line, terms = 12.0 * d2 - 12.0 * var * d1, 12.0 * np.abs(d2) + 12.0 * abs(var) * np.abs(d1)
        return _sym(line, _ONE), _sym(terms, _ONE), abs
    # x2 = -2 F'(0); n_transfer = -F'(0) = x2 / 2, and resource_closed_forms.n_ab
    # = -F'(0) - 1 differs by a constant, so the minimizer is shared.
    line = (-1.0 if kind == "n_transfer" else -2.0) * d1
    return _sym(line, _ONE), _sym(np.abs(line), _ONE), float


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
    """``(coef, scale, errors)`` for the stacked ``Q`` and ``terms`` of :func:`_forms`.

    ``coef[i] = 2^-scale[i] trig @ Q[i][_UPPER]``, so the objective of cell
    ``i`` is ``outer(_basis(Delta) @ coef[i])`` times ``2^scale[i]`` (times
    ``2^(scale[i] / 2)`` for ``outer = _root``).  The even ``scale[i]`` brings
    the row's largest term near 1.  A power of two scales exactly and moves no
    optimum, and a row of subnormal forms (r past about 354) keeps the digits
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
    return coef, scale, errors


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


def _record(kind: str, r: float, delta_star, value, family) -> OptimumRecord:
    """The optimum of one cell.  For the family kinds the value is the
    :meth:`DeltaFamily.measures` value ``compare`` prints, with its checks."""
    delta_star = float(delta_star)
    if family is not None:
        m = family.measures(delta_star)
        value = {"d_functional": m.d_n, "frobenius": m.frobenius}.get(kind, 1.0 - m.fidelity)
    return OptimumRecord(delta_star, float(value), r, kind)


def _solve(cells: Sequence[tuple], input, theta, gain, n_photons) -> list:
    """For every ``(kind, r)`` cell, its :class:`OptimumRecord` or the
    ``CVTeleportError`` it raised, from one batched solve.

    Each distinct r gets one set of transfer-derivative forms, shared by the
    transfer-table kinds, and one :func:`delta_family`, shared by the family
    kinds; the input's moments are read once.  Each kind is checked once and
    its cells' forms are built in one :func:`_forms` pass.  Then one product
    gives all coefficients, one stacked eigenvalue solve all candidates, and
    one evaluation of them all every optimum; the family kinds then take
    their value from :meth:`DeltaFamily.measures`.  A cell's error is the
    first of: its kind or input, its r (the channel, or the family), the
    input's moments (``mu4_x``, ``mu4_p``), its form.  Any exception other
    than a ``CVTeleportError`` is a fault and propagates.
    """
    outcomes: list = [None] * len(cells)
    groups: dict = {}
    for place, (kind, _) in enumerate(cells):
        # A kind that is not a string is unknown: it fails below, in a group of its own.
        groups.setdefault(kind if isinstance(kind, str) else place, []).append(place)
    built: dict = {}

    def shared(build, arg):
        """``build(arg)``, once per solve; its ``CVTeleportError`` stands in for the value."""
        if (build, arg) not in built:
            try:
                built[build, arg] = build(arg)
            except CVTeleportError as exc:
                built[build, arg] = exc
        return built[build, arg]

    def transfer_rows(r):
        resource = SqueezedBellResource(delta=1.0, theta=theta, r=r)
        return transfer_derivative_forms(Channel(resource, gain=gain))

    def family(r):
        return delta_family(input, r, theta, gain, n_photons)

    kinds, places, outers, families, Qs, terms = [], [], [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form is an error below
        for group in groups.values():
            kind, rows = cells[group[0]][0], dict.fromkeys(group)  # place -> its source
            try:
                _check_kind(kind, input)
                build = family if kind in _FAMILY_KINDS else transfer_rows
                for place in group:
                    rows[place] = shared(build, cells[place][1])
                    if isinstance(rows[place], CVTeleportError):
                        outcomes[place] = rows.pop(place)
                if not rows:
                    continue
                moments = shared(moment_set, input) if kind in ("mu4_x", "mu4_p") else None
                if isinstance(moments, CVTeleportError):
                    raise moments
                Q, T, outer = _forms(kind, list(rows.values()), gain, moments)
            except CVTeleportError as exc:
                for place in rows:
                    outcomes[place] = exc
                continue
            kinds += [kind] * len(rows)
            places += rows
            outers += [outer] * len(rows)
            families += rows.values() if kind in _FAMILY_KINDS else [None] * len(rows)
            Qs.append(Q)
            terms.append(T)
    if places:
        coef, scale, errors = _coefficients(
            kinds, np.concatenate(Qs), np.concatenate(terms), _trig(theta)
        )
        solved = [i for i, error in enumerate(errors) if error is None]
        stars, values = _select(coef[solved], [outers[i] for i in solved])
        roots = np.array([outer is _root for outer in outers], dtype=bool)
        values = np.ldexp(values, np.where(roots, scale // 2, scale)[solved])
        for place, error in zip(places, errors):
            outcomes[place] = error
        for i, delta_star, value in zip(solved, stars, values):
            try:
                outcomes[places[i]] = _record(
                    kinds[i], cells[places[i]][1], delta_star, value, families[i]
                )
            except CVTeleportError as exc:
                outcomes[places[i]] = exc
    return outcomes


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta.

    The one-cell :func:`_solve`, which :func:`sweep_r` runs over a grid.  The
    objective is evaluated once, at the optimum: for the family kinds that is
    the :meth:`DeltaFamily.measures` value ``compare`` prints, with its checks.
    Raises the cell's ``CVTeleportError``.
    """
    (outcome,) = _solve([(obj.kind, obj.r)], obj.input, obj.theta, obj.gain, obj.n_photons)
    if isinstance(outcome, CVTeleportError):
        raise outcome
    return outcome


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
    if kind == "mu4_x_fock1":
        e2r = math.exp(2.0 * r)
        sq = (1.0 + e2r) ** 2
        return math.sqrt(
            1.0 + 3.0 * sq / math.sqrt(sq * (13.0 + 30.0 * e2r + 18.0 * e2r * e2r))
        ) / math.sqrt(2.0)
    # The Gaussian mu4 optima are the coherent one at an effective squeezing: the
    # input squeezing s lowers it to r - s for x and raises it to r + s for p.
    if kind == "mu4_x_squeezed":
        r -= s
    elif kind == "mu4_p_squeezed":
        r += s
    e2r = math.exp(2.0 * r)
    num = (3.0 + e2r) ** 2
    return math.sqrt(1.0 + num / math.sqrt(num * (13.0 + 2.0 * e2r * (5.0 + e2r)))) / math.sqrt(2.0)


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
    cells = [(kind, float(r)) for kind in kinds for r in r_grid]
    outcomes = _solve(cells, input, theta, gain, n_photons)
    return [
        outcome if isinstance(outcome, OptimumRecord) else OptimumRecord(
            float("nan"), float("nan"), r, kind, error=f"{type(outcome).__name__}: {outcome}"
        )
        for outcome, (kind, r) in zip(outcomes, cells)
    ]
