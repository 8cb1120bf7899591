"""Shared numerical kernels: the Laguerre recurrence and the 1-D radial rule.

Every production integral is one-dimensional in ``u = |xi|^2``: the Delta
family of a Fock state or mixture integrates phase-invariant integrands over
``u`` with a Gauss-Legendre rule (:func:`radial_rule`) whose cutoff comes
from closed-form envelope tails (:func:`envelope_cutoff`,
:func:`envelope_tail`), and the Fock factors ``exp(-u/2) L_n(u)`` come from
one bounded recurrence.  The 2-D polar
quadrature and the finite-difference engine that the tests hold these
against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

# ln(1e16): the automatic cutoff U satisfies a tail bound below exp(-36.85) ~ 1e-16.
_DECAY_TARGET = 36.85


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _laguerre_steps(n_max: int, u: np.ndarray, start):
    """Yield ``start * L_k(u)`` for ``k = 0 .. n_max`` by the three-term recurrence.

    ``L_{k+1} = ((2k + 1 - u) L_k - k L_{k-1}) / (k + 1)``; the recurrence is
    linear, so a premultiplied start carries through every degree.  The
    recurrence reads the yielded arrays again: callers must not modify them.
    """
    lkm1 = start
    yield lkm1
    if n_max >= 1:
        lk = (1.0 - u) * start
        yield lk
        for k in range(1, n_max):
            lk, lkm1 = ((2.0 * k + 1.0 - u) * lk - k * lkm1) / (k + 1.0), lk
            yield lk


def laguerre_envelope_all(n_max: int, u) -> np.ndarray:
    """``exp(-u/2) L_k(u)`` for ``k = 0 .. n_max``.

    The recurrence is applied to the premultiplied values, which stay in
    [-1, 1] for all u >= 0, so neither factor can overflow on wide grids.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.empty((n_max + 1,) + u.shape, dtype=float)
    for k, row in enumerate(_laguerre_steps(n_max, u, np.exp(-0.5 * u))):
        out[k] = row
    return out


def laguerre_envelope(n: int, u):
    """``exp(-u/2) L_n(u)`` (scalar or ndarray ``u``) with the bounded product recurrence."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    u = np.asarray(u, dtype=float)
    for last in _laguerre_steps(n, u, np.exp(-0.5 * u)):
        pass
    return last if last.shape else float(last)


def laguerre_envelope_series(weights, u) -> np.ndarray:
    """``sum_k weights[k] exp(-u/2) L_k(u)`` as a running sum.

    Memory stays O(u.size) however many weights there are; zero weights
    cost one recurrence step and nothing more.  Every ``u`` must keep
    ``exp(-u/2)`` a normal float (``u <= RADIAL_ARG_MAX``), or the start of the
    recurrence loses precision.
    """
    weights = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    total = np.zeros_like(u)
    for w, term in zip(weights, _laguerre_steps(weights.size - 1, u, np.exp(-0.5 * u))):
        if w != 0.0:
            total += w * term
    return total


# ---------------------------------------------------------------------------
# One-dimensional rules in u = |xi|^2 for phase-invariant integrands
# ---------------------------------------------------------------------------

# exp(-u/2) at u = 1400 is ~1e-304, still a normal float.
RADIAL_ARG_MAX = 1400.0


def _log_envelope_tail(rate: float, factors, cutoff: float) -> float:
    kappa = rate - sum(d * s / (1.0 + s * cutoff) for s, d in factors)
    if not kappa > 0.0:
        return math.inf
    log_f = -rate * cutoff + sum(d * math.log1p(s * cutoff) for s, d in factors)
    return log_f - math.log(kappa)


def envelope_tail(rate: float, factors, cutoff: float) -> float:
    """Bound on ``∫_U^∞ exp(-rate u) prod (1 + s u)^d du`` at ``U = cutoff``.

    ``factors`` holds the ``(s, d)`` pairs, ``s, d >= 0``.  The logarithm of
    the integrand is concave with slope ``-kappa(u)``,
    ``kappa = rate - sum d s / (1 + s u)``, so beyond ``U`` the integrand lies
    below its tangent there and the tail is at most ``f(U) / kappa(U)``.
    Before the envelope peaks (``kappa(U) <= 0``) the bound is infinite.
    """
    log_tail = _log_envelope_tail(rate, factors, cutoff)
    return math.exp(log_tail) if log_tail < 700.0 else math.inf


def envelope_cutoff(rate: float, factors) -> float:
    """The cutoff ``U`` at which :func:`envelope_tail` meets ``exp(-36.85) ~ 1e-16``.

    From ``U0 = max(36.85, 2 sum d) / rate`` on, ``kappa >= rate / 2`` and the
    logarithm of the bound falls at least as fast as ``kappa(U0)``, so one
    tangent step from ``U0`` certifies; bisection then tightens the cutoff
    to within 0.1%.
    """
    def excess(cutoff):
        return _log_envelope_tail(rate, factors, cutoff) + _DECAY_TARGET

    lo = max(_DECAY_TARGET, 2.0 * sum(d for _, d in factors)) / rate
    if excess(lo) <= 0.0:
        return lo
    kappa = rate - sum(d * s / (1.0 + s * lo) for s, d in factors)
    hi = lo + excess(lo) / kappa
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid) <= 0.0 else (mid, hi)
    return hi


def radial_rule(nodes: int, cutoff: float):
    """Nodes ``u`` and weights for ``∫_0^U f(u) du`` at ``U = cutoff``.

    Gauss-Legendre in ``rho = sqrt(u)`` on ``[0, sqrt(U)]`` (``du = 2 rho
    drho``): the integrands are Gaussians in ``rho`` times polynomials and
    Laguerre factors.
    """
    x, v = _leggauss(nodes)
    radius = math.sqrt(cutoff)
    rho = 0.5 * radius * (x + 1.0)
    return rho * rho, radius * v * rho
