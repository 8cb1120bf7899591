"""Shared numerical kernels: the Laguerre recurrence and the exact Gauss-Laguerre rule.

Every production integral is one-dimensional in ``u = |xi|^2``: the Delta
family of a Fock state or mixture integrates phase-invariant integrands,
each ``exp(-c u)`` times a polynomial in ``u``, exactly with a Gauss-Laguerre
rule (:func:`gauss_laguerre_rule`), and the Fock factors
``exp(-u/2) L_n(u)`` come from one bounded recurrence.  The 2-D polar
quadrature, the Gauss-Legendre radial rule with its envelope cutoff, and the
finite-difference engine that the tests hold these against live in
``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError


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


def laguerre_envelope_series(weights, u) -> np.ndarray:
    """``sum_k weights[k] exp(-u/2) L_k(u)`` as a running sum.

    Memory stays O(u.size) however many weights there are; zero weights
    cost one recurrence step and nothing more.  Every ``u`` must keep
    ``exp(-u/2)`` a normal float (``u`` below about 1400), or the start of the
    recurrence loses precision; the exact rules of :func:`gauss_laguerre_rule`
    keep every Laguerre argument of a Delta family below about 600.
    """
    weights = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    total = np.zeros_like(u)
    for w, term in zip(weights, _laguerre_steps(weights.size - 1, u, np.exp(-0.5 * u))):
        if w != 0.0:
            total += w * term
    return total


# ---------------------------------------------------------------------------
# Exact rules in u = |xi|^2 for exp(-rate u) times a polynomial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _laggauss(nodes: int):
    """Gauss-Laguerre nodes ``x`` (numpy's) and weights ``w e^x`` of ``∫_0^∞ f(x) dx``.

    The weights are the Christoffel numbers ``1 / sum_{k < nodes} L~_k(x)^2``
    of the bounded recurrence, accurate to about 1e-14 up to 67 nodes; numpy's
    own are off by about 1e-12 at the small nodes, which carry the most weight.
    """
    x = np.polynomial.laguerre.laggauss(nodes)[0]
    return x, 1.0 / np.sum(laguerre_envelope_all(nodes - 1, x) ** 2, axis=0)


def gauss_laguerre_rule(degree: int, rate: float):
    """Nodes ``u`` and weights for ``∫_0^∞ f(u) du``, exact when ``f`` is
    ``exp(-rate u)`` times a polynomial of degree at most ``degree``.

    The Gauss-Laguerre rule of ``degree // 2 + 1`` nodes ``x`` and weights
    ``w`` at ``u = x / rate``, weights ``w e^x / rate``: no cutoff, tail bound
    or node heuristic.
    """
    x, w = _laggauss(degree // 2 + 1)
    return x / rate, w / rate
