"""Shared numerical kernels: the Laguerre table and the exact Gauss-Laguerre rule.

Every production integral is one-dimensional in ``u = |xi|^2``: the Delta
family of a Fock state or mixture integrates phase-invariant integrands,
each ``exp(-c u)`` times a polynomial in ``u``, exactly with a Gauss-Laguerre
rule (:func:`gauss_laguerre_rule`), and the Fock factors
``exp(-u/2) L_n(u)`` come from one table of a bounded recurrence
(:func:`laguerre_envelope_all`).  The 2-D polar quadrature, the
Gauss-Legendre radial rule with its envelope cutoff, the running Laguerre
sum of the 2-D mixture oracle, and the finite-difference engine that the
tests hold these against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError


def laguerre_envelope_all(n_max: int, u) -> np.ndarray:
    """``exp(-u/2) L_k(u)`` for ``k = 0 .. n_max``.

    The three-term recurrence ``L_{k+1} = ((2k + 1 - u) L_k - k L_{k-1}) /
    (k + 1)`` is linear, so it is applied to the premultiplied values, which
    stay in [-1, 1] for all u >= 0: neither factor can overflow on wide grids.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.empty((n_max + 1,) + u.shape, dtype=float)
    out[0] = np.exp(-0.5 * u)
    if n_max >= 1:
        out[1] = (1.0 - u) * out[0]
    for k in range(1, n_max):
        out[k + 1] = ((2.0 * k + 1.0 - u) * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


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
