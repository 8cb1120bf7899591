"""Taylor-series arithmetic shared by every Delta family.

Every family's photon basis, and a Fock-diagonal input's Gram moments, are
read off the Taylor coefficients of a generating function
(:mod:`cvteleport.photonstats`): binomial series
(:func:`_power_series`), their products (:func:`_times`), the exponential
of a series (:func:`_exp_series`), the polynomials ``(1 - t)^j``
(``_FALLING``), and the Taylor coefficients of a Fock state's or mixture's
probability generating function at a series (:func:`_pgf_taylor`).  The
exact Gauss-Laguerre rules and the Laguerre table that the tests hold these
against, with the 2-D polar quadrature and the finite-difference engine,
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

# (1 - t)^j
_FALLING = ((1.0,), (1.0, -1.0), (1.0, -2.0, 1.0))


def _power_series(A, powers, N: int) -> np.ndarray:
    """``A.shape + (len(powers), N + 1)``: the Taylor coefficients in ``t`` of
    ``(alpha (1 + rho t))^-p`` for each ``p`` in ``powers``, with ``alpha = A + 1/2``
    and ``rho = (1/2 - A) / alpha``.

    The binomial series: the ratio of consecutive coefficients is
    ``-rho (p + n - 1) / n``.
    """
    A = np.asarray(A)[..., None, None]
    powers = np.asarray(powers)[:, None]
    n = np.arange(1, N + 1)
    series = np.empty(A.shape[:-2] + (len(powers), N + 1))
    series[..., :1] = (A + 0.5) ** -powers
    series[..., 1:] = (A - 0.5) / (A + 0.5) * (powers + (n - 1.0)) / n
    return np.cumprod(series, axis=-1)


def _times(x: np.ndarray, y) -> np.ndarray:
    """The Taylor coefficients of the product of two series, to the length of ``x``."""
    return np.convolve(x, y)[: len(x)]


def _exp_series(x: np.ndarray) -> np.ndarray:
    """The Taylor coefficients of ``exp(x(t))``: ``n f_n = sum_k k x_k f_{n-k}``."""
    f = np.zeros_like(x)
    f[0] = math.exp(x[0])
    kx = np.arange(len(x)) * x
    for n in range(1, len(x)):
        f[n] = kx[1 : n + 1] @ f[n - 1 :: -1] / n
    return f


def _pgf_taylor(beta: np.ndarray, p: np.ndarray, order: int) -> np.ndarray:
    """``(order + 1, len(beta))``: the Taylor coefficients of
    ``P_i(beta) = [y^i] P(beta + y) = sum_k C(k + i, i) p_{k+i} beta^k`` for
    ``i <= order``, with ``P(z) = sum_m p_m z^m`` the probability generating
    function of the photon probabilities ``p_0 .. p_M`` and ``beta`` a series
    (a number is a series of length 1): the nonnegative ``C(k + i, i) p_{k+i}``
    times the powers ``beta^k``, ``k <= M``, in one matrix product.
    """
    M = len(p) - 1
    powers = np.zeros((M + 1, len(beta)))
    powers[0, 0] = 1.0
    for k in range(M):
        powers[k + 1] = _times(powers[k], beta)
    i, k = np.arange(order + 1)[:, None], np.arange(M + 1)
    binomial = np.cumprod(np.vstack([np.ones(M + 1), (k + i[1:]) / i[1:]]), axis=0)
    return (binomial * np.append(p, np.zeros(order))[i + k]) @ powers
