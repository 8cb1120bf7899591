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

The tables that depend only on small integers, the binomial ratios of
:func:`_power_series` for each ``(powers, N)`` and the binomials of
:func:`_pgf_taylor` for each ``(order, M)``, are built once per shape
(:func:`_series_table`, :func:`_pgf_table`), as read-only arrays.  A shape
past ``N_MAX_FOCK`` raises :class:`~cvteleport.errors.CapacityError`, so
they hold 2 MB with every shape built, and a few KB for one cutoff and
input.  Each holds the values its function used to build on every call, so
no digit moves.  :func:`_exp_series` runs its recurrence in Python floats,
each sum left to right from 0.0: the order of the strided dot products it
replaces, which numpy does not hand to BLAS.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapacityError
from .states import N_MAX_FOCK


def _frozen(*tables) -> tuple:
    """The arrays ``tables``, made read-only."""
    for table in tables:
        table.flags.writeable = False
    return tables


# (1 - t)^j
_FALLING = _frozen(np.array([1.0]), np.array([1.0, -1.0]), np.array([1.0, -2.0, 1.0]))


@functools.lru_cache(maxsize=None)
def _series_table(powers: tuple, N: int) -> tuple:
    """``(-powers, powers + (n - 1.0), n)`` of :func:`_power_series`, ``n = 1 .. N``,
    as read-only arrays: built once per ``(powers, N)``."""
    if N > N_MAX_FOCK:
        raise CapacityError(f"series length {N} exceeds N_max={N_MAX_FOCK}")
    p = np.array(powers, dtype=float)[:, None]
    n = np.arange(1, N + 1)
    return _frozen(-p, p + (n - 1.0), n)


def _power_series(A, powers: tuple, N: int) -> np.ndarray:
    """``A.shape + (len(powers), N + 1)``: the Taylor coefficients in ``t`` of
    ``(alpha (1 + rho t))^-p`` for each ``p`` in ``powers``, with ``alpha = A + 1/2``
    and ``rho = (1/2 - A) / alpha``.

    The binomial series: the ratio of consecutive coefficients is
    ``-rho (p + n - 1) / n``.
    """
    exponents, numerators, n = _series_table(powers, N)
    A = np.asarray(A)[..., None, None]
    series = np.empty(A.shape[:-2] + (len(powers), N + 1))
    series[..., :1] = (A + 0.5) ** exponents
    series[..., 1:] = (A - 0.5) / (A + 0.5) * numerators / n
    return np.cumprod(series, axis=-1)


def _times(x: np.ndarray, y) -> np.ndarray:
    """The Taylor coefficients of the product of two series, to the length of ``x``."""
    return np.convolve(x, y)[: len(x)]


def _exp_series(x: np.ndarray) -> np.ndarray:
    """The Taylor coefficients of ``exp(x(t))``: ``n f_n = sum_k k x_k f_{n-k}``,
    each sum in Python floats, left to right from 0.0."""
    kx = (np.arange(len(x)) * x).tolist()
    f = [math.exp(x[0])]
    for n in range(1, len(kx)):
        total = 0.0
        for k in range(1, n + 1):
            total += kx[k] * f[n - k]
        f.append(total / n)
    return np.array(f)


@functools.lru_cache(maxsize=None)
def _pgf_table(order: int, M: int) -> tuple:
    """``(binomial, index)`` of :func:`_pgf_taylor`, ``(order + 1, M + 1)`` each:
    ``C(k + i, i)`` as a product of ratios, and ``i + k``, as read-only arrays
    built once per ``(order, M)``."""
    if max(order, M) > N_MAX_FOCK:
        raise CapacityError(f"generating-function order {order} or top photon number {M} "
                            f"exceeds N_max={N_MAX_FOCK}")
    i, k = np.arange(order + 1)[:, None], np.arange(M + 1)
    binomial = np.cumprod(np.vstack([np.ones(M + 1), (k + i[1:]) / i[1:]]), axis=0)
    return _frozen(binomial, i + k)


def _pgf_taylor(beta: np.ndarray, p: np.ndarray, order: int) -> np.ndarray:
    """``(order + 1, len(beta))``: the Taylor coefficients of
    ``P_i(beta) = [y^i] P(beta + y) = sum_k C(k + i, i) p_{k+i} beta^k`` for
    ``i <= order``, with ``P(z) = sum_m p_m z^m`` the probability generating
    function of the photon probabilities ``p_0 .. p_M`` and ``beta`` a series
    (a number is a series of length 1): the nonnegative ``C(k + i, i) p_{k+i}``
    times the powers ``beta^k``, ``k <= M``, in one matrix product.
    """
    M = len(p) - 1
    binomial, index = _pgf_table(order, M)
    powers = np.zeros((M + 1, len(beta)))
    powers[0, 0] = 1.0
    for k in range(M):
        powers[k + 1] = _times(powers[k], beta)
    padded = np.zeros(M + order + 1)
    padded[: M + 1] = p
    return (binomial * padded[index]) @ powers
