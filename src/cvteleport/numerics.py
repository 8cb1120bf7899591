"""Shared numerical kernels: origin derivatives and plane quadrature.

Two independent engines live here:

* :func:`derivative_at_origin` — central finite differences with a Richardson
  table.  It serves as the model-free oracle for the closed-form moment tables
  of :mod:`cvteleport.moments`.
* :func:`integrate_plane` — full-plane integrals in polar coordinates
  (Gauss-Legendre radial nodes times a uniform angular grid), with the cutoff
  radius chosen from a decay probe of the integrand itself.

All catalog integrands decay at least as fast as ``exp(-|xi|^2 / 2)``; the
probe also measures per-axis decay and applies an area-preserving diagonal
rescaling ``(w, z) -> (w / lam, z * lam)`` so that strongly squeezed
integrands stay well conditioned on the polar grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AccuracyError, CapacityError, InvalidArgumentError
from .phasespace import ORIGIN, PhasePoint

MAX_DERIVATIVE_ORDER = 6

# ln(1e16): the auto cutoff radius R satisfies exp(-c R^2) < 1e-16.
_DECAY_TARGET = 36.85
_PROBE_RADII = (0.93, 1.91, 3.17, 4.57)
# Down to 1e-6 of the probe radii: enough for the fastest axis that does not
# underflow at the origin's scale.
_PROBE_HALVINGS = 20
_FLOOR = 1e-300
_NEGLIGIBLE = 1e-250


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for :func:`integrate_plane`."""

    radial_nodes: int = 96
    angular_nodes: int = 128
    cutoff_radius: float | str = "auto"
    target_abs_tol: float = 1e-9

    def __post_init__(self):
        if self.radial_nodes < 8 or self.angular_nodes < 8:
            raise InvalidArgumentError("quadrature needs at least 8 nodes per direction")
        if not self.target_abs_tol > 0:
            raise InvalidArgumentError("target_abs_tol must be positive")
        if self.cutoff_radius != "auto" and not float(self.cutoff_radius) > 0:
            raise InvalidArgumentError("cutoff_radius must be positive or 'auto'")


@dataclass(frozen=True)
class DiffConfig:
    """Knobs for :func:`derivative_at_origin`.

    ``step`` is the base step unit; the engine scales it per derivative order
    (see ``_STEP_SCALE``) so that truncation and roundoff stay balanced for
    orders up to 6.  ``richardson_levels`` central-difference evaluations at
    steps ``h, h/2, h/4, ...`` feed a Richardson table in powers of h^2.
    """

    step: float = 1e-3
    richardson_levels: int = 3

    def __post_init__(self):
        if not self.step > 0:
            raise InvalidArgumentError("step must be positive")
        if self.richardson_levels < 1:
            raise InvalidArgumentError("richardson_levels must be >= 1")


# Second-order central stencils stored as (positive offsets, their
# coefficients, center coefficient, parity sign of c_{-o} = sign * c_o);
# Richardson removes the h^2, h^4, ... terms.  Evaluating the +-o pairs
# together makes odd derivatives of even functions cancel bit-exactly.
_STENCILS = {
    0: ((), (), 1.0, 1.0),
    1: ((1,), (0.5,), 0.0, -1.0),
    2: ((1,), (1.0,), -2.0, 1.0),
    3: ((1, 2), (-1.0, 0.5), 0.0, -1.0),
    4: ((1, 2), (-4.0, 1.0), 6.0, 1.0),
    5: ((1, 2, 3), (2.5, -2.0, 0.5), 0.0, -1.0),
    6: ((1, 2, 3), (15.0, -6.0, 1.0), -20.0, 1.0),
}

# Base-step multiplier per total derivative order.  The literal 1e-3 base is
# roundoff-dominated beyond second order (noise ~ eps / h^order), so higher
# orders use wider stencils; Richardson keeps the truncation error small.
_STEP_SCALE = {1: 25.0, 2: 25.0, 3: 40.0, 4: 60.0, 5: 80.0, 6: 100.0}


def derivative_at_origin(
    f: Callable[[PhasePoint], complex], nw: int, nz: int, cfg: DiffConfig | None = None
) -> complex:
    """Mixed partial ``d^(nw+nz) f / dw^nw dz^nz`` at the origin.

    Central differences on a tensor-product stencil, Richardson-extrapolated
    over ``cfg.richardson_levels`` halvings of the step.  Deterministic for a
    fixed configuration.
    """
    if nw < 0 or nz < 0:
        raise InvalidArgumentError("derivative orders must be nonnegative")
    order = nw + nz
    if order > MAX_DERIVATIVE_ORDER:
        raise CapacityError(f"derivative order {order} exceeds cap {MAX_DERIVATIVE_ORDER}")
    if order == 0:
        return complex(f(ORIGIN))
    cfg = cfg or DiffConfig()

    pos_w, cw, cw0, sw = _STENCILS[nw]
    pos_z, cz, cz0, sz = _STENCILS[nz]
    h0 = cfg.step * _STEP_SCALE[order]

    def z_line(ow: float, h: float) -> complex:
        acc = cz0 * complex(f(PhasePoint(ow * h, 0.0))) if cz0 else 0.0 + 0.0j
        for oz, b in zip(pos_z, cz):
            acc += b * (
                complex(f(PhasePoint(ow * h, oz * h)))
                + sz * complex(f(PhasePoint(ow * h, -oz * h)))
            )
        return acc

    def stencil_value(h: float) -> complex:
        acc = cw0 * z_line(0.0, h) if cw0 else 0.0 + 0.0j
        for ow, a in zip(pos_w, cw):
            acc += a * (z_line(ow, h) + sw * z_line(-ow, h))
        return acc / h**order

    table = [stencil_value(h0)]
    for k in range(1, cfg.richardson_levels):
        row = [stencil_value(h0 / 2**k)]
        for j in range(1, k + 1):
            fac = 4.0**j
            row.append((fac * row[j - 1] - table[j - 1]) / (fac - 1.0))
        table = row
    return table[-1]


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def polar_grid(radial_nodes: int, angular_nodes: int, radius: float):
    """Quadrature nodes/weights for ``∫∫ f dw dz`` over the disk of ``radius``.

    Returns ``(W, Z, weights)`` with shapes ``(radial_nodes, angular_nodes)``;
    the weights already include the polar Jacobian ``rho``.
    """
    x, v = _leggauss(radial_nodes)
    rho = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * v
    phi = np.arange(angular_nodes) * (2.0 * np.pi / angular_nodes)
    W = np.outer(rho, np.cos(phi))
    Z = np.outer(rho, np.sin(phi))
    weights = np.repeat(((wr * rho) * (2.0 * np.pi / angular_nodes))[:, None], angular_nodes, axis=1)
    return W, Z, weights


def _max_profile(f, directions, radii):
    """Max |f| over the given (cos, sin) directions at each probe radius.

    One call of ``f`` covers every probe point (radii x directions).
    """
    rays = np.asarray(directions, dtype=float)
    rr = np.asarray(radii, dtype=float)[:, None]
    vals = np.abs(_eval_grid(f, rr * rays[:, 0], rr * rays[:, 1]))
    return np.maximum(vals.max(axis=1), _FLOOR).tolist()


def _decay_rate(profile, radii):
    """Gaussian decay rate ``|f| ~ exp(-c r^2)`` from the probe profile.

    Candidate rates come from every consecutive radius pair plus the full
    span; the slowest positive one wins, which keeps the estimate
    conservative when polynomial factors (Laguerre nodes) locally break
    monotonicity.  Returns None when nothing decays; pairs where both samples
    underflowed are skipped.
    """
    pairs = [(k, k + 1) for k in range(len(radii) - 1)] + [(0, len(radii) - 1)]
    rates = []
    floored = 0
    for i, j in pairs:
        m0, m1 = profile[i], profile[j]
        if m0 <= _NEGLIGIBLE and m1 <= _NEGLIGIBLE:
            floored += 1
            continue
        rate = math.log(m0 / m1) / (radii[j] ** 2 - radii[i] ** 2)
        if rate > 0.0:
            rates.append(rate)
    if not rates:
        if profile[0] <= _NEGLIGIBLE or floored:
            # Decayed below the floor before or inside the probed span.
            return _DECAY_TARGET / radii[0] ** 2
        return None
    return min(rates)


_AXIS_W = ((1.0, 0.0), (-1.0, 0.0))
_AXIS_Z = ((0.0, 1.0), (0.0, -1.0))
_EIGHT_RAYS = tuple(
    (math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0)) for k in range(8)
)


def _axis_rate(f, axis):
    """Gaussian decay rate of ``|f|`` along one axis.

    A sample at the floor bounds the rate only from below, so only samples
    above it enter.  When fewer than two of them remain (a strongly squeezed
    axis decays past the floor inside the probe span), the probe radii are
    halved until two do, at most ``_PROBE_HALVINGS`` times.
    """
    radii = _PROBE_RADII
    for _ in range(_PROBE_HALVINGS):
        profile = _max_profile(f, axis, radii)
        kept = [(m, rr) for m, rr in zip(profile, radii) if m > _NEGLIGIBLE]
        if len(kept) >= 2:
            return _decay_rate(*zip(*kept))
        radii = tuple(0.5 * rr for rr in radii)
    return _decay_rate(_max_profile(f, axis, _PROBE_RADII), _PROBE_RADII)


def _anisotropy_scale(f) -> float:
    """Area-preserving scale lam equalizing per-axis Gaussian decay rates."""
    cw = _axis_rate(f, _AXIS_W)
    cz = _axis_rate(f, _AXIS_Z)
    if cw is None or cz is None or cw <= 0 or cz <= 0:
        return 1.0
    return float(np.clip((cw / cz) ** 0.25, 1.0 / 32.0, 32.0))


def _eval_grid(f, W, Z):
    """Evaluate ``f`` on a node grid in one vectorized call.

    A closure that returns a scalar (a constant) is broadcast to the grid;
    anything the closure raises reaches the caller.
    """
    vals = np.asarray(f(PhasePoint(W, Z)), dtype=complex)
    return np.broadcast_to(vals, W.shape)


@dataclass(frozen=True)
class QuadraturePlan:
    """Resolved geometry for one integrand: scale, cutoff, and tail estimate."""

    scale: float
    radius: float
    decay_rate: float
    tail_estimate: float

    def nodes(self, cfg: QuadratureConfig):
        Wp, Zp, wt = polar_grid(cfg.radial_nodes, cfg.angular_nodes, self.radius)
        return Wp / self.scale, Zp * self.scale, wt


def plan_quadrature(f: Callable[[PhasePoint], complex], cfg: QuadratureConfig) -> QuadraturePlan:
    """Probe ``f`` and fix the quadrature geometry for it.

    Raises :class:`InvalidArgumentError` if the probe sees no decay and
    :class:`AccuracyError` if the truncation-tail estimate exceeds
    ``cfg.target_abs_tol``.
    """
    if cfg.cutoff_radius != "auto":
        lam = 1.0
    else:
        lam = _anisotropy_scale(f)

    def scaled(p: PhasePoint):
        return f(PhasePoint(p.w / lam, p.z * lam))

    profile = _max_profile(scaled, _EIGHT_RAYS, _PROBE_RADII)
    c_est = _decay_rate(profile, _PROBE_RADII)
    if c_est is None or c_est <= 0:
        raise InvalidArgumentError(
            "integrand does not decay along the probe rays; integrate_plane "
            "requires at least Gaussian-enveloped decay"
        )
    if cfg.cutoff_radius != "auto":
        radius = float(cfg.cutoff_radius)
    else:
        radius = math.sqrt(_DECAY_TARGET / c_est)
    # Eight rays at the cutoff and just inside it bound the Gaussian tail by pi max|f| / c.
    m_tail = max(_max_profile(scaled, _EIGHT_RAYS, (radius, 0.97 * radius)))
    tail = math.pi * m_tail / c_est if m_tail > _NEGLIGIBLE else 0.0
    if tail > cfg.target_abs_tol:
        raise AccuracyError(
            f"estimated truncation error {tail:.3e} exceeds target {cfg.target_abs_tol:.3e}",
            estimate=tail,
        )
    return QuadraturePlan(scale=lam, radius=radius, decay_rate=c_est, tail_estimate=tail)


def integrate_plane(
    f: Callable[[PhasePoint], complex], cfg: QuadratureConfig | None = None
) -> complex:
    """``∫∫ f(w, z) dw dz`` over the whole conjugate plane."""
    cfg = cfg or QuadratureConfig()
    plan = plan_quadrature(f, cfg)
    W, Z, wt = plan.nodes(cfg)
    vals = _eval_grid(f, W, Z)
    return complex(np.sum(wt * vals))


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
    Laguerre factors, exactly as on the rays of :func:`polar_grid`.
    """
    x, v = _leggauss(nodes)
    radius = math.sqrt(cutoff)
    rho = 0.5 * radius * (x + 1.0)
    return rho * rho, radius * v * rho
