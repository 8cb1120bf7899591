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
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, CapacityError, InvalidArgumentError
from .phasespace import ORIGIN, PhasePoint

MAX_DERIVATIVE_ORDER = 6

# ln(1e16): the auto cutoff radius R satisfies exp(-c R^2) < 1e-16.
_DECAY_TARGET = 36.85
_PROBE_RADII = (0.93, 1.91, 3.17, 4.57)
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


def _abs_at(f, w, z) -> float:
    return abs(complex(f(PhasePoint(w, z))))


def _max_profile(f, directions, radii):
    """Max |f| over the given (cos, sin) directions at each probe radius."""
    return [
        max(max(_abs_at(f, r * cw, r * sz) for cw, sz in directions), _FLOOR) for r in radii
    ]


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


def _anisotropy_scale(f) -> float:
    """Area-preserving scale lam equalizing per-axis Gaussian decay rates."""
    cw = _decay_rate(_max_profile(f, _AXIS_W, _PROBE_RADII), _PROBE_RADII)
    cz = _decay_rate(_max_profile(f, _AXIS_Z, _PROBE_RADII), _PROBE_RADII)
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


def _certified_tail(scaled, radius: float, c_est: float, cfg: QuadratureConfig) -> float:
    """Truncation-tail estimate of ``scaled`` beyond ``radius``.

    Samples ``|f|`` on eight rays at the cutoff and just inside it and bounds
    the Gaussian tail by ``pi max|f| / c``.  Raises :class:`AccuracyError`
    when the estimate exceeds ``cfg.target_abs_tol``.
    """
    m_tail = max(
        _abs_at(scaled, rr * cw, rr * sz)
        for rr in (radius, 0.97 * radius)
        for cw, sz in _EIGHT_RAYS
    )
    tail = math.pi * m_tail / c_est if m_tail > _NEGLIGIBLE else 0.0
    if tail > cfg.target_abs_tol:
        raise AccuracyError(
            f"estimated truncation error {tail:.3e} exceeds target {cfg.target_abs_tol:.3e}",
            estimate=tail,
        )
    return tail


def _rescaled(f, lam: float):
    def scaled(p: PhasePoint):
        return f(PhasePoint(p.w / lam, p.z * lam))

    return scaled


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
    scaled = _rescaled(f, lam)

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
    tail = _certified_tail(scaled, radius, c_est, cfg)
    return QuadraturePlan(scale=lam, radius=radius, decay_rate=c_est, tail_estimate=tail)


def plan_polynomial_family(
    base: Callable[[PhasePoint], complex],
    terms: Sequence[Callable[[PhasePoint], complex]],
    degree: int,
    cfg: QuadratureConfig,
) -> QuadraturePlan:
    """One geometry for every integrand ``base(xi) * q(|xi|^2)``, ``deg q <= degree``.

    ``base`` fixes the scale and the decay rate ``c`` through
    :func:`plan_quadrature`.  The polynomial factor slows the decay, so an
    automatic cutoff is widened until ``exp(-c R^2) (R^2)^degree`` meets the
    same ``exp(-36.85) ~ 1e-16`` target.  The tail check of
    :func:`plan_quadrature` then runs on each of ``terms`` (the actual
    integrands) at that cutoff; the largest estimate is the plan's.
    """
    plan = plan_quadrature(base, cfg)
    radius = plan.radius
    if cfg.cutoff_radius == "auto":
        c = plan.decay_rate
        # Fixed point of c x = T + degree ln x for x = R^2; it contracts
        # because c x >= T > degree.
        x = radius * radius
        for _ in range(8):
            x = max(x, (_DECAY_TARGET + degree * math.log(x)) / c)
        radius = math.sqrt(x)
    tail = max(
        _certified_tail(_rescaled(t, plan.scale), radius, plan.decay_rate, cfg) for t in terms
    )
    return QuadraturePlan(
        scale=plan.scale, radius=radius, decay_rate=plan.decay_rate, tail_estimate=tail
    )


def integrate_plane(
    f: Callable[[PhasePoint], complex], cfg: QuadratureConfig | None = None
) -> complex:
    """``∫∫ f(w, z) dw dz`` over the whole conjugate plane."""
    cfg = cfg or QuadratureConfig()
    plan = plan_quadrature(f, cfg)
    W, Z, wt = plan.nodes(cfg)
    vals = _eval_grid(f, W, Z)
    return complex(np.sum(wt * vals))


def laguerre_all(n_max: int, u) -> np.ndarray:
    """Laguerre polynomials ``L_0(u) .. L_n_max(u)`` by the stable recurrence.

    ``L_{k+1} = ((2k + 1 - u) L_k - k L_{k-1}) / (k + 1)``; returns an array of
    shape ``(n_max + 1, *u.shape)``.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.empty((n_max + 1,) + u.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 - u
    for k in range(1, n_max):
        out[k + 1] = ((2.0 * k + 1.0 - u) * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


def laguerre(n: int, u):
    """Laguerre polynomial ``L_n(u)`` (scalar or ndarray ``u``)."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    u = np.asarray(u, dtype=float)
    lkm1 = np.ones_like(u)
    if n == 0:
        return lkm1 if lkm1.shape else float(lkm1)
    lk = 1.0 - u
    for k in range(1, n):
        lk, lkm1 = ((2.0 * k + 1.0 - u) * lk - k * lkm1) / (k + 1.0), lk
    return lk if lk.shape else float(lk)


def laguerre_envelope_all(n_max: int, u) -> np.ndarray:
    """``exp(-u/2) L_k(u)`` for ``k = 0 .. n_max``.

    The recurrence is applied to the premultiplied values, which stay in
    [-1, 1] for all u >= 0, so neither factor can overflow on wide grids.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    u = np.asarray(u, dtype=float)
    env = np.exp(-0.5 * u)
    out = np.empty((n_max + 1,) + u.shape, dtype=float)
    out[0] = env
    if n_max >= 1:
        out[1] = (1.0 - u) * env
    for k in range(1, n_max):
        out[k + 1] = ((2.0 * k + 1.0 - u) * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


def laguerre_envelope(n: int, u):
    """``exp(-u/2) L_n(u)`` with the bounded product recurrence."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    u = np.asarray(u, dtype=float)
    tkm1 = np.exp(-0.5 * u)
    if n == 0:
        return tkm1 if tkm1.shape else float(tkm1)
    tk = (1.0 - u) * tkm1
    for k in range(1, n):
        tk, tkm1 = ((2.0 * k + 1.0 - u) * tk - k * tkm1) / (k + 1.0), tk
    return tk if tk.shape else float(tk)
