"""Bounded one-dimensional optimization of the resource parameter Delta.

:func:`minimize_delta` scans a 41-point coarse grid, brackets the deepest
interior dip (several objectives carry an interior maximum next to the
minimum, and the fourth-order transfer cumulant pairs its stationary minimum
with a lower boundary value; the stationary one is the optimum of record),
golden-sections that bracket down to 1e-6, and finishes with a step-doubled
parabolic fit that removes the noise floor of finite-difference objectives.
Ties break toward smaller Delta, and boundary minima are returned only when
the grid shows no interior dip.

:func:`closed_form_delta` evaluates the six closed-form optimal-Delta
expressions; the optimizer cross-validates them numerically in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import EvaluationError, InvalidArgumentError
from .moments import moment_set, transfer_xp_table
from .numerics import QuadratureConfig
from .photonstats import d_functional, delta_family
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

CLOSED_FORM_KINDS = (
    "fidelity_fock1",
    "fidelity_coherent",
    "mu4_x_coherent",
    "mu4_x_squeezed",
    "mu4_x_fock1",
    "mu4_p_squeezed",
)

DELTA_TOL = 1e-6
_COARSE_POINTS = 41
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_STEP = 5e-3


@dataclass(frozen=True)
class Objective:
    """A distortion measure seen as a function of Delta at fixed (theta, r)."""

    kind: str
    r: float
    theta: float = 0.0
    input: Optional[InputState] = None
    gain: float = 1.0
    n_photons: int = 24
    quad_cfg: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidArgumentError(f"unknown objective kind {self.kind!r}")
        if self.kind in INPUT_DEPENDENT_KINDS and self.input is None:
            raise InvalidArgumentError(f"objective {self.kind!r} requires an input state")


@dataclass(frozen=True)
class OptimumRecord:
    delta_star: float
    objective_value: float
    r: float
    kind: str
    bracket_used: tuple
    iterations: int
    error: Optional[str] = None


def _channel(obj: Objective, delta: float) -> Channel:
    return Channel(
        SqueezedBellResource(delta=delta, theta=obj.theta, r=obj.r), gain=obj.gain
    )


def objective_function(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> objective value for ``obj``."""
    if obj.kind == "x2_transfer":
        return lambda d: float(transfer_xp_table(_channel(obj, d)).get(2, 0))

    if obj.kind == "kappa4_transfer":
        def table_kappa4(d: float) -> float:
            tab = transfer_xp_table(_channel(obj, d))
            mu2 = float(tab.get(2, 0))
            return float(tab.get(4, 0)) - 3.0 * mu2 * mu2

        return table_kappa4

    if obj.kind == "n_transfer":
        # Bare-derivative photon-number average; resource_closed_forms.n_ab
        # differs by a constant offset only, so the minimizer is shared.
        return lambda d: -float(_transfer_f1(obj, d))

    if obj.kind in ("mu4_x", "mu4_p"):
        ms_in = moment_set(obj.input)
        in_var = ms_in.x2_central if obj.kind == "mu4_x" else ms_in.p2_central
        key_mu4 = (4, 0) if obj.kind == "mu4_x" else (0, 4)
        g2 = obj.gain * obj.gain

        def mu4_distortion(d: float) -> float:
            tab = transfer_xp_table(_channel(obj, d))
            return abs(float(tab.get(*key_mu4)) + 6.0 * g2 * in_var * float(tab.get(2, 0)))

        return mu4_distortion

    family = delta_family(
        obj.input, obj.r, obj.theta, obj.gain, obj.n_photons, obj.quad_cfg
    )

    if obj.kind == "d_functional":
        return lambda d: d_functional(family.p_in, family.photon_distribution(d))

    if obj.kind == "one_minus_fidelity":
        return lambda d: 1.0 - family.fidelity(d)

    # frobenius
    return family.frobenius


def _transfer_f1(obj: Objective, delta: float) -> float:
    tab = transfer_xp_table(_channel(obj, delta))
    return -0.5 * float(tab.get(2, 0))


def _parabola_vertex(F, x: float, d: float) -> Optional[float]:
    fm, f0, fp = F(x - d), F(x), F(x + d)
    curv = fm - 2.0 * f0 + fp
    if not curv > 0.0:
        return None
    shift = 0.5 * d * (fm - fp) / curv
    if abs(shift) > d:
        return None
    return x + shift


def minimize_delta(obj: Objective) -> OptimumRecord:
    """Minimize ``obj`` over Delta in [0, 1]; deterministic, tie-break to smaller Delta."""
    f = objective_function(obj)
    cache: dict = {}

    def F(x: float) -> float:
        if x not in cache:
            v = float(f(x))
            if not math.isfinite(v):
                raise EvaluationError(f"objective {obj.kind!r} non-finite at delta={x!r}", delta=x)
            cache[x] = v
        return cache[x]

    grid = [i / (_COARSE_POINTS - 1) for i in range(_COARSE_POINTS)]
    vals = [F(x) for x in grid]
    # Prefer the deepest interior dip: some objectives (the fourth-order
    # transfer cumulant) pair the sought stationary minimum with a lower
    # boundary value, and the stationary one is the optimum of record.
    interior = [
        i
        for i in range(1, _COARSE_POINTS - 1)
        if vals[i] <= vals[i - 1]
        and vals[i] <= vals[i + 1]
        and (vals[i] < vals[i - 1] or vals[i] < vals[i + 1])
    ]
    candidates = interior or range(_COARSE_POINTS)
    i0 = min(candidates, key=lambda i: (vals[i], grid[i]))
    a0 = grid[max(i0 - 1, 0)]
    b0 = grid[min(i0 + 1, _COARSE_POINTS - 1)]

    a, b = a0, b0
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = F(x1), F(x2)
    iterations = 0
    while b - a > DELTA_TOL:
        iterations += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = F(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = F(x2)

    in_basin = {x: v for x, v in cache.items() if a0 <= x <= b0}
    best = min(in_basin.items(), key=lambda kv: (kv[1], kv[0]))[0]
    delta_star = best
    if _POLISH_STEP <= best <= 1.0 - _POLISH_STEP:
        v1 = _parabola_vertex(F, best, _POLISH_STEP)
        v2 = _parabola_vertex(F, best, 0.5 * _POLISH_STEP)
        if v1 is not None and v2 is not None:
            vertex = (4.0 * v2 - v1) / 3.0
            if 0.0 <= vertex <= 1.0 and abs(vertex - best) <= _POLISH_STEP:
                delta_star = vertex
    return OptimumRecord(
        delta_star=delta_star,
        objective_value=F(delta_star),
        r=obj.r,
        kind=obj.kind,
        bracket_used=(a0, b0),
        iterations=iterations,
    )


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
    if kind == "mu4_x_coherent":
        e2r = math.exp(2.0 * r)
        num = (3.0 + e2r) ** 2
        return math.sqrt(1.0 + num / math.sqrt(num * (13.0 + 2.0 * e2r * (5.0 + e2r)))) / math.sqrt(2.0)
    if kind == "mu4_x_squeezed":
        e2r, e2s = math.exp(2.0 * r), math.exp(2.0 * s)
        num = (e2r + 3.0 * e2s) ** 2
        den = math.sqrt(num * (2.0 * e2r**2 + 13.0 * e2s**2 + 10.0 * e2r * e2s))
        return math.sqrt(1.0 + num / den) / math.sqrt(2.0)
    if kind == "mu4_x_fock1":
        e2r = math.exp(2.0 * r)
        sq = (1.0 + e2r) ** 2
        return math.sqrt(
            1.0 + 3.0 * sq / math.sqrt(sq * (13.0 + 30.0 * e2r + 18.0 * e2r * e2r))
        ) / math.sqrt(2.0)
    # mu4_p_squeezed: the x-form of the coherent case with r -> r + s
    e2rs = math.exp(2.0 * (r + s))
    num = (3.0 + e2rs) ** 2
    return math.sqrt(1.0 + num / math.sqrt(num * (13.0 + 2.0 * e2rs * (5.0 + e2rs)))) / math.sqrt(2.0)


def sweep_r(
    kinds: Sequence[str],
    r_grid: Sequence[float],
    input: Optional[InputState] = None,
    theta: float = 0.0,
    gain: float = 1.0,
    n_photons: int = 24,
    quad_cfg: QuadratureConfig | None = None,
) -> list[OptimumRecord]:
    """Minimize every (kind, r) cell; failures are recorded, the sweep continues."""
    if not kinds or len(r_grid) == 0:
        raise InvalidArgumentError("sweep needs nonempty kind and r grids")
    records = []
    for kind in kinds:
        for r in r_grid:
            try:
                obj = Objective(
                    kind=kind,
                    r=float(r),
                    theta=theta,
                    input=input,
                    gain=gain,
                    n_photons=n_photons,
                    quad_cfg=quad_cfg or QuadratureConfig(),
                )
                records.append(minimize_delta(obj))
            except Exception as exc:  # record the cell, keep sweeping
                records.append(
                    OptimumRecord(
                        delta_star=float("nan"),
                        objective_value=float("nan"),
                        r=float(r),
                        kind=kind,
                        bracket_used=(float("nan"), float("nan")),
                        iterations=0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return records
