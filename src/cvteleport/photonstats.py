"""Photon-number statistics of outputs, the D_N functional, and overlap measures.

Photon probabilities of an output state come from the phase-space trace
formula

``P_n = (1/pi) ∫ d^2 xi  chi_out(xi) chi_n(-xi)``

with ``chi_n`` the Fock-state characteristic function.  One grid evaluation
of ``chi_out(xi) exp(-|xi|^2/2)`` feeds every ``n`` through the Laguerre
recurrence, so a whole distribution costs a single quadrature plan; the
per-``n`` route through :func:`cvteleport.numerics.integrate_plane` is kept as
:func:`output_photon_prob` and the tests pin both paths together.

Fidelity, purity, and the Frobenius distance are overlap integrals
``Tr(rho_f rho_g) = (1/pi) ∫ d^2 xi f(xi) g(-xi)``.

Delta decomposition.  The transfer function is
``tau = exp(-e u) sum_k w_k(Delta, theta) q_k(u)`` with three Delta-free
polynomials ``q_k`` (:func:`cvteleport.states.transfer_basis`) and weights
``w = (Delta^2, 2 Delta sqrt(1 - Delta^2) cos(theta), 1 - Delta^2)``.  So
every ``P_n`` and the fidelity are linear in ``w`` and the output purity is
the quadratic form ``w^T G w``.  :func:`delta_family` computes the
``(N+1) x 3`` photon basis, the three fidelity overlaps and the 3 x 3 Gram
matrix ``G`` once per (input, r, theta, gain, N, quadrature config); each
Delta then costs O(N) arithmetic (:class:`DeltaFamily`).

Family geometry.  The shared factor ``exp(-e u) chi_in(g xi)`` (the Delta = 1
output) is planned with :func:`cvteleport.numerics.plan_quadrature`; the
cutoff is widened until ``exp(-c R^2) (R^2)^4`` meets the 1e-16 target, since
the Gram integrands carry polynomials of degree 4 in ``u``; the tail check
then runs on each basis term ``exp(-e u) q_k(u) chi_in(g xi)``.  One grid,
with the node counts of :func:`output_photon_probs`, serves the photon
basis, the overlaps and the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OutputState
from .errors import CapacityError, ConsistencyError, InvalidArgumentError
from .numerics import (
    QuadratureConfig,
    QuadraturePlan,
    integrate_plane,
    laguerre_envelope_all,
    plan_polynomial_family,
    plan_quadrature,
)
from .phasespace import CharFn, PhasePoint
from .states import (
    Channel,
    FockInput,
    FockMixtureInput,
    InputState,
    N_MAX_FOCK,
    SqueezedBellResource,
    delta_weights,
    fock_charfn,
    input_charfn,
    input_photon_probs,
    input_purity,
    transfer_basis,
)

_PROB_SLACK = 1e-8
_SUM_SLACK = 1e-7
D_N_UPPER = math.sqrt(2.0)
# Degree in u of the Gram integrands tau_j tau_k: the family cutoff is sized for it.
_GRAM_DEGREE = 4


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon probabilities ``P_0 .. P_N`` plus a truncation-mass bound.

    ``probs`` keeps the raw quadrature values (small negative residues
    allowed for diagnostics); :meth:`clamped` is the [0, 1]-clipped copy used
    by the distortion functional.
    """

    probs: np.ndarray
    N: int
    truncation_mass_bound: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.N + 1,):
            raise InvalidArgumentError(f"expected {self.N + 1} probabilities, got {probs.shape}")
        if np.any(probs < -_PROB_SLACK) or np.any(probs > 1.0 + _PROB_SLACK):
            raise ConsistencyError(
                f"photon probabilities outside [-{_PROB_SLACK}, 1+{_PROB_SLACK}]: "
                f"min={probs.min():.3e}, max={probs.max():.3e}"
            )
        if probs.sum() > 1.0 + _SUM_SLACK:
            raise ConsistencyError(f"photon probabilities sum to {probs.sum()!r} > 1")
        object.__setattr__(self, "probs", probs)

    def clamped(self) -> np.ndarray:
        return np.clip(self.probs, 0.0, 1.0)

    def mean(self) -> float:
        return float(np.arange(self.N + 1) @ self.clamped())


@dataclass(frozen=True)
class DistortionMeasures:
    """Per-channel distortion summary: D_N, fidelity, Frobenius, purities."""

    d_n: float
    fidelity: float
    frobenius: float
    purity_in: float
    purity_out: float


def input_distribution(state: InputState, N: int) -> PhotonDistribution:
    probs = input_photon_probs(state, N)
    return PhotonDistribution(probs, N, truncation_mass_bound=max(0.0, 1.0 - probs.sum()))


def output_photon_prob(out: OutputState, n: int, cfg: QuadratureConfig | None = None) -> float:
    """Single ``P_n`` through the generic plane integrator (reference path)."""
    cfg = cfg or QuadratureConfig()
    chi_out = out.charfn
    chi_n = fock_charfn(n)

    def integrand(p: PhasePoint):
        return chi_out.fn(p) * chi_n.fn(-p)

    return float((integrate_plane(integrand, cfg) / math.pi).real)


def _check_cutoff(N: int):
    if N < 0:
        raise InvalidArgumentError("N must be nonnegative")
    if N > N_MAX_FOCK:
        raise CapacityError(f"photon cutoff {N} exceeds N_max={N_MAX_FOCK}")


def _photon_nodes(plan: QuadraturePlan, N: int, cfg: QuadratureConfig):
    """Nodes of ``plan`` enriched to resolve the Fock factors up to ``n = N``.

    The Fock factor ``chi_n(-xi) = exp(-u/2) L_n(u)`` oscillates with radial
    wavenumber at most ``sqrt(4N + 2)``.  A Legendre rule of n nodes resolves
    e^{ikx} on [0, R] once n > kR/2.  The anisotropy map stretches one axis by
    ``max(scale, 1/scale)``, which raises the wavenumber on the scaled disk
    and sweeps the oscillation across the angular direction.
    """
    k_osc = max(plan.scale, 1.0 / plan.scale) * math.sqrt(4.0 * N + 6.0)
    radial = max(cfg.radial_nodes, int(0.5 * k_osc * plan.radius) + 32)
    angular = max(cfg.angular_nodes, 2 * (int(3.0 * k_osc) + 32))
    return plan.nodes(
        QuadratureConfig(
            radial_nodes=radial,
            angular_nodes=angular,
            cutoff_radius=cfg.cutoff_radius,
            target_abs_tol=cfg.target_abs_tol,
        )
    )


def _distribution(probs: np.ndarray, N: int) -> PhotonDistribution:
    return PhotonDistribution(probs, N, truncation_mass_bound=max(0.0, 1.0 - probs.sum()))


def output_photon_probs(
    out: OutputState, N: int, cfg: QuadratureConfig | None = None
) -> PhotonDistribution:
    """``P_0 .. P_N`` of a teleportation output on one shared quadrature grid.

    The Fock factor ``chi_n(-xi)`` is bounded by 1 but does not decay before
    its turning point ``u ~ 4n + 2``, so the cutoff is sized from
    ``|chi_out|`` alone and the node counts are enriched to resolve the
    Laguerre oscillation.
    """
    _check_cutoff(N)
    cfg = cfg or QuadratureConfig()
    chi_out = out.charfn
    W, Z, wt = _photon_nodes(plan_quadrature(chi_out.fn, cfg), N, cfg)
    pts = PhasePoint(W, Z)
    base = np.asarray(chi_out.fn(pts), dtype=complex) * wt
    lag = laguerre_envelope_all(N, pts.abs_sq)
    return _distribution((lag.reshape(N + 1, -1) @ base.ravel()).real / math.pi, N)


def d_functional(p_in: PhotonDistribution, p_out: PhotonDistribution) -> float:
    """``D_N = sqrt(sum_n (P_n_out - P_n_in)^2)`` over the shared cutoff."""
    if p_in.N != p_out.N:
        raise InvalidArgumentError(f"distribution lengths differ: {p_in.N} vs {p_out.N}")
    diff = p_out.clamped() - p_in.clamped()
    return float(math.sqrt(np.sum(diff * diff)))


def d_increment_estimate(d_n: float, delta_next: float) -> float:
    """First-order estimate of ``D_{N+1}`` from ``D_N`` and the next squared term.

    Returns ``D_N + delta_next / (2 D_N)``; at ``D_N = 0`` the expansion
    degenerates and the exact ``sqrt(delta_next)`` is returned instead.
    """
    if d_n < 0 or delta_next < 0:
        raise InvalidArgumentError("d_n and delta_next must be nonnegative")
    if d_n == 0.0:
        return math.sqrt(delta_next)
    return d_n + delta_next / (2.0 * d_n)


def overlap(f: CharFn, g: CharFn, cfg: QuadratureConfig | None = None) -> float:
    """``Tr(rho_f rho_g) = (1/pi) ∫ d^2 xi f(xi) g(-xi)``."""
    if f.ordering != 0 or g.ordering != 0:
        raise InvalidArgumentError("overlap requires Wigner-ordered characteristic functions")
    cfg = cfg or QuadratureConfig()

    def integrand(p: PhasePoint):
        return f.fn(p) * g.fn(-p)

    return float((integrate_plane(integrand, cfg) / math.pi).real)


def purity(f: CharFn, cfg: QuadratureConfig | None = None) -> float:
    return overlap(f, f, cfg)


@dataclass(frozen=True, eq=False)
class DeltaFamily:
    """The Delta-independent quadratures of one (input, r, theta, gain, N, cfg) cell.

    With the weights ``w`` of :func:`cvteleport.states.delta_weights`,
    ``P_out = photon_basis @ w``, ``F = fidelity_basis @ w`` and
    ``purity_out = w @ gram @ w``.  Every Delta passes the
    :class:`~cvteleport.states.SqueezedBellResource` validation, and photon
    distributions the :class:`PhotonDistribution` validation.
    """

    state: InputState
    r: float
    theta: float
    gain: float
    N: int
    photon_basis: np.ndarray
    fidelity_basis: np.ndarray
    gram: np.ndarray
    purity_in: float
    p_in: PhotonDistribution

    def _weights(self, delta: float) -> np.ndarray:
        res = SqueezedBellResource(delta=delta, theta=self.theta, r=self.r)
        return np.array(delta_weights(res))

    def photon_distribution(self, delta: float) -> PhotonDistribution:
        return _distribution(self.photon_basis @ self._weights(delta), self.N)

    def fidelity(self, delta: float) -> float:
        return float(self.fidelity_basis @ self._weights(delta))

    def purity_out(self, delta: float) -> float:
        w = self._weights(delta)
        return float(w @ self.gram @ w)

    def frobenius(self, delta: float) -> float:
        return _frobenius(self.purity_in, self.purity_out(delta), self.fidelity(delta))

    def measures(self, delta: float) -> DistortionMeasures:
        """D_N, fidelity, Frobenius distance, and purities at one Delta.

        Checks D_N against [0, sqrt(2)], the fidelity against the
        Cauchy-Schwarz bound, and, for Fock-diagonal inputs (Fock states and
        Fock mixtures), D_N against the Frobenius distance to 1e-6, which
        cross-checks the photon-probability and overlap quadratures.
        """
        d_n = d_functional(self.p_in, self.photon_distribution(delta))
        fid, pur_in, pur_out = self.fidelity(delta), self.purity_in, self.purity_out(delta)
        frob = _frobenius(pur_in, pur_out, fid)

        if not -1e-9 <= d_n <= D_N_UPPER + 1e-9:
            raise ConsistencyError(f"D_N={d_n!r} outside [0, sqrt(2)]")
        # Cauchy-Schwarz bound; implies the purest-state upper bound on fidelity.
        if fid > math.sqrt(max(pur_in * pur_out, 0.0)) + 1e-7:
            raise ConsistencyError(
                f"fidelity {fid!r} exceeds sqrt(purity_in * purity_out); quadrature fault"
            )
        if isinstance(self.state, (FockInput, FockMixtureInput)) and abs(d_n - frob) > 1e-6:
            raise ConsistencyError(
                f"D_N={d_n!r} and Frobenius={frob!r} disagree for a Fock-diagonal input; "
                "quadrature or truncation fault"
            )
        return DistortionMeasures(
            d_n=d_n, fidelity=fid, frobenius=frob, purity_in=pur_in, purity_out=pur_out
        )


def _frobenius(pur_in: float, pur_out: float, fid: float) -> float:
    return math.sqrt(max(pur_in + pur_out - 2.0 * fid, 0.0))


def delta_family(
    state: InputState,
    r: float,
    theta: float = 0.0,
    gain: float = 1.0,
    N: int = 24,
    cfg: QuadratureConfig | None = None,
) -> DeltaFamily:
    """Build the :class:`DeltaFamily` of one cell: one plan, one grid, three quadratures.

    Raises like :func:`output_photon_probs` (bad cutoff, no decay,
    :class:`~cvteleport.errors.AccuracyError` when any basis term fails the
    tail check) and like the resource constructors (bad r, theta or gain).
    """
    _check_cutoff(N)
    cfg = cfg or QuadratureConfig()
    rate, terms = transfer_basis(
        Channel(SqueezedBellResource(delta=1.0, theta=theta, r=r), gain=gain)
    )
    chi_in = input_charfn(state)

    def chi_at(p: PhasePoint, scale: float):
        return np.asarray(chi_in.fn(PhasePoint(scale * p.w, scale * p.z)), dtype=complex)

    def base(p: PhasePoint):
        return np.exp(-rate * p.abs_sq) * chi_at(p, gain)

    def term(k: int):
        return lambda p: base(p) * terms(p.abs_sq)[k]

    plan = plan_polynomial_family(base, [term(k) for k in range(3)], _GRAM_DEGREE, cfg)
    W, Z, wt = _photon_nodes(plan, N, cfg)
    pts = PhasePoint(W, Z)
    u = pts.abs_sq
    # (3, nodes): the transfer terms exp(-e u) q_k(u) on the grid.
    tau_k = (np.stack(np.broadcast_arrays(*terms(u))) * np.exp(-rate * u)).reshape(3, -1)
    chi_g, chi_mg = chi_at(pts, gain).ravel(), chi_at(pts, -gain).ravel()
    wt = wt.ravel() / math.pi

    # The Laguerre and transfer factors are real, so only real parts enter.
    lag = laguerre_envelope_all(N, u).reshape(N + 1, -1)
    photon_basis = lag @ (tau_k * (chi_g.real * wt)).T
    fidelity_basis = tau_k @ ((chi_at(pts, 1.0).ravel() * chi_mg).real * wt)
    gram = (tau_k * ((chi_g * chi_mg).real * wt)) @ tau_k.T
    return DeltaFamily(
        state=state,
        r=r,
        theta=theta,
        gain=gain,
        N=N,
        photon_basis=photon_basis,
        fidelity_basis=fidelity_basis,
        gram=gram,
        purity_in=input_purity(state),
        p_in=input_distribution(state, N),
    )


def distortion_measures(
    state: InputState, out: OutputState, N: int, cfg: QuadratureConfig | None = None
) -> DistortionMeasures:
    """D_N, fidelity, Frobenius distance, and purities for one channel run.

    ``out`` must be ``state`` teleported through ``out.channel``; the numbers
    come from that channel's :func:`delta_family` (see
    :meth:`DeltaFamily.measures` for the consistency checks).
    """
    if out.input != state:
        raise InvalidArgumentError("distortion_measures needs the output of teleporting state")
    ch = out.channel
    res = ch.resource
    return delta_family(state, res.r, res.theta, ch.gain, N, cfg).measures(res.delta)
