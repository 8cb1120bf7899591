"""Independent numerical oracles that the tests compare the package against.

None of this runs on a production path: the package computes moments from
closed-form cumulant tables and photon statistics and overlaps on the 1-D Delta family
(:func:`cvteleport.photonstats.delta_family`).  The channel's pointwise form
lives here: :class:`PhasePoint`, :class:`CharFn` and the closures
:func:`input_charfn`, :func:`transfer_fn` and :func:`output_charfn`, which
evaluate ``chi_out(xi) = tau(xi) chi_in(g xi)`` at points.  Two model-free
engines read them:

* :func:`derivative_at_origin` — central finite differences with a Richardson
  table, the oracle of the closed-form cumulant tables of
  :mod:`cvteleport.moments` (:func:`raw_moment_xp`, :func:`fd_moment_set`,
  :func:`fd_objective_function`), and through :func:`raw_moment_normal` of
  the package's photon numbers.  It takes raw moments, so the tests compare
  them with :func:`raw_from_cumulants` of the package's tables, and it
  converts them to central moments itself (:func:`central_from_raw`,
  :func:`moment_set_from_tables`).
* :func:`reference_minimize` — a grid scan, golden section and parabola
  polish over any scalar ``f(Delta)``, the oracle of the exact optimizer
  :func:`cvteleport.optimize.minimize_delta`; unlike it, it asks nothing of
  ``f``'s form, so it also minimizes the finite-difference objectives.
  :func:`objective_parts` evaluates each objective kind one Delta at a time
  from the cumulant tables and the Delta family, the oracle of the
  optimizer's quadratic forms, which :func:`trig_form` and
  :func:`trig_objective` read as the trigonometric polynomial :func:`_basis`
  whose stationary points and zeros the optimizer finds, for the tests that
  need them; :func:`weighted_objective` evaluates a form in the Delta weights
  as the optimizer scores its candidates.  :func:`exact_transfer_cumulants` gives
  the transfer function's K(2, 0) and K(4, 0) at 50 digits.  :func:`reference_interior_roots` finds one
  quartic's unit-circle roots with ``np.roots`` and Newton steps through
  ``np.polyval``, the oracle of the optimizer's batched root solve.
* :func:`integrate_plane` — full-plane integrals in polar coordinates
  (Gauss-Legendre radial nodes times a uniform angular grid), with the cutoff
  radius chosen from a decay probe of the integrand itself.  It is the oracle
  of the Delta family (:func:`output_photon_probs`, :func:`overlap`,
  :func:`purity`).

All catalog integrands decay at least as fast as ``exp(-|xi|^2 / 2)``; the
probe also measures per-axis decay and applies an area-preserving diagonal
rescaling ``(w, z) -> (w / lam, z * lam)`` so that strongly squeezed
integrands stay well conditioned on the polar grid.

:func:`strided_exp_series` and :func:`summed_weighted_forms` are the former
forms of :func:`cvteleport.numerics._exp_series` and
:func:`cvteleport.states.weighted_forms`, and :func:`transfer_rows` the
former per-r form of :func:`cvteleport.optimize._transfer_table`, which those
keep bit for bit (:func:`transfer_table_mismatches` compares the table with
it).

:func:`polynomial_gaussian_overlaps` builds the closed-form Gaussian overlaps
of coherent and squeezed inputs from ``numpy.polynomial`` products of the
transfer terms, the oracle of the matrix form in
:func:`cvteleport.photonstats._gaussian_overlaps`.

:func:`radial_family` and :func:`radial_photon_basis` integrate the Delta
family's 1-D integrands on Gauss-Legendre rules in ``sqrt(u)`` cut at
certified envelope tails (:func:`radial_rule`, :func:`envelope_cutoff`,
:func:`envelope_tail`), and :func:`gauss_laguerre_family` on exact
Gauss-Laguerre rules (:func:`gauss_laguerre_rule`) over the Laguerre table
:func:`laguerre_envelope_all`: the oracles of the Taylor series of the
Fock-diagonal family, with :func:`exact_fock_family` and
:func:`exact_gram_moments`, its 80-digit expansions.

Also here: :func:`convert_ordering`, which the normal-ordered FD moments
need, and :func:`sbl_two_mode_value`, the full two-mode resource function
whose restriction the one-mode transfer function must equal.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cvteleport.channel import OutputState
from cvteleport.errors import (
    AccuracyError,
    CapacityError,
    ConsistencyError,
    CVTeleportError,
    InvalidArgumentError,
)
from cvteleport.moments import (
    _N_MEAN_FLOOR,
    MomentSet,
    _derivative_rows,
    moment_set,
    state_cumulants,
    transfer_cumulants,
)
from cvteleport.optimize import (
    _FAMILY_KINDS,
    _ROOT_TOL,
    _UPPER,
    Objective,
    _coefficients,
    _forms,
    _transfer_table,
    _trig,
)
from cvteleport.photonstats import (
    PhotonDistribution,
    _check_cutoff,
    d_functional,
    delta_family,
)
from cvteleport.states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    SqueezedBellResource,
    SqueezedVacuumInput,
    _basis_rows,
    delta_weight_rows,
    input_photon_probs,
    state_label,
    transfer_basis,
    transfer_coefficients,
    transfer_label,
)

# ---------------------------------------------------------------------------
# Phase-space points and pointwise characteristic functions
# ---------------------------------------------------------------------------
#
# The conjugate phase-space coordinate is ``xi = w + i z`` with real ``w``,
# ``z``.  A characteristic function carries an ordering index ``s`` in
# ``{-1, 0, 1}``: ``s = 0`` is the symmetric (Wigner) ordering, ``s = 1`` the
# normal ordering, ``s = -1`` the antinormal ordering, related by
# ``chi_s(xi) = exp(s |xi|^2 / 2) * chi_0(xi)``.  ``kind`` tells the
# characteristic functions of states from transfer functions (restrictions of
# a two-mode resource), whose derivative "averages" are bookkeeping
# quantities, not moments of a state.  The closures follow numpy's
# scalar/array semantics, so a ``PhasePoint`` may carry floats or
# broadcastable arrays; the plane quadrature relies on this.

ORDERINGS = (-1, 0, 1)
KINDS = ("state", "transfer")


@dataclass(frozen=True)
class PhasePoint:
    """A point ``xi = w + i z`` of one-mode conjugate phase space."""

    w: float
    z: float

    @property
    def xi(self):
        return self.w + 1j * self.z

    @property
    def xi_conj(self):
        return self.w - 1j * self.z

    @property
    def abs_sq(self):
        """|xi|^2 = w^2 + z^2; nonnegative exactly."""
        return self.w * self.w + self.z * self.z

    def conjugate(self) -> "PhasePoint":
        return PhasePoint(self.w, -self.z)

    def __neg__(self) -> "PhasePoint":
        return PhasePoint(-self.w, -self.z)


ORIGIN = PhasePoint(0.0, 0.0)


@dataclass(frozen=True)
class CharFn:
    """An evaluatable one-mode characteristic function with declared ordering."""

    fn: Callable[[PhasePoint], complex]
    ordering: int = 0
    label: str = ""
    kind: str = field(default="state")

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise InvalidArgumentError(
                f"unsupported ordering {self.ordering!r}; expected one of {ORDERINGS}"
            )
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unsupported kind {self.kind!r}; expected one of {KINDS}")

    def __call__(self, p: PhasePoint):
        return self.fn(p)


def eval_at(f: CharFn, p: PhasePoint) -> complex:
    """Evaluate ``f`` at the single finite point ``p``."""
    if not (np.all(np.isfinite(p.w)) and np.all(np.isfinite(p.z))):
        raise InvalidArgumentError(f"non-finite phase-space point (w={p.w!r}, z={p.z!r})")
    return complex(f.fn(p))


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


def _laguerre_steps(n_max: int, u: np.ndarray, start):
    """Yield ``start * L_k(u)`` for ``k = 0 .. n_max`` by the three-term recurrence
    of :func:`laguerre_envelope_all`, one degree at a time.

    The recurrence is linear, so a premultiplied start carries through every
    degree.  It reads the yielded arrays again: callers must not modify them.
    """
    lkm1 = start
    yield lkm1
    if n_max >= 1:
        lk = (1.0 - u) * start
        yield lk
        for k in range(1, n_max):
            lk, lkm1 = ((2.0 * k + 1.0 - u) * lk - k * lkm1) / (k + 1.0), lk
            yield lk


def laguerre_envelope(n: int, u):
    """``exp(-u/2) L_n(u)`` (scalar or ndarray ``u``) with the package's bounded
    recurrence, in O(u.size) memory."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    u = np.asarray(u, dtype=float)
    for last in _laguerre_steps(n, u, np.exp(-0.5 * u)):
        pass
    return last if last.shape else float(last)


def laguerre_envelope_series(weights, u) -> np.ndarray:
    """``sum_k weights[k] exp(-u/2) L_k(u)`` as a running sum of the package's
    bounded recurrence (:func:`_laguerre_steps`).

    Memory stays O(u.size) however many weights there are, which the 2-D
    mixture characteristic function needs on plane grids; zero weights cost
    one recurrence step and nothing more.  Every ``u`` must keep
    ``exp(-u/2)`` a normal float (``u`` below about 1400), or the start of the
    recurrence loses precision.
    """
    weights = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    total = np.zeros_like(u)
    for w, term in zip(weights, _laguerre_steps(weights.size - 1, u, np.exp(-0.5 * u))):
        if w != 0.0:
            total += w * term
    return total


def fock_charfn(n: int) -> CharFn:
    """Wigner characteristic function of the Fock state |n>."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")

    def chi(p: PhasePoint):
        return laguerre_envelope(n, p.abs_sq) + 0.0j

    return CharFn(chi, ordering=0, label=f"fock:{n}")


def input_charfn(state: InputState) -> CharFn:
    """Wigner characteristic function of a catalog input state."""
    if isinstance(state, FockInput):
        return fock_charfn(state.n)

    if isinstance(state, CoherentInput):
        beta = state.beta

        def chi(p: PhasePoint):
            return np.exp(-0.5 * p.abs_sq + p.xi * np.conj(beta) - p.xi_conj * beta)

    elif isinstance(state, SqueezedVacuumInput):
        ch, sh = math.cosh(state.s), math.sinh(state.s)

        def chi(p: PhasePoint):
            xi_p = p.xi * ch + p.xi_conj * sh
            return np.exp(-0.5 * (xi_p * np.conj(xi_p)).real) + 0.0j

    elif isinstance(state, FockMixtureInput):
        probs = input_photon_probs(state, state.max_n)

        def chi(p: PhasePoint):
            return laguerre_envelope_series(probs, p.abs_sq) + 0.0j

    else:
        raise InvalidArgumentError(f"unknown input state {state!r}")
    return CharFn(chi, ordering=0, label=state_label(state))


def transfer_fn(ch: Channel) -> CharFn:
    """One-mode transfer function ``tau(xi) = chi_AB(g conj(xi), xi)``.

    For the Squeezed Bell-like family this reduces to a function of
    ``u = |xi|^2`` alone; at g = 1 it is
    ``exp(-gamma) [Delta^2 + 2 Delta sqrt(1-Delta^2) cos(theta) gamma
    + (1-Delta^2)(1-gamma)^2]`` with ``gamma = u exp(-2r)``, i.e. the
    :func:`~cvteleport.states.delta_weight_rows` combination of the
    :func:`~cvteleport.states.transfer_basis` terms, in the sum order of the
    ``transfer-surface`` command.
    """
    d2, cross, comp = delta_weight_rows(ch.resource.delta, ch.resource.theta)[0].tolist()
    rate, terms, _ = transfer_basis(ch)

    def tau(p: PhasePoint):
        u = p.abs_sq
        one, mixed, paired = terms(u)
        return np.exp(-rate * u) * (d2 * one + cross * mixed + comp * paired) + 0.0j

    return CharFn(tau, ordering=0, label=transfer_label(ch), kind="transfer")


def output_charfn(out: OutputState) -> CharFn:
    """``chi_out(xi) = tau(xi) chi_in(g xi)``, the output's characteristic
    function as the pointwise product of its two factors."""
    tau = transfer_fn(out.channel)
    chi_in = input_charfn(out.input)
    g = out.channel.gain

    def chi_out(p: PhasePoint):
        return tau.fn(p) * chi_in.fn(PhasePoint(g * p.w, g * p.z))

    return CharFn(chi_out, ordering=0, label=out.label)


# ---------------------------------------------------------------------------
# Operator ordering and the two-mode resource
# ---------------------------------------------------------------------------


def convert_ordering(f: CharFn, target_s: int) -> CharFn:
    """Reexpress ``f`` in ordering ``target_s``.

    Returns ``g`` with ``g(xi) = exp((target_s - f.ordering) |xi|^2 / 2) * f(xi)``.
    """
    if target_s not in ORDERINGS:
        raise InvalidArgumentError(
            f"unsupported ordering {target_s!r}; expected one of {ORDERINGS}"
        )
    if target_s == f.ordering:
        return f
    shift = 0.5 * (target_s - f.ordering)
    base = f.fn

    def converted(p: PhasePoint):
        return np.exp(shift * p.abs_sq) * base(p)

    return CharFn(converted, ordering=target_s, label=f.label, kind=f.kind)


def sbl_two_mode_value(res: SqueezedBellResource, xi_a: complex, xi_b: complex) -> complex:
    """Full two-mode characteristic function of the resource."""
    chr_, shr = math.cosh(res.r), math.sinh(res.r)
    xa = chr_ * xi_a - shr * np.conj(xi_b)
    xb = chr_ * xi_b - shr * np.conj(xi_a)
    na, nb = abs(xa) ** 2, abs(xb) ** 2
    delta = res.delta
    q = math.sqrt(max(1.0 - delta * delta, 0.0))
    brace = (
        delta * delta
        + 2.0 * delta * q * (np.exp(1j * res.theta) * xa * xb).real
        + (1.0 - delta * delta) * (1.0 - na) * (1.0 - nb)
    )
    return complex(np.exp(-0.5 * (na + nb)) * brace)


def exact_transfer_cumulants(delta, theta, r, gain, dps: int = 50) -> tuple:
    """``(K(2, 0), K(4, 0))`` of the transfer function at ``dps`` digits.

    The two-mode resource of :func:`sbl_two_mode_value` is restricted to
    ``(g t, t)`` on the real axis in mpmath, and ``log tau(t)`` is expanded by
    ``mpmath.taylor``: ``K(2, 0) = -2 c_2`` and ``K(4, 0) = 24 c_4``.  None of
    the package's one-mode reduction enters.  The arguments are taken as
    exact binary numbers.  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        delta, theta, r, g = (mp.mpf(x) for x in (delta, theta, r, gain))
        ch, sh = mp.cosh(r), mp.sinh(r)
        cross = 2 * delta * mp.sqrt(1 - delta * delta) * mp.cos(theta)

        def log_tau(t):
            xa, xb = (ch * g - sh) * t, (ch - sh * g) * t
            na, nb = xa * xa, xb * xb
            brace = delta * delta + cross * xa * xb + (1 - delta * delta) * (1 - na) * (1 - nb)
            return mp.log(brace) - (na + nb) / 2

        c = mp.taylor(log_tau, 0, 4)
        return -2 * c[2], 24 * c[4]


# ---------------------------------------------------------------------------
# Finite differences at the origin
# ---------------------------------------------------------------------------

MAX_DERIVATIVE_ORDER = 6


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


# ---------------------------------------------------------------------------
# Finite-difference moments and objectives
# ---------------------------------------------------------------------------

XP_MAX_ORDER = 4
_IMAG_RESIDUE_TOL = 1e-8


def raw_moment_xp(f: CharFn, n: int, m: int, cfg: DiffConfig | None = None) -> float:
    """``<x^n p^m>`` of a Wigner-ordered characteristic function via FD."""
    if f.ordering != 0:
        raise InvalidArgumentError("raw_moment_xp requires a Wigner-ordered function")
    if n < 0 or m < 0 or n + m > XP_MAX_ORDER:
        raise InvalidArgumentError(f"xp moment order ({n}, {m}) outside n+m <= {XP_MAX_ORDER}")
    val = derivative_at_origin(f.fn, nw=m, nz=n, cfg=cfg) / 1j ** (n + m)
    if abs(val.imag) > _IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"imaginary residue {val.imag:.3e} in <x^{n} p^{m}>: ordering misuse or "
            "non-Hermitian input"
        )
    return float(val.real)


def raw_moment_normal(f: CharFn, n: int, m: int, cfg: DiffConfig | None = None) -> complex:
    """``<a^dag^n a^m>`` via FD and the Wirtinger chain rule.

    State functions are first converted to normal ordering.  Transfer
    functions are differentiated bare: for ``tau = F(|xi|^2)`` that gives
    ``(1, 1) -> -F'(0)``, the ``n_transfer`` objective.
    """
    if n < 0 or m < 0 or n + m > XP_MAX_ORDER:
        raise InvalidArgumentError(f"normal moment order ({n}, {m}) outside n+m <= {XP_MAX_ORDER}")
    g = f if f.kind == "transfer" else convert_ordering(f, 1)
    # d/dxi = (d/dw - i d/dz)/2, d/dxi* = (d/dw + i d/dz)/2
    acc = 0.0 + 0.0j
    for a in range(n + 1):
        for b in range(m + 1):
            coef = (
                math.comb(n, a)
                * math.comb(m, b)
                * (-1j) ** a
                * (1j) ** b
            )
            acc += coef * derivative_at_origin(g.fn, nw=n + m - a - b, nz=a + b, cfg=cfg)
    return complex((-1.0) ** m * acc / 2 ** (n + m))


# <a^dag a> and <a^dag^2 a^2>, the photon-number moments of a MomentSet.
_PHOTON_KEYS = ((1, 1), (2, 2))
# The raw quadrature moments M(n, m) = <{x^n p^m}>, n + m <= 4.
XP_KEYS = tuple((n, m) for n in range(5) for m in range(5) if n + m <= 4)


def raw_from_cumulants(k: dict) -> dict:
    """The raw moments ``{(n, m): M(n, m)}`` at ``XP_KEYS`` of a cumulant table
    ``{(n, m): K(n, m)}``: ``M(n, m) / (n! m!)`` are the Taylor coefficients of
    ``exp(sum K(n, m) s^n t^m / (n! m!))``, the moment generating function."""
    fact = np.array([[math.factorial(n) * math.factorial(m) for m in range(5)] for n in range(5)])
    log_mgf = np.zeros((5, 5))
    for key, value in k.items():
        log_mgf[key] = value / fact[key]
    term = np.zeros((5, 5))
    term[0, 0] = 1.0
    mgf = term.copy()
    for j in range(1, 5):  # log_mgf has no constant term: four powers reach order 4
        product = np.zeros((5, 5))
        for (a, b), (c, d) in itertools.product(XP_KEYS, repeat=2):
            if a + b + c + d <= 4:
                product[a + c, b + d] += term[a, b] * log_mgf[c, d]
        term = product / j
        mgf += term
    return {key: float(mgf[key] * fact[key]) for key in XP_KEYS}


def central_from_raw(m1, m2, m3, m4):
    """The central moments ``(mu2, mu3, mu4)`` of raw moments ``m1 .. m4``."""
    mu2 = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return mu2, mu3, mu4


def moment_set_from_tables(xp: dict, is_state: bool = True, label: str = "") -> MomentSet:
    """The :class:`MomentSet` of a raw-moment table ``{(n, m): M(n, m)}``: the
    quadrature fields by the raw-to-central conversion, the photon numbers by
    the identities ``<a^dag a> = (M(2,0) + M(0,2) - 2) / 4`` and
    ``<a^dag^2 a^2> = (M(4,0) + M(0,4) + 2 M(2,2) - 8) / 16 - 2 <a^dag a>``
    (to absolute rounding only)."""
    x_mean, p_mean = xp[(1, 0)], xp[(0, 1)]
    x2c, mu3x, mu4x = central_from_raw(x_mean, xp[(2, 0)], xp[(3, 0)], xp[(4, 0)])
    p2c, mu3p, mu4p = central_from_raw(p_mean, xp[(0, 2)], xp[(0, 3)], xp[(0, 4)])
    n_mean = (xp[(2, 0)] + xp[(0, 2)] - 2.0) / 4.0
    a22 = (xp[(4, 0)] + xp[(0, 4)] + 2.0 * xp[(2, 2)] - 8.0) / 16.0 - 2.0 * n_mean
    return MomentSet(
        x_mean=x_mean,
        p_mean=p_mean,
        x2_central=x2c,
        p2_central=p2c,
        cov_xp=xp[(1, 1)] - x_mean * p_mean,
        mu3_x=mu3x,
        mu3_p=mu3p,
        mu4_x=mu4x,
        mu4_p=mu4p,
        kappa4_x=mu4x - 3.0 * x2c * x2c,
        kappa4_p=mu4p - 3.0 * p2c * p2c,
        n_mean=n_mean,
        g2_zero=a22 / (n_mean * n_mean) if abs(n_mean) > _N_MEAN_FLOOR else None,
        is_state=is_state,
        label=label,
    )


def output_cumulants(state: InputState, ch: Channel) -> dict:
    """The output's cumulant table by the additivity law
    ``K_out(n, m) = g^(n+m) K_in(n, m) + K_tau(n, m)`` on the package's two
    tables; the tests hold it against finite differences of ``chi_out``."""
    k_tau = transfer_cumulants(ch)
    return {key: ch.gain ** sum(key) * v + k_tau[key] for key, v in state_cumulants(state).items()}


def transfer_moment_set(ch: Channel) -> MomentSet:
    """The :class:`MomentSet` of the transfer function's cumulant table, taken
    the raw-moment route: the resource's side of the additivity law."""
    raw = raw_from_cumulants(transfer_cumulants(ch))
    return moment_set_from_tables(raw, is_state=False, label=f"transfer {ch!r}")


def fd_tables(f: CharFn, cfg: DiffConfig | None = None):
    """``(xp, photon)``: the raw moments ``{(n, m): M(n, m)}`` of ``f`` at
    ``XP_KEYS`` and its normal-ordered moments ``{(n, m): <a^dag^n a^m>}`` at
    ``_PHOTON_KEYS``, every entry by FD."""
    xp = {key: raw_moment_xp(f, *key, cfg=cfg) for key in XP_KEYS}
    photon = {key: raw_moment_normal(f, *key, cfg=cfg) for key in _PHOTON_KEYS}
    return xp, photon


def fd_moment_set(f: CharFn, cfg: DiffConfig | None = None) -> MomentSet:
    """The :class:`MomentSet` of a bare characteristic function, by FD.

    The quadrature fields come from the FD raw moments by
    :func:`central_from_raw`, not from the cumulant tables of the package;
    ``n_mean`` and ``g2_zero`` from the normal-ordered FD moments, not from
    the quadrature identities of :func:`moment_set_from_tables`.
    """
    xp, photon = fd_tables(f, cfg)
    n_mean = photon[(1, 1)].real
    g2 = photon[(2, 2)].real / (n_mean * n_mean) if abs(n_mean) > _N_MEAN_FLOOR else None
    return dataclasses.replace(
        moment_set_from_tables(xp, is_state=f.kind == "state", label=f.label),
        n_mean=n_mean,
        g2_zero=g2,
    )


def _channel(obj: Objective, delta: float) -> Channel:
    """The channel of ``obj``'s cell at ``delta``."""
    return Channel(SqueezedBellResource(delta=delta, theta=obj.theta, r=obj.r), gain=obj.gain)


def fd_objective_function(obj: Objective, cfg: DiffConfig | None = None):
    """:func:`trig_objective` with FD transfer moments.

    ``x2_transfer``, ``kappa4_transfer`` and ``n_transfer`` differentiate the
    transfer function numerically instead of reading the closed-form tables;
    every other kind is the production objective.  Tests minimize it with
    :func:`reference_minimize`: its values carry finite-difference noise, so
    it is no trigonometric polynomial to the exact optimizer's tolerance.
    """
    if obj.kind == "x2_transfer":
        return lambda d: raw_moment_xp(transfer_fn(_channel(obj, d)), 2, 0, cfg)

    if obj.kind == "kappa4_transfer":
        def fd_kappa4(d: float) -> float:
            tau = transfer_fn(_channel(obj, d))
            mu2 = raw_moment_xp(tau, 2, 0, cfg)
            mu4 = raw_moment_xp(tau, 4, 0, cfg)
            return mu4 - 3.0 * mu2 * mu2

        return fd_kappa4

    if obj.kind == "n_transfer":
        return lambda d: float(
            raw_moment_normal(transfer_fn(_channel(obj, d)), 1, 1, cfg).real
        )

    return trig_objective(obj)


# ---------------------------------------------------------------------------
# Objectives from the tables and the family, one Delta at a time
# ---------------------------------------------------------------------------

def transfer_rows(ch: Channel) -> tuple:
    """``(rows, scale)`` of one channel, built on its own: the rows and scale
    that ``cvteleport.optimize._transfer_table`` builds for its r among the
    r of a grid.  ``2^scale`` is the power of two that brings
    ``max(|a|, |b|)`` into ``[1/2, 1)``, and ``rows`` ``(4, 3)`` are the
    rows of ``cvteleport.moments.transfer_derivative_forms`` built from
    ``(a 2^-scale, b 2^-scale)``, at their own rate, then at rate 0: the
    forms in the variable ``u 4^scale``, ``4^-scale`` (``d1``) and
    ``16^-scale`` (``d2``) times the unscaled rows wherever both are
    normal."""
    a, b = transfer_coefficients(ch)
    scale = math.frexp(max(abs(a), abs(b)))[1]  # 0 for a value that is not finite
    own, coef = _basis_rows(math.ldexp(a, -scale), math.ldexp(b, -scale))
    return np.array([*_derivative_rows(coef, own), *_derivative_rows(coef, 0.0)]), scale


def transfer_table_mismatches(r_grid, theta: float, gain: float) -> list:
    """The distinct r of ``r_grid`` at which ``cvteleport.optimize._transfer_table``
    differs from :func:`transfer_rows` built for that r alone: in a bit of
    its rows, in its scale, or, where the channel raises, in the error's type
    or text."""
    rs = list(dict.fromkeys(r_grid))
    with np.errstate(over="ignore", invalid="ignore"):  # as the solve builds it
        rows, scales, errors = _transfer_table(rs, theta, gain)
    assert rows.shape == (len(rs), 4, 3) and scales.shape == (len(rs),)
    mismatches = []
    for r, row, scale, error in zip(rs, rows, scales, errors):
        try:
            want_rows, want_scale = transfer_rows(
                Channel(SqueezedBellResource(1.0, theta, r), gain=gain)
            )
        except CVTeleportError as exc:
            if type(error) is not type(exc) or str(error) != str(exc):
                mismatches.append(r)
            continue
        same = row.view(np.uint64).tolist() == want_rows.view(np.uint64).tolist()
        if error is not None or int(scale) != want_scale or not same:
            mismatches.append(r)
    return mismatches


def _form(obj: Objective):
    """``(Q, terms, outer)`` of ``cvteleport.optimize._forms`` for the one cell
    ``obj``, ``Q`` and ``terms`` times ``2^exponent`` (exact where they are
    normal); raises the errors of the form's source and of ``_forms``.  A
    transfer kind's source is :func:`transfer_rows`, built per r."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite form raises later
        if obj.kind in _FAMILY_KINDS:
            sources = [delta_family(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons)]
        else:
            rows, scale = transfer_rows(_channel(obj, 1.0))
            sources = rows[None], np.array([scale])
        moments = moment_set(obj.input) if obj.kind in ("mu4_x", "mu4_p") else None
        Q, terms, outer, (exponent,) = _forms(obj.kind, sources, obj.gain, moments)
        return np.ldexp(Q, exponent), np.ldexp(terms, exponent), outer


def _basis(delta) -> np.ndarray:
    """Rows ``(1, cos t, sin t, cos 2t, sin 2t)`` at ``t = 2 arccos(Delta)``: with
    the coefficients of :func:`trig_form`, the trigonometric polynomial ``g``
    whose stationary points and zeros the optimizer finds."""
    d2 = np.square(delta)
    c, s = 2.0 * d2 - 1.0, 2.0 * np.multiply(delta, np.sqrt(np.maximum(1.0 - d2, 0.0)))
    rows = np.empty(np.shape(delta) + (5,))
    rows[..., 0], rows[..., 1], rows[..., 2] = 1.0, c, s
    rows[..., 3], rows[..., 4] = 2.0 * c * c - 1.0, 2.0 * s * c
    return rows


def trig_form(obj: Objective):
    """``(coef, outer)``: ``outer(_basis(Delta) @ coef)`` is the objective whose
    candidates the optimizer finds for ``obj``.  ``coef = _trig(theta) @
    Q[_UPPER]`` for the quadratic form of :func:`_form`, unscaled; raises the
    errors of :func:`_form` and of ``_coefficients``."""
    Q, terms, outer = _form(obj)
    trig = _trig(obj.theta)
    with np.errstate(over="ignore", invalid="ignore"):  # as the optimizer runs it
        _, (error,) = _coefficients([obj.kind], Q, terms, trig, [0])
    if error is not None:
        raise error
    return trig @ Q[0][_UPPER], outer


def trig_objective(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> objective value of :func:`trig_form`, one Delta at
    a time: the polynomial the optimizer finds its candidates on."""
    coef, outer = trig_form(obj)

    def f(delta: float) -> float:
        _channel(obj, delta)  # validates Delta
        return float(outer(float(_basis(delta) @ coef)))

    return f


def weighted_objective(obj: Objective) -> Callable[[float], float]:
    """The scalar map Delta -> ``outer(w @ Q @ w)``, ``Q`` the quadratic form of
    :func:`_form` and ``w`` the Delta weights, in Python floats and in the
    order the optimizer sums each row: the score it ranks each candidate by,
    and the value it prints at the optimum of a transfer kind, bit for bit."""
    (Q,), _, outer = _form(obj)
    Q = Q.tolist()

    def f(delta: float) -> float:
        _channel(obj, delta)  # validates Delta
        w = delta_weight_rows([delta], obj.theta)[0].tolist()
        wq = [w[0] * Q[0][j] + w[1] * Q[1][j] + w[2] * Q[2][j] for j in range(3)]
        return float(outer(w[0] * wq[0] + w[1] * wq[1] + w[2] * wq[2]))

    return f


def objective_parts(obj: Objective):
    """``(g, outer)`` with objective ``outer(g(Delta))``, evaluated per Delta.

    ``g`` reads the transfer cumulant table or the Delta family at each Delta,
    with no use of the quadratic form in the Delta weights that
    :func:`trig_objective` evaluates: the oracle of that form.
    """
    if obj.kind in ("x2_transfer", "n_transfer"):
        # n_transfer, the bare-derivative photon-number average -F'(0), is x2 / 2;
        # resource_closed_forms.n_ab = -F'(0) - 1, so the minimizer is shared.
        half = 0.5 if obj.kind == "n_transfer" else 1.0
        return (lambda d: half * transfer_cumulants(_channel(obj, d))[(2, 0)]), float

    if obj.kind == "kappa4_transfer":
        return (lambda d: transfer_cumulants(_channel(obj, d))[(4, 0)]), float

    if obj.kind in ("mu4_x", "mu4_p"):
        ms_in = moment_set(obj.input)
        in_var = ms_in.x2_central if obj.kind == "mu4_x" else ms_in.p2_central
        key = (4, 0) if obj.kind == "mu4_x" else (0, 4)
        g2 = obj.gain * obj.gain

        def mu4_distortion(d: float) -> float:
            # The transfer's mu4 = K(4, 0) + 3 K(2, 0)^2, plus the cross term.
            k = transfer_cumulants(_channel(obj, d))
            x2 = k[(2, 0)]
            return k[key] + 3.0 * x2 * x2 + 6.0 * g2 * in_var * x2

        return mu4_distortion, abs

    family = delta_family(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons)

    if obj.kind == "d_functional":
        return (lambda d: d_functional(family.p_in, family.photon_distribution(d)) ** 2), math.sqrt

    if obj.kind == "one_minus_fidelity":
        return (lambda d: 1.0 - family.measures(d).fidelity), float

    def frobenius_squared(d: float) -> float:
        m = family.measures(d)
        return m.purity_in + m.purity_out - 2.0 * m.fidelity

    return frobenius_squared, lambda v: math.sqrt(max(v, 0.0))  # rounding can dip below 0


# ---------------------------------------------------------------------------
# Reference Delta minimizer
# ---------------------------------------------------------------------------

_COARSE_POINTS = 41
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_DELTA_TOL = 1e-6
_POLISH_STEP = 5e-3


def _parabola_vertex(F, x: float, d: float):
    fm, f0, fp = F(x - d), F(x), F(x + d)
    curv = fm - 2.0 * f0 + fp
    if not curv > 0.0:
        return None
    shift = 0.5 * d * (fm - fp) / curv
    if abs(shift) > d:
        return None
    return x + shift


def reference_minimize(f: Callable[[float], float]) -> tuple[float, float]:
    """Minimize ``f`` over Delta in [0, 1]; returns ``(delta_star, f(delta_star))``.

    A 41-point grid brackets the deepest interior dip (else the lowest grid
    point; ties go to the smaller Delta), golden section narrows the bracket
    to 1e-6, and a step-doubled parabolic fit through the best point removes
    the noise floor of finite-difference objectives.  A dip narrower than
    the grid spacing is missed.
    """
    cache: dict = {}

    def F(x: float) -> float:
        if x not in cache:
            cache[x] = float(f(x))
        return cache[x]

    grid = [i / (_COARSE_POINTS - 1) for i in range(_COARSE_POINTS)]
    vals = [F(x) for x in grid]
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
    while b - a > _DELTA_TOL:
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
    return delta_star, F(delta_star)


def reference_interior_roots(quartic) -> list:
    """Delta = cos(t/2) at each real t in (0, pi) with ``quartic(e^{it}) = 0``."""
    z = np.roots(quartic).astype(complex)
    # Newton steps on the quartic: a near-zero leading coefficient (g almost
    # free of cos 2t, sin 2t) leaves np.roots inexact near the unit circle.
    z = z[(np.abs(z) > 0.5) & (np.abs(z) < 2.0)]
    for _ in range(3):
        dz = np.polyval(np.polyder(quartic), z)
        z = z - np.divide(np.polyval(quartic, z), dz, out=np.zeros_like(z), where=dz != 0)
    t = np.angle(z[np.abs(np.abs(z) - 1.0) <= _ROOT_TOL])
    return np.cos(0.5 * t[(t > _ROOT_TOL) & (t < math.pi - _ROOT_TOL)]).tolist()


# ---------------------------------------------------------------------------
# The Gauss-Legendre rule in sqrt(u) with certified envelope cutoffs
# ---------------------------------------------------------------------------

# ln(1e16): the automatic cutoff U satisfies a tail bound below exp(-36.85) ~ 1e-16.
_DECAY_TARGET = 36.85
# exp(-u/2) at u = 1400 is ~1e-304, still a normal float.
_RADIAL_ARG_MAX = 1400.0


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


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


def _transfer(r: float, gain: float):
    """``(rate, a, b, tau)`` of the channel at Delta = 1, ``tau(u)`` the ``(3, len(u))``
    transfer terms ``exp(-e u) q_k(u)``."""
    ch = Channel(SqueezedBellResource(1.0, 0.0, r), gain=gain)
    rate, terms, _ = transfer_basis(ch)
    a, b = transfer_coefficients(ch)

    def tau(u):
        return np.stack(np.broadcast_arrays(*terms(u))) * np.exp(-rate * u)

    return rate, a, b, tau


def radial_photon_basis(dephased, r, gain, N, nodes):
    """The photon basis ``∫ exp(-e u) q_k(u) L~_n(u) A~(g^2 u) du`` of the dephased
    input ``A~`` on a Gauss-Legendre rule of ``nodes`` nodes in ``sqrt(u)``,
    cut where the envelope of the integrand leaves 1e-16."""
    rate, a, b, tau = _transfer(r, gain)
    u, wt = radial_rule(nodes, envelope_cutoff(rate + 0.5, ((a * a, 1), (b * b, 1), (1.0, N))))
    return laguerre_envelope_all(N, u) @ (tau(u) * (dephased(gain * gain * u) * wt)).T


def radial_family(state: InputState, r: float, gain: float, N: int, nodes: int):
    """``(photon_basis, fidelity_basis, gram)`` of a Fock state or mixture on
    Gauss-Legendre rules of ``nodes`` nodes in ``sqrt(u)``.

    Each integrand is cut where its envelope leaves 1e-16
    (``|q_k(u)| <= (1 + a^2 u)(1 + b^2 u)``,
    ``|L~_n(u)| <= exp(-u/2) (1 + u)^n``, ``|A~| <= 1``), or where a Laguerre
    argument reaches ``_RADIAL_ARG_MAX``; the tail bound there must stay
    below 1e-9.  An oracle of the Fock-diagonal series of
    :func:`cvteleport.photonstats.delta_family`.
    """
    rate, a, b, tau = _transfer(r, gain)
    g2 = gain * gain
    M = state.max_n
    dephased = functools.partial(laguerre_envelope_series, input_photon_probs(state, M))
    poly = ((a * a, 1), (b * b, 1))

    def rule(rate, factors):
        cutoff = min(envelope_cutoff(rate, factors), _RADIAL_ARG_MAX / max(1.0, g2))
        assert envelope_tail(rate, factors, cutoff) <= 1e-9, (state, r, gain)
        return radial_rule(nodes, cutoff)

    u, wt = rule(rate + 0.5, poly + ((1.0, N),))
    photon_basis = laguerre_envelope_all(N, u) @ (tau(u) * (dephased(g2 * u) * wt)).T
    u, wt = rule(rate + 0.5 * (1.0 + g2), poly + ((1.0, M), (g2, M)))
    fidelity_basis = tau(u) @ (dephased(u) * dephased(g2 * u) * wt)
    u, wt = rule(2.0 * rate + g2, ((a * a, 2), (b * b, 2), (g2, 2 * M)))
    t = tau(u)
    return photon_basis, fidelity_basis, (t * (dephased(g2 * u) ** 2 * wt)) @ t.T


@functools.lru_cache(maxsize=None)
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


def gauss_laguerre_family(state: InputState, r: float, gain: float, N: int):
    """``(photon_basis, fidelity_basis, gram)`` of a Fock state or mixture on exact
    Gauss-Laguerre rules, the oracle of the Taylor series of
    :func:`cvteleport.photonstats.delta_family`.

    Every integrand is ``exp(-c u)`` times a polynomial in ``u``: the photon
    and fidelity integrands ``exp(-e u) q_k(u) L~_n(u) A~(g^2 u)`` have
    ``c = e + (1 + g^2) / 2`` and degree ``max(N, M) + M + 2``, the Gram
    integrand ``c = 2 e + g^2`` and degree ``2 M + 4``, so
    :func:`gauss_laguerre_rule` integrates each exactly, on at most 67 nodes
    for ``M, N <= 64``.  The fidelity is ``p @`` the photon rows up to ``M``.
    """
    rate, _, _, tau = _transfer(r, gain)
    g2 = gain * gain
    M = state.max_n
    p = input_photon_probs(state, M)
    K = max(N, M)
    u, wt = gauss_laguerre_rule(K + M + 2, rate + 0.5 * (1.0 + g2))
    rows = laguerre_envelope_all(K, u) @ (tau(u) * (p @ laguerre_envelope_all(M, g2 * u) * wt)).T
    u, wt = gauss_laguerre_rule(2 * M + 4, 2.0 * rate + g2)
    t, chi_g = tau(u), p @ laguerre_envelope_all(M, g2 * u)
    return rows[: N + 1], p @ rows[: M + 1], (t * (chi_g * chi_g * wt)) @ t.T


# ---------------------------------------------------------------------------
# Plane quadrature
# ---------------------------------------------------------------------------

_PROBE_RADII = (0.93, 1.91, 3.17, 4.57)
# Down to 1e-6 of the probe radii: enough for the fastest axis that does not
# underflow at the origin's scale.
_PROBE_HALVINGS = 20
_FLOOR = 1e-300
_NEGLIGIBLE = 1e-250


@dataclass(frozen=True)
class PlaneConfig:
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

    def nodes(self, cfg: PlaneConfig):
        Wp, Zp, wt = polar_grid(cfg.radial_nodes, cfg.angular_nodes, self.radius)
        return Wp / self.scale, Zp * self.scale, wt


def plan_quadrature(f: Callable[[PhasePoint], complex], cfg: PlaneConfig) -> QuadraturePlan:
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
    f: Callable[[PhasePoint], complex], cfg: PlaneConfig | None = None
) -> complex:
    """``∫∫ f(w, z) dw dz`` over the whole conjugate plane."""
    cfg = cfg or PlaneConfig()
    plan = plan_quadrature(f, cfg)
    W, Z, wt = plan.nodes(cfg)
    vals = _eval_grid(f, W, Z)
    return complex(np.sum(wt * vals))


# ---------------------------------------------------------------------------
# Photon probabilities and overlaps on the plane
# ---------------------------------------------------------------------------


def output_photon_prob(out: OutputState, n: int, cfg: PlaneConfig | None = None) -> float:
    """Single ``P_n`` through the generic plane integrator."""
    cfg = cfg or PlaneConfig()
    chi_out = output_charfn(out)
    chi_n = fock_charfn(n)

    def integrand(p: PhasePoint):
        return chi_out.fn(p) * chi_n.fn(-p)

    return float((integrate_plane(integrand, cfg) / math.pi).real)


def _photon_nodes(plan: QuadraturePlan, N: int, cfg: PlaneConfig):
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
        PlaneConfig(
            radial_nodes=radial,
            angular_nodes=angular,
            cutoff_radius=cfg.cutoff_radius,
            target_abs_tol=cfg.target_abs_tol,
        )
    )


def output_photon_probs(
    out: OutputState, N: int, cfg: PlaneConfig | None = None
) -> PhotonDistribution:
    """``P_0 .. P_N`` of a teleportation output on one shared quadrature grid.

    ``P_n = (1/pi) ∫ d^2 xi chi_out(xi) chi_n(-xi)``: one grid evaluation of
    ``chi_out`` feeds every ``n`` through the Laguerre recurrence.  The Fock
    factor ``chi_n(-xi)`` is bounded by 1 but does not decay before its
    turning point ``u ~ 4n + 2``, so the cutoff is sized from ``|chi_out|``
    alone and the node counts are enriched to resolve the Laguerre
    oscillation.
    """
    _check_cutoff(N)
    cfg = cfg or PlaneConfig()
    chi_out = output_charfn(out)
    W, Z, wt = _photon_nodes(plan_quadrature(chi_out.fn, cfg), N, cfg)
    pts = PhasePoint(W, Z)
    base = np.asarray(chi_out.fn(pts), dtype=complex) * wt
    lag = laguerre_envelope_all(N, pts.abs_sq)
    return PhotonDistribution((lag.reshape(N + 1, -1) @ base.ravel()).real / math.pi)


def overlap(f: CharFn, g: CharFn, cfg: PlaneConfig | None = None) -> float:
    """``Tr(rho_f rho_g) = (1/pi) ∫ d^2 xi f(xi) g(-xi)``."""
    if f.ordering != 0 or g.ordering != 0:
        raise InvalidArgumentError("overlap requires Wigner-ordered characteristic functions")
    cfg = cfg or PlaneConfig()

    def integrand(p: PhasePoint):
        return f.fn(p) * g.fn(-p)

    return float((integrate_plane(integrand, cfg) / math.pi).real)


def purity(f: CharFn, cfg: PlaneConfig | None = None) -> float:
    return overlap(f, f, cfg)


# ---------------------------------------------------------------------------
# Former forms of the series arithmetic, which the package keeps bit for bit
# ---------------------------------------------------------------------------

def strided_exp_series(x: np.ndarray) -> np.ndarray:
    """The Taylor coefficients of ``exp(x(t))`` by ``n f_n = sum_k k x_k f_{n-k}``,
    each sum a dot product of a slice of ``k x_k`` with the reversed, strided
    ``f``: the oracle of :func:`cvteleport.numerics._exp_series`, which sums
    the same products in Python floats."""
    f = np.zeros_like(x)
    f[0] = math.exp(x[0])
    kx = np.arange(len(x)) * x
    with np.errstate(all="ignore"):
        for n in range(1, len(x)):
            f[n] = kx[1 : n + 1] @ f[n - 1 :: -1] / n
    return f


def summed_weighted_forms(w, Q) -> np.ndarray:
    """``w @ Q @ w`` per row, each three-term sum an ``np.sum`` reduction: the
    oracle of :func:`cvteleport.states.weighted_forms`, which writes the sums out."""
    wq = (w[..., :, None] * Q).sum(axis=-2)
    return (w * wq).sum(axis=-1) + 0.0


# ---------------------------------------------------------------------------
# Closed-form Gaussian overlaps from polynomial products
# ---------------------------------------------------------------------------

def gamma_gaussian_moments(P: float, Q: float, degree: int) -> np.ndarray:
    """``m_j = (1/pi) ∫∫ exp(-P w^2 - Q z^2) (w^2 + z^2)^j dw dz`` for ``j <= degree``:
    ``pi^-1 sum_i C(j, i) Gamma(i + 1/2) Gamma(j - i + 1/2) / (P^(i + 1/2)
    Q^(j - i + 1/2))``, the oracle of the weight table of
    :func:`cvteleport.photonstats._gaussian_moments`."""
    return np.array([
        sum(
            math.comb(j, i) * math.gamma(i + 0.5) * math.gamma(j - i + 0.5)
            / (P ** (i + 0.5) * Q ** (j - i + 0.5))
            for i in range(j + 1)
        ) / math.pi
        for j in range(degree + 1)
    ])


def polynomial_gaussian_overlaps(state: InputState, rate: float, terms, gain: float):
    """Fidelity overlaps and Gram matrix of a coherent or squeezed input.

    The Gaussian moments of :func:`cvteleport.photonstats._gaussian_overlaps`
    from their Gamma-function sums (:func:`gamma_gaussian_moments`), and the
    coherent factor ``exp(-y) L_j(y)`` from the Laguerre recurrence, combined
    through ``numpy.polynomial.Polynomial`` products of the transfer terms
    ``terms(u)`` instead of their coefficient matrix.
    """
    g2 = gain * gain
    s = state.s if isinstance(state, SqueezedVacuumInput) else 0.0
    wide, narrow = math.exp(2.0 * s), math.exp(-2.0 * s)
    fid_m = gamma_gaussian_moments(
        rate + 0.5 * (1.0 + g2) * wide, rate + 0.5 * (1.0 + g2) * narrow, 2
    )
    gram_m = gamma_gaussian_moments(2.0 * rate + g2 * wide, 2.0 * rate + g2 * narrow, 4)
    if isinstance(state, CoherentInput):
        y = (1.0 - gain) ** 2 * abs(state.beta) ** 2 / (rate + 0.5 * (1.0 + g2))
        fid_m *= [math.exp(-0.5 * y) * laguerre_envelope(j, y) for j in range(3)]
    # The transfer polynomials as coefficient arrays, from transfer_basis itself.
    u = np.polynomial.Polynomial([0.0, 1.0])
    q = [np.polynomial.Polynomial([0.0]) + term for term in terms(u)]

    def integral(poly, moments):
        return float(poly.coef @ moments[: poly.coef.size])

    fidelity_basis = np.array([integral(qk, fid_m) for qk in q])
    gram = np.array([[integral(qj * qk, gram_m) for qk in q] for qj in q])
    return fidelity_basis, gram


# ---------------------------------------------------------------------------
# Exact Fock-diagonal families in high precision
# ---------------------------------------------------------------------------

def exact_fock_family(state: InputState, r: float, gain: float, N: int, dps: int = 80):
    """``(photon_basis, fidelity_basis, gram)`` of a Fock state or mixture, exactly
    (:func:`_exact_fock`)."""
    return _exact_fock(state, r, gain, N, dps)[:3]


def exact_gram_moments(state: InputState, r: float, gain: float, dps: int = 80) -> np.ndarray:
    """``H_q = ∫ exp(-2 e u) u^q A~(g^2 u)^2 du``, ``q <= 4``, of a Fock state or
    mixture, exactly (:func:`_exact_fock`): the Gram matrix is
    ``coef @ H[i + l] @ coef.T``."""
    return _exact_fock(state, r, gain, 0, dps)[3]


def _exact_fock(state: InputState, r: float, gain: float, N: int, dps: int):
    """``(photon_basis, fidelity_basis, gram, gram_moments)`` of a Fock state or
    mixture, exactly.

    Each integrand of the family is ``exp(-c u)`` times a polynomial in ``u``
    (:mod:`cvteleport.photonstats`).  Here the polynomials are expanded into
    powers of ``u`` with mpmath at ``dps`` digits, from ``L_n(s u) = sum_i
    (-1)^i C(n, i) s^i u^i / i!`` and the transfer coefficients
    ``a = g cosh r - sinh r``, ``b = cosh r - g sinh r``, and integrated term
    by term with ``∫ u^j exp(-c u) du = j! / c^(j + 1)``.  The Laguerre sums
    cancel to about 1e-51 of their terms at ``M, N = 64``, well within 80
    digits.  Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        r, g = mp.mpf(r), mp.mpf(gain)
        a = g * mp.cosh(r) - mp.sinh(r)
        b = mp.cosh(r) - g * mp.sinh(r)
        rate = (a * a + b * b) / 2
        q = [[mp.mpf(1)], [mp.mpf(0), a * b], [mp.mpf(1), -(a * a + b * b), a * a * b * b]]

        def laguerre(n, scale):
            return [(-1) ** i * mp.binomial(n, i) * scale**i / mp.factorial(i) for i in range(n + 1)]

        def times(x, y):
            out = [mp.mpf(0)] * (len(x) + len(y) - 1)
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
            return out

        def moments(c, degree):
            return [mp.factorial(j) / c ** (j + 1) for j in range(degree + 1)]

        def integral(poly, mu):
            return mp.fsum(p * m for p, m in zip(poly, mu))

        M = state.max_n
        probs = [mp.mpf(float(p)) for p in input_photon_probs(state, M)]

        def dephased(scale):
            total = [mp.mpf(0)] * (M + 1)
            for m, p in enumerate(probs):
                if p:
                    for i, c in enumerate(laguerre(m, scale)):
                        total[i] += p * c
            return total

        chi_1, chi_g = dephased(mp.mpf(1)), dephased(g * g)
        mu1 = moments(rate + (1 + g * g) / 2, max(N, M) + M + 2)
        mu2 = moments(2 * rate + g * g, 2 * M + 4)
        fock = [laguerre(n, mp.mpf(1)) for n in range(N + 1)]
        photon = [[None] * 3 for _ in range(N + 1)]
        fidelity = [None] * 3
        for k in range(3):
            poly = times(q[k], chi_g)
            # v[i] = ∫ exp(-c u) u^i q_k(u) A(g^2 u) du
            v = [integral(poly, mu1[i:]) for i in range(N + 1)]
            for n in range(N + 1):
                photon[n][k] = integral(fock[n], v)
            fidelity[k] = integral(times(poly, chi_1), mu1)
        chi_gg = times(chi_g, chi_g)
        gram = [[integral(times(times(q[j], q[k]), chi_gg), mu2) for k in range(3)] for j in range(3)]
        gram_moments = [integral(chi_gg, mu2[j:]) for j in range(5)]
        return tuple(
            np.array(x, dtype=float) for x in (photon, fidelity, gram, gram_moments)
        )
