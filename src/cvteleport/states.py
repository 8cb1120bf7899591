"""Input-state catalog and the Squeezed Bell-like resource family.

Every catalog state exposes its Wigner characteristic function as a pure
closure; closed-form photon statistics live in :func:`input_photon_probs` and
closed-form origin derivatives in :mod:`cvteleport.moments`.

Characteristic functions (Wigner ordering, ``u = |xi|^2``):

* Fock ``n``:            ``exp(-u/2) L_n(u)``
* coherent ``beta``:     ``exp(-u/2 + xi conj(beta) - conj(xi) beta)``
  (for real beta this is ``exp(-u/2 + 2i Im[xi] beta)``)
* squeezed vacuum ``s``: ``exp(-|xi'|^2 / 2)`` with
  ``xi' = xi cosh(s) + conj(xi) sinh(s)``
* Fock mixture:          probability-weighted sum of Fock functions

The two-mode resource is

``chi(xi_A; xi_B) = exp(-(|xi'_A|^2 + |xi'_B|^2)/2) * { Delta^2
    + 2 Delta sqrt(1 - Delta^2) Re[e^{i theta} xi'_A xi'_B]
    + (1 - Delta^2)(1 - |xi'_A|^2)(1 - |xi'_B|^2) }``

with ``xi'_{A/B} = cosh(r) xi_{A/B} - sinh(r) conj(xi_{B/A})``.  Its transfer
function is the restriction to ``(g conj(xi), xi)``, which collapses to a
function of ``u`` alone.  The package evaluates only that one-mode form; the
tests check it against the full two-mode function above (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .numerics import laguerre_envelope, laguerre_envelope_series
from .phasespace import CharFn, PhasePoint

N_MAX_FOCK = 64
_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FockInput:
    """Fock state |n>."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise InvalidArgumentError(f"Fock photon number must be a nonnegative integer, got {self.n!r}")

    @property
    def max_n(self) -> int:
        return self.n


@dataclass(frozen=True)
class CoherentInput:
    """Coherent state with displacement ``beta`` (complex permitted)."""

    beta: complex

    def __post_init__(self):
        beta = complex(self.beta)
        if not (cmath.isfinite(beta) and math.isfinite(abs(beta) * abs(beta))):
            raise InvalidArgumentError(
                f"coherent displacement and its mean photon number |beta|^2 must be finite, "
                f"got {beta!r}"
            )
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class SqueezedVacuumInput:
    """Squeezed vacuum with real squeezing parameter ``s``."""

    s: float

    def __post_init__(self):
        _cosh_sinh(self.s, "squeezing s")


@dataclass(frozen=True)
class FockMixtureInput:
    """Statistical mixture of Fock states, ``weights = ((n, p), ...)``."""

    weights: tuple

    def __post_init__(self):
        weights = tuple((int(n), float(p)) for n, p in self.weights)
        if not weights:
            raise InvalidArgumentError("mixture needs at least one component")
        for n, p in weights:
            if n < 0:
                raise InvalidArgumentError("mixture photon numbers must be nonnegative")
            if not 0.0 <= p <= 1.0:
                raise InvalidArgumentError(f"mixture probabilities must lie in [0, 1], got {p!r}")
        total = math.fsum(p for _, p in weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidArgumentError(f"mixture probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "weights", weights)

    @property
    def max_n(self) -> int:
        return max(n for n, _ in self.weights)


InputState = Union[FockInput, CoherentInput, SqueezedVacuumInput, FockMixtureInput]


@dataclass(frozen=True)
class SqueezedBellResource:
    """Squeezed Bell-like two-mode resource (delta, theta, r)."""

    delta: float
    theta: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise InvalidArgumentError(f"delta must lie in [0, 1], got {self.delta!r}")
        if not 0.0 <= self.r < math.inf:
            raise InvalidArgumentError(f"two-mode squeezing r must be finite and >= 0, got {self.r!r}")
        if not math.isfinite(self.theta):
            raise InvalidArgumentError(f"phase theta must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class Channel:
    """A teleportation channel: resource plus measurement gain (default 1)."""

    resource: SqueezedBellResource
    gain: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gain < math.inf:
            raise InvalidArgumentError(f"gain must be positive and finite, got {self.gain!r}")


def fock_charfn(n: int, n_max: int = N_MAX_FOCK) -> CharFn:
    """Wigner characteristic function of the Fock state |n>."""
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    if n > n_max:
        raise CapacityError(f"Fock cutoff exceeded: n={n} > n_max={n_max}")

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

        return CharFn(chi, ordering=0, label=f"coherent:{beta}")

    if isinstance(state, SqueezedVacuumInput):
        ch, sh = math.cosh(state.s), math.sinh(state.s)

        def chi(p: PhasePoint):
            xi_p = p.xi * ch + p.xi_conj * sh
            return np.exp(-0.5 * (xi_p * np.conj(xi_p)).real) + 0.0j

        return CharFn(chi, ordering=0, label=f"sqvac:{state.s}")

    if isinstance(state, FockMixtureInput):
        probs = input_photon_probs(state, state.max_n)

        def chi(p: PhasePoint):
            return laguerre_envelope_series(probs, p.abs_sq) + 0.0j

        label = "mix:" + ",".join(f"{n}@{p}" for n, p in state.weights)
        return CharFn(chi, ordering=0, label=label)

    raise InvalidArgumentError(f"unknown input state {state!r}")


def _cosh_sinh(x: float, what: str) -> tuple[float, float]:
    """``(cosh x, sinh x)``, or InvalidArgumentError when x is non-finite or they overflow."""
    try:
        ch, sh = math.cosh(x), math.sinh(x)
    except OverflowError:
        raise InvalidArgumentError(f"{what}={x!r} overflows cosh/sinh") from None
    if not math.isfinite(ch):
        raise InvalidArgumentError(f"{what} must be finite, got {x!r}")
    return ch, sh


def transfer_coefficients(ch: Channel):
    """Coefficients (a, b) of the squeezed-mode maps under the (g xi*, xi) restriction.

    With gain g, ``xi'_A = a conj(xi)`` and ``xi'_B = b xi`` where
    ``a = g cosh(r) - sinh(r)`` and ``b = cosh(r) - g sinh(r)``; at g = 1 both
    reduce to ``exp(-r)``.  Raises InvalidArgumentError when ``cosh(r)``
    overflows.
    """
    r, g = ch.resource.r, ch.gain
    ch_r, sh_r = _cosh_sinh(r, "two-mode squeezing r")
    return g * ch_r - sh_r, ch_r - g * sh_r


def delta_weight_rows(deltas, theta: float) -> np.ndarray:
    """``(D, 3)``: the weights ``(Delta^2, 2 Delta sqrt(1 - Delta^2) cos(theta),
    1 - Delta^2)`` of each Delta in ``deltas``, a row each.

    They multiply the three Delta-free terms of :func:`transfer_basis`; every
    other dependence of the channel on Delta and theta goes through them.  Each
    row depends on its own Delta only.  Every Delta must lie in [0, 1], as a
    :class:`SqueezedBellResource` checks.
    """
    d = np.asarray(deltas, dtype=float).reshape(-1, 1)
    d2 = d * d
    comp = 1.0 - d2  # >= 0 on [0, 1]
    cross = d * np.sqrt(comp) * (2.0 * math.cos(theta))
    return np.concatenate((d2, cross, comp), axis=1)


def delta_weights(res: SqueezedBellResource) -> tuple[float, float, float]:
    """The :func:`delta_weight_rows` of the resource's Delta and theta."""
    d2, cross, comp = delta_weight_rows(res.delta, res.theta)[0]
    return float(d2), float(cross), float(comp)


def transfer_basis(ch: Channel):
    """The Delta-free split of the transfer function.

    Returns ``(rate, terms, coef)`` with
    ``tau(xi) = exp(-rate u) * sum_k w_k terms(u)[k]`` for the weights ``w`` of
    :func:`delta_weights` and ``u = |xi|^2``.  The three polynomial terms are
    ``1``, ``a b u`` and ``(1 - a^2 u)(1 - b^2 u)`` with (a, b) from
    :func:`transfer_coefficients`; ``rate = (a^2 + b^2) / 2``.  ``coef`` is
    the 3 x 3 matrix of their coefficients in ``u``:
    ``terms(u)[k] = sum_i coef[k, i] u^i``.  Only ``ch.resource.r`` and
    ``ch.gain`` enter.
    """
    a, b = transfer_coefficients(ch)
    a2, b2, ab = a * a, b * b, a * b

    def terms(u):
        return 1.0, ab * u, (1.0 - a2 * u) * (1.0 - b2 * u)

    coef = np.array([[1.0, 0.0, 0.0], [0.0, ab, 0.0], [1.0, -(a2 + b2), a2 * b2]])
    return 0.5 * (a2 + b2), terms, coef


def transfer_fn(ch: Channel) -> CharFn:
    """One-mode transfer function ``tau(xi) = chi_AB(g conj(xi), xi)``.

    For the Squeezed Bell-like family this reduces to a function of
    ``u = |xi|^2`` alone; at g = 1 it is
    ``exp(-gamma) [Delta^2 + 2 Delta sqrt(1-Delta^2) cos(theta) gamma
    + (1-Delta^2)(1-gamma)^2]`` with ``gamma = u exp(-2r)``, i.e. the
    :func:`delta_weights` combination of the :func:`transfer_basis` terms.
    """
    res = ch.resource
    d2, cross, comp = delta_weights(res)
    rate, terms, _ = transfer_basis(ch)

    def tau(p: PhasePoint):
        u = p.abs_sq
        one, mixed, paired = terms(u)
        return np.exp(-rate * u) * (d2 * one + cross * mixed + comp * paired) + 0.0j

    return CharFn(
        tau,
        ordering=0,
        label=f"transfer(delta={res.delta},theta={res.theta},r={res.r},g={ch.gain})",
        kind="transfer",
    )


def input_photon_probs(state: InputState, N: int) -> np.ndarray:
    """Exact photon-number probabilities ``P_0 .. P_N`` of a catalog state."""
    if N < 0:
        raise InvalidArgumentError("N must be nonnegative")
    probs = np.zeros(N + 1)

    if isinstance(state, FockInput):
        if state.n <= N:
            probs[state.n] = 1.0
        return probs

    if isinstance(state, CoherentInput):
        mu = abs(state.beta) ** 2
        if mu == 0.0:
            probs[0] = 1.0
            return probs
        # In log space: exp(-mu) alone underflows for mu > 745.
        log_fact = np.array([math.lgamma(n + 1.0) for n in range(N + 1)])
        return np.exp(np.arange(N + 1) * math.log(mu) - mu - log_fact)

    if isinstance(state, SqueezedVacuumInput):
        t2 = math.tanh(state.s) ** 2
        probs[0] = 1.0 / math.cosh(state.s)
        for k in range(1, N // 2 + 1):
            # P_{2k} / P_{2k-2} = tanh^2(s) (2k-1) / (2k); odd terms vanish.
            probs[2 * k] = probs[2 * k - 2] * t2 * (2 * k - 1) / (2 * k)
        return probs

    if isinstance(state, FockMixtureInput):
        for n, p in state.weights:
            if n <= N:
                probs[n] += p
        return probs

    raise InvalidArgumentError(f"unknown input state {state!r}")


def input_purity(state: InputState) -> float:
    """Exact purity ``Tr(rho^2)`` of a catalog state.

    Fock, coherent and squeezed-vacuum states are pure; a Fock mixture has
    ``sum_n p_n^2`` (repeated photon numbers are merged first).
    """
    if isinstance(state, (FockInput, CoherentInput, SqueezedVacuumInput)):
        return 1.0
    if isinstance(state, FockMixtureInput):
        merged: dict = {}
        for n, p in state.weights:
            merged[n] = merged.get(n, 0.0) + p
        return math.fsum(p * p for p in merged.values())
    raise InvalidArgumentError(f"unknown input state {state!r}")


# ---------------------------------------------------------------------------
# JSON descriptors (the CLI-facing state/channel grammar)
# ---------------------------------------------------------------------------

def state_from_descriptor(d: dict) -> InputState:
    """Build an input state from its JSON descriptor.

    Kinds: ``{"kind": "fock", "n": int}``,
    ``{"kind": "coherent", "beta_re": float, "beta_im": float}``,
    ``{"kind": "squeezed_vacuum", "s": float}``,
    ``{"kind": "fock_mixture", "weights": [[n, p], ...]}``.
    """
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise InvalidArgumentError(f"state descriptor needs a 'kind' field: {d!r}") from None
    if kind == "fock":
        return FockInput(int(d["n"]))
    if kind == "coherent":
        return CoherentInput(complex(float(d["beta_re"]), float(d.get("beta_im", 0.0))))
    if kind == "squeezed_vacuum":
        return SqueezedVacuumInput(float(d["s"]))
    if kind == "fock_mixture":
        return FockMixtureInput(tuple((int(n), float(p)) for n, p in d["weights"]))
    raise InvalidArgumentError(f"unknown state kind {kind!r}")


def state_to_descriptor(state: InputState) -> dict:
    if isinstance(state, FockInput):
        return {"kind": "fock", "n": state.n}
    if isinstance(state, CoherentInput):
        return {"kind": "coherent", "beta_re": state.beta.real, "beta_im": state.beta.imag}
    if isinstance(state, SqueezedVacuumInput):
        return {"kind": "squeezed_vacuum", "s": state.s}
    if isinstance(state, FockMixtureInput):
        return {"kind": "fock_mixture", "weights": [[n, p] for n, p in state.weights]}
    raise InvalidArgumentError(f"unknown input state {state!r}")


def channel_to_descriptor(ch: Channel) -> dict:
    res = ch.resource
    return {"delta": res.delta, "theta": res.theta, "r": res.r, "gain": ch.gain}

