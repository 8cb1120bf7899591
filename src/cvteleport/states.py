"""Input-state catalog and the Squeezed Bell-like resource family.

A catalog state is its parameters.  Closed-form photon statistics live in
:func:`input_photon_probs`, closed-form cumulant tables in
:mod:`cvteleport.moments` and the Delta family's photon basis in
:mod:`cvteleport.photonstats`, all read off the Wigner characteristic
functions (``u = |xi|^2``):

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
function of ``u`` alone.  The package uses only that one-mode form, through
its Delta-free split (:func:`transfer_basis` times the weights of
:func:`delta_weight_rows`).  No production path evaluates a characteristic
function at points: the pointwise closures are test oracles
(``tests/oracles.py``), which check the split against the full two-mode
function above, and ``tests/test_symbolic.py`` checks its cumulants against
a sympy expansion of that function's log.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidArgumentError

N_MAX_FOCK = 64
_WEIGHT_SUM_TOL = 1e-12


def as_int(value, what: str) -> int:
    """``value`` as an ``int``; InvalidArgumentError unless it is an integer (a bool
    or a float such as 2.0 is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_real(value, what: str) -> float:
    """``value`` as a ``float``; InvalidArgumentError unless it is a real number (a
    bool or a string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{what} must be a number, got {value!r}")
    return float(value)


def _photon_number(value, what: str) -> int:
    n = as_int(value, what)
    if n < 0:
        raise InvalidArgumentError(f"{what} must be nonnegative, got {n!r}")
    return n


@dataclass(frozen=True)
class FockInput:
    """Fock state |n>."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _photon_number(self.n, "Fock photon number"))

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
        weights = tuple(
            (_photon_number(n, "mixture photon number"), float(p)) for n, p in self.weights
        )
        if not weights:
            raise InvalidArgumentError("mixture needs at least one component")
        for _, p in weights:
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
    reduce to ``exp(-r)``.  They are evaluated as ``(g - 1) cosh(r) + exp(-r)``
    and ``(1 - g) sinh(r) + exp(-r)``: the difference of two terms of size
    ``e^r`` would keep only ``eps e^{2r}`` of ``exp(-r)`` at g = 1 (the wrong
    sign at r = 19, zero from r = 20).  Raises InvalidArgumentError when
    ``cosh(r)`` overflows.
    """
    r, g = ch.resource.r, ch.gain
    ch_r, sh_r = _cosh_sinh(r, "two-mode squeezing r")
    e = math.exp(-r)
    return (g - 1.0) * ch_r + e, (1.0 - g) * sh_r + e


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


# ONE @ w = Delta^2 + (1 - Delta^2) = 1, so a linear objective l @ w is (l @ w)(ONE @ w).
ONE = np.array([1.0, 0.0, 1.0])


def sym(x, y) -> np.ndarray:
    """The symmetric part of ``outer(x, y)`` per row of ``(..., 3)`` stacks: ``(x @ w)(y @ w)``."""
    xy = x[..., :, None] * y[..., None, :]
    return 0.5 * (xy + xy.swapaxes(-1, -2))


def weighted_forms(w, Q) -> np.ndarray:
    """``w @ Q @ w`` for each row of weights ``w`` ``(..., 3)`` and its
    ``Q`` ``(..., 3, 3)``, broadcast.  Each sum runs over the three weights
    of one row, left to right from 0 as ``np.sum`` adds three terms, so a
    row's digits do not depend on the rows stacked with it."""
    wq = sum(w[..., i, None] * Q[..., i, :] for i in range(3))
    return sum(w[..., i] * wq[..., i] for i in range(3))


def transfer_basis(ch: Channel, scale: int = 0):
    """The Delta-free split of the transfer function.

    Returns ``(rate, terms, coef)`` with
    ``tau(xi) = exp(-rate u) * sum_k w_k terms(u)[k]`` for the weights ``w`` of
    :func:`delta_weight_rows` and ``u = |xi|^2``.  The three polynomial terms are
    ``1``, ``a b u`` and ``(1 - a^2 u)(1 - b^2 u)`` with (a, b) from
    :func:`transfer_coefficients`; ``rate = (a^2 + b^2) / 2``.  ``coef`` is
    the 3 x 3 matrix of their coefficients in ``u``:
    ``terms(u)[k] = sum_i coef[k, i] u^i``.  Only ``ch.resource.r`` and
    ``ch.gain`` enter.

    A nonzero ``scale`` builds all three from ``(a 2^-scale, b 2^-scale)``, the
    split in the variable ``u 4^scale``: the rate is ``4^-scale`` times the
    unscaled one, and column ``i`` of ``coef`` ``4^(-i scale)`` times the
    unscaled one, wherever both are normal.  With (a, b) scaled to size 1
    nothing underflows, where unscaled ``a^2 b^2`` is subnormal at g = 1 from
    r of about 177.
    """
    a, b = transfer_coefficients(ch)
    a, b = math.ldexp(a, -scale), math.ldexp(b, -scale)
    a2, b2, ab = a * a, b * b, a * b

    def terms(u):
        return 1.0, ab * u, (1.0 - a2 * u) * (1.0 - b2 * u)

    coef = np.array([[1.0, 0.0, 0.0], [0.0, ab, 0.0], [1.0, -(a2 + b2), a2 * b2]])
    return 0.5 * (a2 + b2), terms, coef


def input_photon_probs(state: InputState, N: int) -> np.ndarray:
    """Exact photon-number probabilities ``P_0 .. P_N`` of a catalog state."""
    N = as_int(N, "N")
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


def state_label(state: InputState) -> str:
    """The state's spelling in a moment-set label: ``fock:1``,
    ``coherent:(2+0.5j)``, ``sqvac:-0.5`` or ``mix:0@0.25,3@0.75``."""
    if isinstance(state, FockInput):
        return f"fock:{state.n}"
    if isinstance(state, CoherentInput):
        return f"coherent:{state.beta}"
    if isinstance(state, SqueezedVacuumInput):
        return f"sqvac:{state.s}"
    if isinstance(state, FockMixtureInput):
        return "mix:" + ",".join(f"{n}@{p}" for n, p in state.weights)
    raise InvalidArgumentError(f"unknown input state {state!r}")


def transfer_label(ch: Channel) -> str:
    """The channel's spelling in a moment-set label."""
    res = ch.resource
    return f"transfer(delta={res.delta},theta={res.theta},r={res.r},g={ch.gain})"


# ---------------------------------------------------------------------------
# JSON descriptors (the CLI-facing state/channel grammar)
# ---------------------------------------------------------------------------

# The fields of each descriptor kind besides "kind".
_DESCRIPTOR_FIELDS = {
    "fock": ("n",),
    "coherent": ("beta_re", "beta_im"),
    "squeezed_vacuum": ("s",),
    "fock_mixture": ("weights",),
}


def state_from_descriptor(d: dict) -> InputState:
    """Build an input state from its JSON descriptor.

    Kinds: ``{"kind": "fock", "n": int}``,
    ``{"kind": "coherent", "beta_re": float, "beta_im": float}``,
    ``{"kind": "squeezed_vacuum", "s": float}``,
    ``{"kind": "fock_mixture", "weights": [[n, p], ...]}``.  A missing,
    malformed or unknown field raises
    :class:`~cvteleport.errors.InvalidArgumentError` naming the kind and the
    field.
    """
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise InvalidArgumentError(f"state descriptor needs a 'kind' field: {d!r}") from None
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_FIELDS:
        raise InvalidArgumentError(f"unknown state kind {kind!r}")
    for name in d:
        if name != "kind" and name not in _DESCRIPTOR_FIELDS[kind]:
            raise InvalidArgumentError(
                f"{kind} state descriptor has the unknown field {name!r}; "
                f"its fields are {list(_DESCRIPTOR_FIELDS[kind])}: {d!r}"
            )

    def field(name):
        if name not in d:
            raise InvalidArgumentError(f"{kind} state descriptor needs the field {name!r}: {d!r}")
        return d[name]

    if kind == "fock":
        return FockInput(field("n"))
    if kind == "coherent":
        return CoherentInput(
            complex(as_real(field("beta_re"), "beta_re"), as_real(d.get("beta_im", 0.0), "beta_im"))
        )
    if kind == "squeezed_vacuum":
        return SqueezedVacuumInput(as_real(field("s"), "s"))
    if kind == "fock_mixture":
        weights, pairs = field("weights"), (list, tuple)
        if not (isinstance(weights, pairs)
                and all(isinstance(w, pairs) and len(w) == 2 for w in weights)):
            raise InvalidArgumentError(f"fock_mixture 'weights' must be [n, p] pairs, got {weights!r}")
        return FockMixtureInput(tuple((n, as_real(p, "mixture probability")) for n, p in weights))


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
