"""Phase-space points and characteristic functions.

Conventions used throughout the package:

* The conjugate phase-space coordinate is ``xi = w + i z`` with real ``w``, ``z``.
* A characteristic function carries an ordering index ``s`` in ``{-1, 0, 1}``:
  ``s = 0`` is the symmetric (Wigner) ordering, ``s = 1`` the normal ordering,
  ``s = -1`` the antinormal ordering.  Orderings are related by
  ``chi_s(xi) = exp(s |xi|^2 / 2) * chi_0(xi)``.
* ``kind`` distinguishes characteristic functions of genuine states from
  transfer functions (restrictions of a two-mode resource), whose derivative
  "averages" follow different bookkeeping in :mod:`cvteleport.moments`.

Evaluation closures are written with numpy scalar/array semantics, so a
``PhasePoint`` may carry either floats or broadcastable ndarrays; the
quadrature kernels rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

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
