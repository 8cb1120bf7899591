import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    SqueezedBellResource,
    SqueezedVacuumInput,
)

DELTA2_OPT = 0.9238795325112867  # sqrt(2 + sqrt(2)) / 2


def bisect_root(h, lo: float, hi: float) -> float:
    """A root of ``h`` in ``[lo, hi]``, where ``h`` changes sign, to rounding."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(lo) * h(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _kappa4_optimum() -> float:
    """cos(t/2) at the smaller root in (0, pi) of 2 cos t - sin t - 2 cos 2t."""
    def h(t):
        return 2.0 * math.cos(t) - math.sin(t) - 2.0 * math.cos(2.0 * t)

    return math.cos(0.5 * bisect_root(h, 0.1, 1.0))  # h(0.1) < 0 < h(1); t = 0 is a root too


DELTA4_OPT = _kappa4_optimum()  # 0.98529408578433...


def case_study_inputs():
    """The five sample input states of the case studies."""
    return [
        FockInput(0),
        FockInput(1),
        FockMixtureInput(((0, 0.5), (1, 0.5))),
        CoherentInput(2.12928),
        SqueezedVacuumInput(1.5),
    ]


def moderate_inputs():
    """Catalog members at parameters gentle enough for the FD oracle."""
    return [
        FockInput(0),
        FockInput(1),
        FockInput(3),
        CoherentInput(0.7 + 0.3j),
        SqueezedVacuumInput(0.4),
        FockMixtureInput(((0, 0.5), (1, 0.5))),
    ]


def random_resources(rng: np.random.Generator, count: int, r_min=0.4, r_max=2.5):
    out = []
    for _ in range(count):
        out.append(
            SqueezedBellResource(
                delta=float(rng.uniform(0.05, 1.0)),
                theta=float(rng.uniform(-np.pi, np.pi)),
                r=float(rng.uniform(r_min, r_max)),
            )
        )
    return out


def random_points(rng: np.random.Generator, count: int, radius=4.0):
    rho = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2 * np.pi, count)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture(params=case_study_inputs(), ids=["vacuum", "fock1", "mix01", "coherent", "sqvac"])
def case_input(request):
    return request.param


@pytest.fixture
def epr_channel():
    return Channel(SqueezedBellResource(delta=DELTA2_OPT, theta=0.0, r=10.0))
