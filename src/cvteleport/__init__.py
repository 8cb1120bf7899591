"""Continuous-variable teleportation observables in the characteristic-function picture.

The package models one-mode teleportation through Squeezed Bell-like
resources.  From the closed forms of the input and transfer characteristic
functions it computes moments and cumulants, photon-number statistics,
distortion measures (D_N, fidelity, Frobenius distance), and the optimum of
the resource parameter Delta.
"""

__version__ = "1.0.0"

from .channel import OutputState, teleport
from .errors import (
    AccuracyError,
    CapacityError,
    ConsistencyError,
    CVTeleportError,
    DegenerateStateError,
    EvaluationError,
    InvalidArgumentError,
)
from .moments import (
    MomentSet,
    ResourceClosedForms,
    distortion_covariance,
    moment_set,
    resource_closed_forms,
    squeezing_ratio,
    squeezing_transmission,
    state_cumulants,
    transfer_cumulants,
)
from .optimize import (
    Objective,
    OptimumRecord,
    closed_form_delta,
    minimize_delta,
    sweep_columns,
    sweep_r,
)
from .photonstats import (
    DeltaFamily,
    DistortionMeasures,
    PhotonDistribution,
    d_functional,
    delta_family,
    distortion_measures,
    input_distribution,
)
from .states import (
    Channel,
    CoherentInput,
    FockInput,
    FockMixtureInput,
    InputState,
    N_MAX_FOCK,
    SqueezedBellResource,
    SqueezedVacuumInput,
    input_photon_probs,
    input_purity,
    state_from_descriptor,
    state_to_descriptor,
)
