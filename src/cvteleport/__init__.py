"""Continuous-variable teleportation observables in the characteristic-function picture.

The package models one-mode teleportation through Squeezed Bell-like
resources: output characteristic functions, moment/cumulant extraction,
photon-number statistics, distortion measures (D_N, fidelity, Frobenius
distance), and optimization of the resource parameter Delta.
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
    MomentTable,
    ResourceClosedForms,
    distortion_covariance,
    moment_set,
    output_moment_binomial,
    output_normal_table,
    output_xp_table,
    resource_closed_forms,
    squeezing_ratio,
    squeezing_transmission,
    state_normal_table,
    state_xp_table,
    transfer_normal_table,
    transfer_xp_table,
)
from .optimize import (
    Objective,
    OptimumRecord,
    closed_form_delta,
    minimize_delta,
    objective_function,
    sweep_r,
)
from .phasespace import CharFn, ORIGIN, PhasePoint, eval_at
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
    fock_charfn,
    input_charfn,
    input_photon_probs,
    input_purity,
    state_from_descriptor,
    state_to_descriptor,
    transfer_fn,
)
