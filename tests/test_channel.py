import dataclasses
import math

import numpy as np

from cvteleport import (
    Channel,
    OutputState,
    SqueezedBellResource,
    state_to_descriptor,
    teleport,
)
from conftest import DELTA2_OPT, case_study_inputs, random_points, random_resources
from oracles import (
    PhasePoint,
    eval_at,
    input_charfn,
    output_charfn,
    transfer_fn,
)


def test_output_origin_is_one(rng):
    for state in case_study_inputs():
        for res in random_resources(rng, 3):
            out = teleport(state, Channel(res))
            assert abs(eval_at(output_charfn(out), PhasePoint(0.0, 0.0)) - 1.0) <= 1e-14


def test_product_structure(rng):
    """chi_out is the pointwise product of the transfer and input functions."""
    for _ in range(100):
        state = case_study_inputs()[int(rng.integers(0, 5))]
        res = random_resources(rng, 1)[0]
        g = float(rng.choice([1.0, 1.3]))
        ch = Channel(res, gain=g)
        out = teleport(state, ch)
        tau = transfer_fn(ch)
        chi_in = input_charfn(state)
        w, z = random_points(rng, 1)[0]
        p = PhasePoint(w, z)
        want = tau(p) * chi_in(PhasePoint(g * w, g * z))
        assert abs(output_charfn(out)(p) - want) <= 1e-15


def test_vacuum_through_tmsv_symbolic_product(rng):
    # Symbolic product: exp(-u/2) * exp(-u e^{-2r}) = exp(-u (1/2 + e^{-2r})).
    r = 1.1
    chi_out = output_charfn(
        teleport(case_study_inputs()[0], Channel(SqueezedBellResource(delta=1.0, theta=0.0, r=r)))
    )
    coeff = 0.5 + math.exp(-2.0 * r)
    for w, z in random_points(rng, 30):
        p = PhasePoint(w, z)
        want = math.exp(-coeff * p.abs_sq)
        assert abs(chi_out(p) - want) <= 1e-14 * max(want, 1e-30) + 1e-16


def test_near_epr_output_matches_input(epr_channel):
    for state in case_study_inputs():
        chi_out = output_charfn(teleport(state, epr_channel))
        chi_in = input_charfn(state)
        worst = 0.0
        for w in np.linspace(-2, 2, 25):
            for z in np.linspace(-2, 2, 25):
                if w * w + z * z <= 4.0:
                    p = PhasePoint(w, z)
                    worst = max(worst, abs(chi_out(p) - chi_in(p)))
        assert worst <= 5e-3


def test_provenance_descriptors():
    """An output is exactly its provenance: the pair (input, channel)."""
    state = case_study_inputs()[1]
    ch = Channel(SqueezedBellResource(delta=DELTA2_OPT, theta=0.0, r=1.25), gain=1.0)
    out = teleport(state, ch)
    assert [f.name for f in dataclasses.fields(OutputState)] == ["input", "channel"]
    assert (out.input, out.channel) == (state, ch) and out == OutputState(state, ch)
    assert state_to_descriptor(out.input) == {"kind": "fock", "n": 1}
    assert (out.channel.resource.r, out.channel.gain) == (1.25, 1.0)
