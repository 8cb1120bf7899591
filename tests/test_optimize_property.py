"""Property test of the exact Delta optimizer over random cells.

The optimizer reads every objective as a degree-2 trigonometric polynomial
in ``t = 2 arccos(Delta)``, built from a quadratic form in the Delta weights.
The test holds that polynomial to the oracle, which evaluates each objective
one Delta at a time from the moment tables and the Delta family, then checks
that the optimum is a local minimum and never worse than the grid-scan
reference minimizer.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvteleport import (  # noqa: E402
    CoherentInput,
    FockInput,
    FockMixtureInput,
    Objective,
    SqueezedVacuumInput,
    delta_family,
    minimize_delta,
)
from cvteleport.optimize import OBJECTIVE_KINDS  # noqa: E402
from oracles import (  # noqa: E402
    _basis,
    objective_parts,
    reference_minimize,
    trig_form,
    trig_objective,
    weighted_objective,
)

STATES = (
    FockInput(0),
    FockInput(1),
    FockInput(3),
    CoherentInput(1.0 + 0.7j),
    CoherentInput(2.12928),
    SqueezedVacuumInput(1.5),
    SqueezedVacuumInput(-0.8),
    FockMixtureInput(((0, 0.5), (3, 0.5))),
)
SCALE_DELTAS = (0.0, 0.3, 0.6, 0.85, 1.0)
# The Delta-family objectives combine probabilities and overlaps of size <= 1:
# their g is rounded to about 1e-15 absolutely, and sqrt(g) magnifies that by
# 1 / (2 sqrt(g)).  The transfer-table objectives round relative to g.
FAMILY_KINDS = ("d_functional", "one_minus_fidelity", "frobenius")


def _family_value(obj: Objective, delta: float) -> float:
    """The column that ``compare`` prints for ``obj``'s kind at ``delta``."""
    m = delta_family(obj.input, obj.r, obj.theta, obj.gain, obj.n_photons).measures(delta)
    return {"d_functional": m.d_n, "one_minus_fidelity": m.one_minus_fidelity}.get(
        obj.kind, m.frobenius
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(OBJECTIVE_KINDS),
    state=st.sampled_from(STATES),
    delta=st.floats(0.0, 1.0),
    theta=st.floats(-math.pi, math.pi),
    r=st.floats(0.05, 3.0),
    gain=st.floats(0.5, 1.5),
)
def test_exact_optimum_is_a_local_minimum_no_worse_than_the_grid(
    kind, state, delta, theta, r, gain
):
    obj = Objective(kind=kind, r=r, theta=theta, input=state, gain=gain)
    g, _ = objective_parts(obj)
    coef, _ = trig_form(obj)
    polynomial = float(_basis(delta) @ coef)
    values = [g(d) for d in SCALE_DELTAS + (delta,)]
    scale = max(max(abs(v) for v in values), 1.0 if kind in FAMILY_KINDS else 0.0)
    assert abs(polynomial - values[-1]) <= 1e-12 * scale

    rec = minimize_delta(obj)
    # Every kind's printed value is its form at the optimum's Delta weights.
    assert rec.objective_value == weighted_objective(obj)(rec.delta_star)
    f = trig_objective(obj) if kind in FAMILY_KINDS else weighted_objective(obj)
    rounding = 0.0
    if kind == "one_minus_fidelity":
        rounding = 1e-15
    elif kind in FAMILY_KINDS and rec.objective_value > 0.0:
        rounding = 1e-15 / (2.0 * rec.objective_value)
    if kind in FAMILY_KINDS:
        # For a family kind that form is the family's own column; the
        # polynomial the candidates were found on agrees with it to rounding.
        assert rec.objective_value == _family_value(obj, rec.delta_star)
        if kind == "one_minus_fidelity":
            assert abs(rec.objective_value - f(rec.delta_star)) <= rounding
        else:
            assert abs(rec.objective_value**2 - f(rec.delta_star) ** 2) <= 1e-15
    # Probed in t: a fourth-cumulant dip next to Delta = 1 can be narrower
    # than 1e-4 in Delta, though several times wider than that in t.
    t_star = 2.0 * math.acos(rec.delta_star)
    for side in (-1e-4, 1e-4):
        probe = math.cos(0.5 * min(max(t_star + side, 0.0), math.pi))
        assert rec.objective_value <= f(probe) + rounding
    if kind != "kappa4_transfer":
        # The 41-point grid can miss a narrow interior fourth-cumulant dip and
        # return a lower boundary value, which the documented rule does not.
        _, grid_value = reference_minimize(f)
        assert rec.objective_value <= grid_value + 1e-12 + rounding
