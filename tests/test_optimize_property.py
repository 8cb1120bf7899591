"""Property tests of the exact Delta optimizer over random cells and random roots.

The optimizer reads every objective as a degree-2 trigonometric polynomial
in ``t = 2 arccos(Delta)``, built from a quadratic form in the Delta weights.
The first test holds that polynomial to the oracle, which evaluates each
objective one Delta at a time from the moment tables and the Delta family,
then checks that the optimum is a local minimum and never worse than the
grid-scan reference minimizer.  The second draws stacks of coefficient rows
and holds the stacked root finder to ``np.roots`` and ``np.polyval``, row by
row and bit for bit.
"""

import math

import numpy as np
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
from cvteleport.optimize import OBJECTIVE_KINDS, _interior_roots  # noqa: E402
from oracles import (  # noqa: E402
    _basis,
    objective_parts,
    reference_interior_roots,
    reference_minimize,
    transfer_table_mismatches,
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


# A coefficient of g: 0, or of size 1e-3 to 1e3 of either sign.
_COEFFICIENT = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_ROW = st.fixed_dictionaries({
    "coef": st.lists(_COEFFICIENT, min_size=5, max_size=5),
    # The cos 2t, sin 2t pair scaled down to where it rounds away beside the rest.
    "decade": st.floats(-18.0, 0.0),
    # Zero ends: none, the whole cos 2t, sin 2t pair, or sin 2t alone.
    "ends": st.sampled_from(((), (3, 4), (4,))),
    "zeros": st.booleans(),  # also stack the quartic of the zeros of g
})


def _stacked_quartics(rows) -> tuple:
    """``(quartics, coef, stationary)``: each row's quartic of the stationary
    points of g, ``z^2 g'(t) / i``, and for the rows that ask the quartic of
    its zeros, ``z^2 g(t)``, of the form the optimizer builds, interleaved
    in one stack; ``stationary`` marks the stationary rows."""
    quartics, coefs, stationary = [], [], []
    for row in rows:
        coef = np.array(row["coef"])
        coef[3:] *= 10.0 ** row["decade"]
        coef[list(row["ends"])] = 0.0
        a0, u1, u2 = coef[0], coef[1] - 1j * coef[2], coef[3] - 1j * coef[4]
        quartics.append([u2, u1 / 2, 0.0, -u1.conjugate() / 2, -u2.conjugate()])
        coefs.append(coef)
        stationary.append(True)
        if row["zeros"]:
            quartics.append([u2 / 2, u1 / 2, a0, u1.conjugate() / 2, u2.conjugate() / 2])
            coefs.append(coef)
            stationary.append(False)
    return np.array(quartics, dtype=complex), np.array(coefs), np.array(stationary)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=8))
def test_stacked_roots_are_the_reference_roots_row_by_row(rows):
    """Each row's roots are ``np.roots`` polished by ``np.polyval`` Newton
    steps, exactly; at a stationary point the curvature has the sign of the
    oracle's ``g''`` wherever that is clear of the roots' rounding; and a
    row's roots and curvatures, to the bit, do not depend on the rows stacked
    with it."""
    quartics, coef, stationary = _stacked_quartics(rows)
    deltas, curvature = _interior_roots(quartics)
    assert deltas.shape == curvature.shape == (len(quartics), 4)
    assert (np.isnan(deltas) == np.isnan(curvature)).all()
    for i, quartic in enumerate(quartics):
        found = deltas[i][~np.isnan(deltas[i])]
        assert sorted(found.tolist()) == sorted(reference_interior_roots(quartic))
        alone = _interior_roots(quartics[i:i + 1])
        assert alone[0].tobytes() == deltas[i:i + 1].tobytes()
        assert alone[1].tobytes() == curvature[i:i + 1].tobytes()
        if stationary[i] and found.size:
            # g''(t) = -(a1 cos t + b1 sin t) - 4 (a2 cos 2t + b2 sin 2t)
            want = (_basis(found) * coef[i] * [0.0, -1.0, -1.0, -4.0, -4.0]).sum(axis=1)
            clear = np.abs(want) > 1e-6 * 4.0 * np.abs(coef[i]).sum()
            got = curvature[i][~np.isnan(deltas[i])]
            assert (np.sign(got[clear]) == np.sign(want[clear])).all()


# Any r, and the values where the forms would go subnormal unscaled, cosh
# overflows, or r lies outside [0, inf); repeats and 0.0 beside -0.0 are drawn
# often from so few values.
_R = st.one_of(
    st.floats(0.0, 720.0),
    st.sampled_from([0.0, -0.0, 177.0, 354.0, 355.0, 709.0, -1.0, 711.0, 800.0, math.inf]),
)


@settings(max_examples=200, deadline=None)
@given(r_grid=st.lists(_R, min_size=1, max_size=12), theta=st.floats(-4.0, 4.0),
       gain=st.floats(0.05, 4.0))
def test_transfer_table_is_the_per_r_oracle_on_random_grids(r_grid, theta, gain):
    """The one-pass table of a grid's distinct r holds, for each, the rows
    and scale its channel builds alone, bit for bit, or its error."""
    assert transfer_table_mismatches(r_grid, theta, gain) == []
