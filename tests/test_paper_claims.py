"""Sentences of the paper's abstract, each checked as it holds in this code.

"The second order central momenta which is equal to the second order
cumulants and the photon number average are also optimized by the resource
with Delta_(2)^opt."  The output's x and p central second moments and its
mean photon number, read off ``moment_set`` of the teleported state and
minimized over Delta by the reference minimizer, have their minimum at
Delta_(2)^opt = cos(pi/8) for every input and r; so do the optimizer's
``x2_transfer`` and ``n_transfer`` objectives.

"We show that the optimal fidelity resource which has been found in
reference [TelepNonGauss] to depend also on the characteristics of input
tends for high squeezing to the resource which optimizes the second order
momenta.  A similar behavior is obtained for the resource which optimizes the
photon statistics ..."  The optimizer's ``one_minus_fidelity`` and
``d_functional`` optima over Delta, on coherent, squeezed, Fock and mixed
inputs, spread across the inputs at low squeezing (by 0.078 and 0.091 at
r = 0.5), lie below Delta_(2)^opt = cos(pi/8), and rise to it monotonically
as r grows, the offset falling like e^{-2r}: by a factor within 2% of e^2 per
unit of r from r = 3, to below 8e-5 at r = 5.

"Optimal fidelity resources and optimal photon statistics resources are
compared and is shown that for mixtures of Fock states both resources are
equivalent."  For a Fock-diagonal input the output is Fock-diagonal, so the
photon-statistics distance D_N and the Frobenius distance differ only by the
photon mass beyond N, and their optimal Deltas coincide at every r.  The
fidelity optimum does not: it lies above them by a gap that shrinks like
e^{-2r}, and all three tend to Delta_(2)^opt = cos(pi/8).  So "equivalent"
holds between the photon-statistics and Frobenius resources, and for the
fidelity only as r grows.

"... tends for high squeezing to the resource which optimizes the second
order momenta.  A similar behavior is obtained for the resource which
optimizes the photon statistics."  At high squeezing the photon difference
``P_out - P_in`` is O(e^{-2r}), and from r of about 16 it is mostly the
rounding of the O(1) numbers it is taken from.  The optimizer then either
certifies a ``d_functional`` optimum near Delta_(2)^opt or raises
``AccuracyError``: no ``ok`` row from r = 12 to 40 is more than 1e-3 from
cos(pi/8) (2.5e-4 at worst, fock:1 at r = 17).

"We obtain optimal parameters Delta_(2)^opt and Delta_(4)^opt for the second
and fourth order cumulants which do not depend on the squeezing of the
resource."  At g = 1 and theta = 0 the optimizer's ``x2_transfer`` and
``n_transfer`` optima are Delta_(2)^opt = cos(pi/8), and its
``kappa4_transfer`` optimum Delta_(4)^opt, to 1e-10 from r = 0.05 to 20; the
reference minimizer of the finite-difference objectives agrees to 1e-4.

"For the cumulants the distortion between in and out states due to
teleportation depends only on the resource."  The output's cumulant table,
taken by finite differences of log chi_out, minus g^(n+m) times the input's is
one table for every input, to 1e-5; ``distortion_covariance``'s second-order
distortions are bit-identical across the inputs.
"""

import cmath
import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    Objective,
    SqueezedBellResource,
    distortion_covariance,
    moment_set,
    sweep_r,
    teleport,
)
from cvteleport.cli import parse_state
from conftest import DELTA2_OPT, DELTA4_OPT, case_study_inputs, random_resources
from oracles import (
    CharFn,
    DiffConfig,
    fd_objective_function,
    input_charfn,
    output_charfn,
    raw_moment_xp,
    reference_minimize,
)

R_GRID = [1.0, 2.0, 3.0, 4.0, 5.0]
SECOND_ORDER_RS = [0.5, 1.25, 2.5]
HIGH_SQUEEZING_RS = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
HIGH_SQUEEZING_INPUTS = ["coherent:2.12928", "sqvac:1.5", "fock:1", "mix:0@0.5,1@0.5"]
# The cumulant orders (n, m), 1 <= n + m <= 4.
CUMULANT_KEYS = [(n, m) for n in range(5) for m in range(5 - n) if n + m]


@pytest.mark.parametrize("text", ["fock:1", "coherent:2.12928", "sqvac:1.5", "mix:0@0.5,1@0.5"])
def test_second_order_central_moments_and_mean_photon_number_are_optimized_by_delta2_opt(text):
    state = parse_state(text)
    for r in SECOND_ORDER_RS:
        def output(delta):
            return moment_set(teleport(state, Channel(SqueezedBellResource(delta, 0.0, r))))

        for name in ("x2_central", "p2_central", "n_mean"):
            star, _ = reference_minimize(lambda delta: getattr(output(delta), name))
            # Within 1.1e-8 of cos(pi/8) on these cells: the reference's own accuracy.
            assert abs(star - DELTA2_OPT) <= 1e-6, (text, r, name, star)
    for rec in sweep_r(["x2_transfer", "n_transfer"], SECOND_ORDER_RS, input=state):
        assert rec.error is None and rec.delta_star == DELTA2_OPT, rec


# The least spread of the optima across the four inputs at r = 0.5: 0.078 for
# the fidelity and 0.091 for D_N.
@pytest.mark.parametrize("kind,spread", [("one_minus_fidelity", 0.07), ("d_functional", 0.085)])
def test_fidelity_and_photon_statistics_optima_depend_on_the_input_and_tend_to_delta2_opt(
    kind, spread
):
    offsets = []
    for text in HIGH_SQUEEZING_INPUTS:
        records = sweep_r([kind], HIGH_SQUEEZING_RS, input=parse_state(text))
        assert all(rec.error is None for rec in records), records
        offsets.append([DELTA2_OPT - rec.delta_star for rec in records])
    low = [offset[0] for offset in offsets]
    assert max(low) - min(low) >= spread, low
    for text, offset in zip(HIGH_SQUEEZING_INPUTS, offsets):
        assert all(before > after > 0.0 for before, after in zip(offset, offset[1:])), (text, offset)
        # Below 7.94e-5 at r = 5 (sqvac:1.5, D_N, the slowest).
        assert offset[-1] < 8e-5, (text, offset)
        # offset(r) / offset(r + 1) over r = 3, 4, 5: 7.26 to 7.405, e^2 = 7.389.
        for before, after in zip(offset[3:], offset[4:]):
            assert abs(before / after / math.exp(2.0) - 1.0) <= 0.02, (text, offset)


@pytest.mark.parametrize("text", ["fock:1", "mix:0@0.5,1@0.5", "mix:0@0.2,2@0.5,5@0.3"])
def test_fock_mixture_photon_and_frobenius_optima_agree_and_fidelity_joins_them_like_e_minus_2r(text):
    kinds = ["d_functional", "frobenius", "one_minus_fidelity"]
    records = sweep_r(kinds, R_GRID, input=parse_state(text))
    assert all(rec.error is None for rec in records), records
    n = len(R_GRID)
    photon, frobenius, fidelity = (
        [rec.delta_star for rec in records[k * n:(k + 1) * n]] for k in range(3)
    )
    # Equal to the Frobenius optimum's rounding, which grows with r (7.6e-10 on
    # the two-component mixture at r = 5; ROADMAP item 2): far below the fidelity gap.
    for p, f in zip(photon, frobenius):
        assert abs(p - f) <= 1e-9, (text, photon, frobenius)
    gaps = [fid - p for fid, p in zip(fidelity, photon)]
    assert all(gap > 0.0 for gap in gaps), gaps
    # gap * e^{2r} settles: 0.0433, 0.0957 and 0.1207 at r = 5 on the three inputs.
    scaled = [gap * math.exp(2.0 * r) for gap, r in zip(gaps, R_GRID)]
    assert all(hi >= lo for hi, lo in zip(scaled, scaled[1:])), scaled
    for before, after in zip(scaled[2:], scaled[3:]):
        assert abs(after / before - 1.0) <= 0.01, scaled
    # Both optima rise to cos(pi/8), their offsets also falling like e^{-2r}.
    for stars in (photon, fidelity):
        offsets = [DELTA2_OPT - star for star in stars]
        assert all(offset > 0.0 for offset in offsets), offsets
        for before, after in zip(offsets[2:], offsets[3:]):
            assert abs(after / before * math.exp(2.0) - 1.0) <= 0.01, offsets
        assert offsets[-1] < 5e-5, offsets


@pytest.mark.parametrize("text", [
    "fock:1", "fock:3", "mix:0@0.5,1@0.5", "mix:0@0.2,2@0.5,5@0.3",
    "coherent:2.12928", "coherent:0.5,0.3", "sqvac:1.5", "sqvac:-0.7",
])
def test_a_high_squeezing_photon_statistics_optimum_is_delta2_opt_or_an_accuracy_error(text):
    records = sweep_r(["d_functional"], np.linspace(12.0, 40.0, 113).tolist(),
                      input=parse_state(text))
    ok = [rec for rec in records if rec.error is None]
    assert ok and ok[0].r == 12.0, ok  # certified from r = 12 up to about r = 16
    for rec in ok:
        assert abs(rec.delta_star - DELTA2_OPT) <= 1e-3, rec
    for rec in records:
        assert rec.error is None or rec.error.startswith("AccuracyError: "), rec
    assert records[-1].error is not None  # at r = 40 the difference is all rounding


def test_second_and_fourth_order_optima_do_not_depend_on_the_squeezing():
    rs = [0.05, 0.5, 1.25, 2.5, 6.0, 12.0, 20.0]
    targets = {"x2_transfer": DELTA2_OPT, "n_transfer": DELTA2_OPT, "kappa4_transfer": DELTA4_OPT}
    records = sweep_r(list(targets), rs)
    for rec in records:
        assert rec.error is None and abs(rec.delta_star - targets[rec.kind]) <= 1e-10, rec
    # kappa4_AB is about 1e-5 at r = 2.5: at the default step the FD roundoff
    # moves its minimizer by 2e-4, at four times that step by 1.1e-6.
    cfg = DiffConfig(step=4e-3)
    for rec in records:
        if rec.r in (0.5, 2.5):
            objective = fd_objective_function(Objective(kind=rec.kind, r=rec.r), cfg)
            star, _ = reference_minimize(objective)
            assert abs(star - rec.delta_star) <= 1e-4, (rec, star)


def _fd_cumulants(f: CharFn) -> np.ndarray:
    """The cumulants of a Wigner-ordered characteristic function at
    ``CUMULANT_KEYS``: the FD engine's "raw moments" of its log."""
    log_f = CharFn(lambda p: cmath.log(f(p)))
    return np.array([raw_moment_xp(log_f, n, m) for n, m in CUMULANT_KEYS])


def test_the_cumulant_distortion_depends_only_on_the_resource():
    orders = np.array([n + m for n, m in CUMULANT_KEYS])
    for res in random_resources(np.random.default_rng(5), 2):
        for gain in (1.0, 1.3):
            ch = Channel(res, gain=gain)
            tables, covariances = [], set()
            for state in case_study_inputs():
                out = output_charfn(teleport(state, ch))
                tables.append(_fd_cumulants(out) - gain ** orders * _fd_cumulants(input_charfn(state)))
                d = distortion_covariance(state, ch)
                covariances.add((d.d_x2, d.d_p2, d.d_cov))
            # Within 3.4e-6 at g = 1.3, 1.6e-8 at g = 1.
            assert np.abs(np.array(tables) - tables[0]).max() <= 1e-5, (res, gain)
            assert len(covariances) == 1, covariances
