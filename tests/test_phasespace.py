import math

import numpy as np
import pytest

from cvteleport import (
    CharFn,
    InvalidArgumentError,
    ORIGIN,
    PhasePoint,
    eval_at,
    input_charfn,
)
from conftest import case_study_inputs, random_points
from oracles import convert_ordering


def test_phasepoint_derived_quantities():
    p = PhasePoint(0.3, -1.2)
    assert p.xi == 0.3 - 1.2j
    assert p.xi_conj == 0.3 + 1.2j
    assert p.abs_sq == 0.3 * 0.3 + 1.2 * 1.2
    assert p.abs_sq >= 0.0


def test_phasepoint_conjugate_roundtrip_bit_exact(rng):
    for w, z in random_points(rng, 50):
        p = PhasePoint(w, z)
        q = p.conjugate().conjugate()
        assert q.w == p.w and q.z == p.z


def test_abs_sq_nonnegative_randomly(rng):
    for w, z in random_points(rng, 200):
        assert PhasePoint(w, z).abs_sq >= 0.0


@pytest.mark.parametrize("state", case_study_inputs())
def test_origin_normalization(state):
    f = input_charfn(state)
    assert abs(eval_at(f, ORIGIN) - 1.0) <= 1e-14


@pytest.mark.parametrize("state", case_study_inputs())
def test_hermiticity_symmetry(state, rng):
    f = input_charfn(state)
    for w, z in random_points(rng, 40):
        p = PhasePoint(w, z)
        assert abs(f(-p) - np.conj(f(p))) <= 1e-13


def test_eval_at_vacuum():
    vac = input_charfn(case_study_inputs()[0])
    # |xi|^2 = 2 -> exp(-1)
    assert abs(eval_at(vac, PhasePoint(1.0, 1.0)) - math.exp(-1.0)) <= 1e-15


def test_eval_at_coherent_real_beta_on_real_axis():
    # Hand evaluation of the coherent function at Im(xi) = 0: the
    # displacement phase 2i Im(xi) beta vanishes, leaving exp(-w^2 / 2).
    from cvteleport import CoherentInput

    f = input_charfn(CoherentInput(0.8))
    for w in (0.0, 0.5, 1.7, -2.2):
        val = eval_at(f, PhasePoint(w, 0.0))
        assert abs(val - math.exp(-0.5 * w * w)) <= 1e-15
        assert abs(val.imag) <= 1e-16


def test_eval_at_rejects_non_finite():
    vac = input_charfn(case_study_inputs()[0])
    with pytest.raises(InvalidArgumentError):
        eval_at(vac, PhasePoint(float("nan"), 0.0))
    with pytest.raises(InvalidArgumentError):
        eval_at(vac, PhasePoint(0.0, float("inf")))


def test_convert_ordering_identity_is_exact(rng):
    f = input_charfn(case_study_inputs()[3])
    g = convert_ordering(f, f.ordering)
    for w, z in random_points(rng, 10):
        p = PhasePoint(w, z)
        assert g(p) == f(p)


def test_convert_ordering_vacuum_to_normal_is_one(rng):
    vac = input_charfn(case_study_inputs()[0])
    g = convert_ordering(vac, 1)
    assert abs(eval_at(g, ORIGIN) - 1.0) <= 1e-15
    for w, z in random_points(rng, 20):
        assert abs(g(PhasePoint(w, z)) - 1.0) <= 1e-12


def test_convert_ordering_rejects_bad_ordering():
    vac = input_charfn(case_study_inputs()[0])
    with pytest.raises(InvalidArgumentError):
        convert_ordering(vac, 2)
    with pytest.raises(InvalidArgumentError):
        CharFn(lambda p: 1.0, ordering=5)


@pytest.mark.parametrize("state", case_study_inputs())
def test_conversion_roundtrip(state, rng):
    f = input_charfn(state)
    back = convert_ordering(convert_ordering(f, 1), 0)
    for w, z in random_points(rng, 100):
        p = PhasePoint(w, z)
        a, b = back(p), f(p)
        assert abs(a - b) <= 1e-14 * max(abs(b), 1e-30) + 1e-16
