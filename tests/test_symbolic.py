"""Symbolic oracle of the transfer function's cumulant table and derivative forms,
of the r-independence of the second- and fourth-order optima, of the
optimizer's map from quadratic forms to trigonometric coefficients, and of the
closed-form fourth-moment and fidelity optima.

The two-mode resource of the :mod:`cvteleport.states` docstring is built in
sympy, restricted to ``(g conj(xi), xi)`` with ``xi = w + i z``, and its log
differentiated at 0 in the derivative convention of
:mod:`cvteleport.moments`.  The expected values use none of the package's
one-mode reduction (``transfer_coefficients``, ``transfer_basis``): the
restriction, its collapse to a function of ``|xi|^2`` and the derivatives
are sympy's.  At Delta = 1 the resource is a two-mode squeezed vacuum, a
Gaussian, so the expected fourth cumulants are 0 and the package's must be
0.0 exactly.  Near a zero of K(4, 0) the package must keep its relative
accuracy.
"""

import functools
import math

import numpy as np
import pytest

from cvteleport import (
    Channel,
    SqueezedBellResource,
    closed_form_delta,
    resource_closed_forms,
    transfer_cumulants,
)
from cvteleport.moments import transfer_derivative_forms
from cvteleport.optimize import _trig
from cvteleport.states import delta_weights, transfer_coefficients

sp = pytest.importorskip("sympy")

_DIGITS = 30
# (Delta, theta, r, g): both gains off 1, Delta = 1, where kappa4 vanishes, and
# the optimum of kappa4_transfer on fock:1 at r = 1, gain 1.3, where K(4, 0)
# is -6e-8 among terms of size 1e-8 to 1.
CELLS = [
    (0.92388, 0.0, 1.25, 1.0),
    (0.8, 1.2, 1.5, 1.3),
    (0.3, 2.5, 0.4, 0.7),
    (1.0, 0.0, 2.0, 1.5),
    (0.9999752232201582, 0.0, 1.0, 1.3),
]


def _exact(x: float):
    """The float ``x`` as a 40-digit sympy number, so the package and sympy see one value."""
    return sp.Float(sp.Rational(x), 40)


@functools.lru_cache(maxsize=None)
def _symbolic(cell):
    """``(K, forms)``: the cumulant table of the restricted resource, and
    ``(F'(0), F''(0))`` of it, of ``exp((1 - g^2) u / 2)`` times it and of
    ``exp((|x_a|^2 + |x_b|^2) / 2)`` times it, its polynomial factor, seen as
    functions ``F(u)``, ``u = |xi|^2``."""
    delta, theta, r, g = (_exact(x) for x in cell)
    w, z = sp.symbols("w z", real=True)
    xi = w + sp.I * z
    xi_a, xi_b = g * sp.conjugate(xi), xi
    ch, sh = sp.cosh(r), sp.sinh(r)
    xa = ch * xi_a - sh * sp.conjugate(xi_b)
    xb = ch * xi_b - sh * sp.conjugate(xi_a)
    na, nb = sp.expand(xa * sp.conjugate(xa)), sp.expand(xb * sp.conjugate(xb))
    cross = 2 * delta * sp.sqrt(1 - delta**2) * sp.re(sp.exp(sp.I * theta) * xa * xb)
    tau = sp.exp(-(na + nb) / 2) * (delta**2 + cross + (1 - delta**2) * (1 - na) * (1 - nb))

    origin = {w: 0, z: 0}
    k = {}
    dz = sp.expand_log(sp.log(tau), force=True)
    for n in range(5):
        d = dz
        for m in range(5 - n):
            if n + m:
                k[(n, m)] = float(sp.re(sp.N(d.subs(origin) / sp.I ** (n + m), _DIGITS)))
            d = sp.diff(d, w)
        dz = sp.diff(dz, z)

    def derivatives(f):
        # On the real axis F(w^2) = F(0) + F'(0) w^2 + F''(0) w^4 / 2 + ...
        line = f.subs(z, 0)
        d2 = sp.diff(line, w, 2)
        return (float(sp.N(d2.subs(w, 0) / 2, _DIGITS)),
                float(sp.N(sp.diff(d2, w, 2).subs(w, 0) / 12, _DIGITS)))

    normal = sp.exp((1 - g**2) * (w**2 + z**2) / 2) * tau
    free = sp.exp((na + nb) / 2) * tau
    return k, (derivatives(tau), derivatives(normal), derivatives(free))


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


def _channel(cell):
    delta, theta, r, g = cell
    return Channel(SqueezedBellResource(delta=delta, theta=theta, r=r), gain=g)


@pytest.mark.parametrize("cell", CELLS)
def test_transfer_cumulants_match_the_symbolic_log_derivatives(cell):
    want, _ = _symbolic(cell)
    got = transfer_cumulants(_channel(cell))
    assert set(got) == set(want)
    for key, value in want.items():
        assert _close(got[key], value), (cell, key, got[key], value)


@pytest.mark.parametrize("cell", CELLS)
def test_derivative_forms_match_the_symbolic_expansion(cell):
    """The transfer function's ``F'(0), F''(0)`` (rate e), those of the
    normal-ordered transfer factor (rate a^2) and those of its polynomial
    factor ``exp(e u) tau`` (rate 0), each as ``d @ w``."""
    _, (plain, normal, free) = _symbolic(cell)
    ch = _channel(cell)
    w = np.array(delta_weights(ch.resource))
    a, _ = transfer_coefficients(ch)
    for rate, want in ((None, plain), (a * a, normal), (0.0, free)):
        got = [float(d @ w) for d in transfer_derivative_forms(ch, rate)]
        assert _close(got[0], want[0]) and _close(got[1], want[1]), (cell, rate, got, want)



# (Delta, theta) with a rational sqrt(1 - Delta^2); cos(theta) is 1, 1/2 and cos(1).
R_FREE_CELLS = [
    (sp.Rational(3, 5), sp.Integer(0)),
    (sp.Rational(12, 13), sp.pi / 3),
    (sp.Rational(4, 5), sp.Integer(1)),
]


@pytest.mark.parametrize("delta, theta", R_FREE_CELLS)
def test_second_and_fourth_order_optima_do_not_depend_on_r(delta, theta):
    """The abstract's r-independent optima Delta_(2)^opt and Delta_(4)^opt.  At
    g = 1, with r a symbol, ``K(2, 0) e^{2r}`` and ``K(4, 0) e^{4r}`` of the
    resource restricted to the real axis are free of r: the squeezing scales
    both objectives and moves neither minimizer.  They are
    ``resource_closed_forms``' ``x2_ab`` and ``kappa4_ab`` at r = 0."""
    r, t = sp.symbols("r t", positive=True)
    ch, sh = sp.cosh(r), sp.sinh(r)
    xa = xb = ch * t - sh * t  # (g conj(xi), xi) at g = 1 and xi = t
    na, nb = xa * xa, xb * xb
    cross = 2 * delta * sp.sqrt(1 - delta**2) * sp.cos(theta) * xa * xb
    log_tau = sp.log(sp.exp(-(na + nb) / 2) * (delta**2 + cross + (1 - delta**2) * (1 - na) * (1 - nb)))
    x2 = sp.simplify((-sp.diff(log_tau, t, 2).subs(t, 0) * sp.exp(2 * r)).rewrite(sp.exp))
    kappa4 = sp.simplify((sp.diff(log_tau, t, 4).subs(t, 0) * sp.exp(4 * r)).rewrite(sp.exp))
    assert r not in x2.free_symbols | kappa4.free_symbols, (x2, kappa4)
    forms = resource_closed_forms(SqueezedBellResource(float(delta), float(theta), 0.0))
    assert _close(forms.x2_ab, float(x2)) and _close(forms.kappa4_ab, float(kappa4)), (x2, kappa4)


@pytest.mark.parametrize("theta", [0.0, 0.4, 2.0])
def test_trig_map_is_the_symbolic_expansion_of_the_form(theta):
    """``_trig(theta)`` maps ``Q[triu]`` to the coefficients of
    ``(1, cos t, sin t, cos 2t, sin 2t)`` in ``w @ Q @ w``, ``w = W (1, cos t,
    sin t)``: sympy expands the form of a symbolic symmetric ``Q`` in
    ``z = e^{it}`` and reads the coefficient of ``z^k`` as ``(a_k - i b_k) / 2``."""
    z = sp.Symbol("z")
    q = {(i, j): sp.Symbol(f"q{i}{j}", real=True) for i in range(3) for j in range(i, 3)}
    Q = sp.Matrix(3, 3, lambda i, j: q[min(i, j), max(i, j)])
    c = sp.cos(_exact(theta))
    half = sp.Rational(1, 2)
    W = sp.Matrix([[half, half, 0], [0, 0, c], [half, -half, 0]])
    w = W * sp.Matrix([1, (z + 1 / z) / 2, (z - 1 / z) / (2 * sp.I)])
    g = sp.Poly(sp.expand((w.T * Q * w)[0] * z**2), z)
    want = np.zeros((5, 6))
    for col, key in enumerate(sorted(q)):  # the order of Q[np.triu_indices(3)]
        coefficient = [complex(g.coeff_monomial(z ** (2 + k)).coeff(q[key])) for k in range(3)]
        want[0, col] = coefficient[0].real
        for k in (1, 2):
            want[2 * k - 1, col] = 2.0 * coefficient[k].real
            want[2 * k, col] = -2.0 * coefficient[k].imag
    assert np.allclose(_trig(theta), want, rtol=0.0, atol=1e-15), (_trig(theta), want)


# closed_form_delta's fourth-moment kinds and the x variance v of their input.
MU4_KINDS = [
    ("mu4_x_coherent", lambda s: 1),
    ("mu4_x_fock1", lambda s: 3),
    ("mu4_x_squeezed", lambda s: sp.exp(-2 * s)),
    ("mu4_p_squeezed", lambda s: sp.exp(2 * s)),
]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_mu4_closed_forms_are_stationary_points_of_the_fourth_moment(r):
    """The mu4 closed forms against the 40-digit stationary point in Delta of
    ``kappa4_ab + 3 x2_ab^2 + 6 v x2_ab``, the Delta-dependent part of the
    output's fourth moment for an input of x variance v, with
    ``resource_closed_forms``' ``x2_ab`` and ``kappa4_ab`` at theta = 0 (held
    to the package at two Delta)."""
    mp = pytest.importorskip("mpmath")
    d = sp.Symbol("d", positive=True)
    q, e2r = sp.sqrt(1 - d**2), sp.exp(2 * _exact(r))
    x2 = (6 - 4 * d**2 - 4 * d * q) / e2r
    kappa4 = 24 * (1 - d**2) * (1 - 2 * (d - q) ** 2) / e2r**2
    for delta in (0.3, 0.9):
        forms = resource_closed_forms(SqueezedBellResource(delta, 0.0, r))
        at = {d: _exact(delta)}
        assert _close(forms.x2_ab, float(x2.subs(at)), 1e-14)
        assert _close(forms.kappa4_ab, float(kappa4.subs(at)), 1e-14)
    s = 0.3
    for kind, variance in MU4_KINDS:
        objective = kappa4 + 3 * x2**2 + 6 * variance(_exact(s)) * x2
        slope = sp.lambdify(d, sp.diff(objective, d), "mpmath")
        curvature = sp.lambdify(d, sp.diff(objective, d, 2), "mpmath")
        got = closed_form_delta(kind, r, s)
        with mp.workdps(40):
            root = mp.findroot(slope, mp.mpf(got))
            # A secant step past Delta = 1 leaves an imaginary part of rounding size.
            assert abs(mp.im(root)) < 1e-30
            root = mp.re(root)
            assert 0 < root < 1 and curvature(root) > 0, (kind, r, root)
            assert abs(got - root) <= 2 * math.ulp(got), (kind, r, got, root)


# closed_form_delta's fidelity kinds and the factor p(u) of their input's
# |chi_in(xi)|^2 = e^{-u} p(u), u = |xi|^2: any coherent input at g = 1, and |1>.
FIDELITY_KINDS = [
    ("fidelity_coherent", lambda u: 1),
    ("fidelity_fock1", lambda u: (1 - u) ** 2),
]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_fidelity_closed_forms_are_stationary_points_of_the_fidelity(r):
    """The fidelity closed forms against the 40-digit maximum in t of
    ``F(t) = int_0^oo tau(u) e^{-u} p(u) du``, ``Delta = cos(t/2)``: the
    fidelity ``(1/pi) int |chi_in|^2 tau d^2 xi`` of a real, radial tau at
    g = 1.  tau is the two-mode resource of ``_symbolic`` restricted to the
    real axis ``xi = sqrt(u)`` at theta = 0; each term ``u^k e^{-c u}`` of the
    integrand integrates to ``k! / c^(k+1)``."""
    mp = pytest.importorskip("mpmath")
    t, u = sp.symbols("t u", positive=True)
    delta = sp.cos(t / 2)
    rr = _exact(r)
    ch, sh = sp.cosh(rr), sp.sinh(rr)
    x = sp.sqrt(u)
    xa = xb = ch * x - sh * x  # (g conj(xi), xi) at g = 1 and xi = sqrt(u)
    na, nb = sp.expand(xa * xa), sp.expand(xb * xb)
    cross = 2 * delta * sp.sqrt(1 - delta**2) * xa * xb
    factor = delta**2 + cross + (1 - delta**2) * (1 - na) * (1 - nb)
    exponent = -(na + nb) / 2 - u  # tau's Gaussian times the input's e^{-u}
    c = -sp.diff(exponent, u)
    assert sp.diff(c, u) == 0 and c > 1
    for kind, p in FIDELITY_KINDS:
        poly = sp.Poly(sp.expand(factor * p(u)), u)
        fidelity = sum(a * sp.factorial(k) / c ** (k + 1) for (k,), a in poly.terms())
        slope = sp.lambdify(t, sp.diff(fidelity, t), "mpmath")
        curvature = sp.lambdify(t, sp.diff(fidelity, t, 2), "mpmath")
        got = closed_form_delta(kind, r)
        with mp.workdps(40):
            # dF/dt is a cos t + b sin t: one root in an interval shorter than pi.
            lo, hi = mp.mpf("0.1"), mp.mpf(3)
            assert slope(lo) * slope(hi) < 0, (kind, r)
            root = mp.findroot(slope, (lo, hi), solver="anderson")
            assert curvature(root) < 0, (kind, r, root)
            want = mp.cos(root / 2)
            assert abs(got - want) <= 2 * math.ulp(got), (kind, r, got, want)
