"""Symbolic oracle of the transfer function's cumulant table and derivative forms.

The two-mode resource of the :mod:`cvteleport.states` docstring is built in
sympy, restricted to ``(g conj(xi), xi)`` with ``xi = w + i z``, and its log
differentiated at 0 in the derivative convention of
:mod:`cvteleport.moments`.  The expected values use none of the package's
one-mode reduction (``transfer_coefficients``, ``transfer_basis``): the
restriction, its collapse to a function of ``|xi|^2`` and the derivatives
are sympy's.  At Delta = 1 the resource is a two-mode squeezed vacuum, a
Gaussian, so the expected fourth cumulants are 0 and the package's must be
0.0 exactly.
"""

import functools

import numpy as np
import pytest

from cvteleport import Channel, SqueezedBellResource, transfer_cumulants
from cvteleport.moments import transfer_derivative_forms
from cvteleport.states import delta_weights, transfer_coefficients

sp = pytest.importorskip("sympy")

_DIGITS = 30
# (Delta, theta, r, g): both gains off 1 and Delta = 1, where kappa4 vanishes.
CELLS = [
    (0.92388, 0.0, 1.25, 1.0),
    (0.8, 1.2, 1.5, 1.3),
    (0.3, 2.5, 0.4, 0.7),
    (1.0, 0.0, 2.0, 1.5),
]


def _exact(x: float):
    """The float ``x`` as a 40-digit sympy number, so the package and sympy see one value."""
    return sp.Float(sp.Rational(x), 40)


@functools.lru_cache(maxsize=None)
def _symbolic(cell):
    """``(K, forms)``: the cumulant table of the restricted resource, and
    ``(F'(0), F''(0))`` of it and of ``exp((1 - g^2) u / 2)`` times it, seen as
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
    return k, (derivatives(tau), derivatives(normal))


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
    """The transfer function's ``F'(0), F''(0)`` (rate e) and those of the
    normal-ordered transfer factor (rate a^2), each as ``d @ w``."""
    _, (plain, normal) = _symbolic(cell)
    ch = _channel(cell)
    w = np.array(delta_weights(ch.resource))
    a, _ = transfer_coefficients(ch)
    for rate, want in ((None, plain), (a * a, normal)):
        got = [float(d @ w) for d in transfer_derivative_forms(ch, rate)]
        assert _close(got[0], want[0]) and _close(got[1], want[1]), (cell, rate, got, want)

