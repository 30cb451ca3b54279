"""Stability counts on Lee & Stewart's waves (gamma = 1.2, q = 50), in their units.

These waves have K from about 100 to 900, so their reactant falls to 1e-5
before y = -0.2: they exercise truncation depths ln(1/eps)/K far from
the default wave's K = 2.  A depth of 5 made Erpenbeck's and
Lee-Stewart's x(y) quadrature fail on LS(1.2, 50).
"""

import pytest

from conftest import lee_stewart_config
from zndevans.evans import METHODS, evaluate
from zndevans.numerics import newton_root
from zndevans.spectral import make_frame
from zndevans.stability import count_unstable
from zndevans.znd import build_wave


@pytest.fixture(scope="module")
def ls_waves():
    """LS(f, E) waves keyed by (f, E)."""
    return {(f, E): build_wave(lee_stewart_config(1.2, 50.0, E, f))
            for f, E in ((1.6, 50.0), (2.0, 50.0), (1.2, 50.0))}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("f, E, radius, winding", [
    (1.6, 50.0, 1.0, 2),   # one conjugate pair
    (2.0, 50.0, 1.0, 0),   # stable
    (1.2, 50.0, 5.0, 4),   # two pairs
])
def test_winding(ls_waves, method, f, E, radius, winding):
    report = count_unstable(ls_waves[f, E], radius, method=method, tol=1e-6)
    assert report.winding == winding


def test_methods_agree_at_one_plus_i(ls_waves):
    wave = ls_waves[1.6, 50.0]
    values = []
    M = make_frame(wave, 1.0 + 1.0j, 1e-8).M
    for method in METHODS:
        r = evaluate(wave, 1.0 + 1.0j, method=method, tol=1e-8)
        assert r.M == M
        values.append(r.D * r.kappa_to_neutral)
    neutral = values[0]
    for other in values[1:]:
        assert abs(other - neutral) <= 1e-7 * abs(neutral)


def test_root_pinned(ls_waves):
    # the unstable pair of LS(1.6, 50): every method converges to the same root
    wave = ls_waves[1.6, 50.0]
    root = 0.125326848 + 0.885358023j
    found = []
    for method in METHODS:
        # raw Lee-Stewart D is not analytic in lambda, as the depth follows
        # lambda; D * kappa_to_neutral is, and it is what sweep_roots solves
        def analytic_D(lam):
            r = evaluate(wave, lam, method=method, tol=1e-10)
            return r.D * r.kappa_to_neutral

        z = newton_root(analytic_D, 0.12 + 0.88j)
        assert abs(z - root) <= 1e-7, (method, z)
        found.append(z)
    assert max(abs(a - b) for a in found for b in found) <= 1e-7, found
