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
from zndevans.stability import count_unstable, sweep_roots
from zndevans.znd import build_wave


# the unstable root of LS(1.6, 50) in the upper half plane
LS_ROOT = 0.125326848 + 0.885358023j


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
    frame = make_frame(wave, 1.0 + 1.0j, 1e-8)
    for method in METHODS:
        r = evaluate(wave, 1.0 + 1.0j, method=method, tol=1e-8)
        # Lee-Stewart's truncation estimate accepts the uncapped depth here
        assert r.M == (frame.M_far if method == "lee_stewart" else frame.M)
        values.append(r.D * r.kappa_to_neutral)
    neutral = values[0]
    for other in values[1:]:
        assert abs(other - neutral) <= 1e-7 * abs(neutral)


def test_root_pinned(ls_waves):
    # the unstable pair of LS(1.6, 50): every method converges to the same root
    wave = ls_waves[1.6, 50.0]
    found = []
    for method in METHODS:
        # raw Lee-Stewart D is not analytic in lambda, as the depth follows
        # lambda; D * kappa_to_neutral is, and sweep_roots solves it over
        # lambda, with its exact log-derivative
        def f_and_g(lam):
            r = evaluate(wave, lam, method=method, tol=1e-10, derivative=True)
            value = r.D * r.kappa_to_neutral
            return value / lam, r.derivative / value - 1.0 / lam

        z = newton_root(f_and_g, 0.12 + 0.88j)
        assert abs(z - LS_ROOT) <= 1e-7, (method, z)
        found.append(z)
    assert max(abs(a - b) for a in found for b in found) <= 1e-7, found


@pytest.mark.parametrize("seed", [0.12 + 0.88j, 0.2 + 1j, 0.5 + 1j])
def test_sweep_roots_solves_per_root(seed):
    # one derivative solve per Newton iteration: 3, 5 and 6 solves from
    # these seeds at the default evans_tol 1e-7 and Newton tol 1e-8
    cfg = lee_stewart_config(1.2, 50.0, 50.0, 1.6)
    trace = sweep_roots(cfg, "q", [cfg.q], seed)
    assert trace.converged.tolist() == [True]
    assert abs(trace.roots[0] - LS_ROOT) <= 1e-7, trace.roots
    assert len(trace.solve_stats) <= 8, len(trace.solve_stats)


# Radii of the large-radius counts on LS(1.2, 50).  Its higher unstable
# modes sit close to the imaginary axis, 3.6 apart in Im lambda, so samples
# on the flat side can alias a whole phase turn into a small step; the
# phase test alone gave 8, 6 and 0 at radius 18.5, 20 and 22.
LARGE_RADII = (16.0, 18.5, 20.0, 22.0)


@pytest.fixture(scope="module")
def large_radius_counts(ls_waves):
    """Neutral counts of LS(1.2, 50) at LARGE_RADII, tol 1e-5, keyed by
    radius: four counts of 87 to 98 solves, 1.2 to 1.6 s together."""
    wave = ls_waves[1.2, 50.0]
    return {radius: count_unstable(wave, radius, tol=1e-5) for radius in LARGE_RADII}


@pytest.mark.parametrize("radius", LARGE_RADII[1:])
def test_no_aliasing_at_large_radius(large_radius_counts, radius):
    # five conjugate pairs lie inside radius 16 and none between 16 and 22
    assert large_radius_counts[radius].winding == 10


def test_windings_do_not_decrease_with_the_radius(large_radius_counts):
    # nested half-disks cannot hold fewer roots
    windings = [large_radius_counts[radius].winding for radius in LARGE_RADII]
    assert windings == sorted(windings), windings
