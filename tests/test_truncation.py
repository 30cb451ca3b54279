"""The depth that :func:`zndevans.spectral.make_frame` picks from ``tol``
keeps the truncation error of D within tol / 2.

For each wave, lambda and tol the neutral D at the rule's depth M is
compared with D_ref at depth ln(1e13)/K, both integrated at tol 1e-12.  The
neutral adjoint system is linear, so D - D_ref is the pairing with the jump
of delta = zeta(-M) - Z_ref(-M) carried from -M to 0: the gap at -M between
the rule's start and the reference solution.  Z_ref(-M) is integrated at
1e-12 over the reference's extra tail [-ln(1e13)/K, -M] only, and delta,
scaled to unit size, is carried at 1e-7, which gives D - D_ref to about 1e-7
of itself rather than to 1e-12 of D.  That takes about 3 s for the 24
(wave, lambda) cases, where full solves at 1e-12 take about 11 s for the
first 18; ``test_shortcut_matches_full_solves`` checks the two ways agree.

Solves started at the fixed depth M_y, where Y = 1e-5, fail this test
on five of the cases: LS(1.02, 50) at 0.1+30i and tol 1e-8 is off by about
110 tol.  The fitted fifth-order start, with its one shrink of eps, failed
the near-CJ waves LS(1.003, 50) and LS(1.001, 50) by up to 7.7 and 594 tol.

Lee-Stewart may pair at a shallower depth than the rule's, where its own
truncation estimate allows; the same comparison holds it to tol / 2 there.
"""

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from conftest import lee_stewart_config
from zndevans import evans
from zndevans.numerics import integrate_adaptive
from zndevans.spectral import make_frame
from zndevans.znd import build_wave, default_config

REF_DEPTH = math.log(1e13)  # K M of the reference
REF_TOL = 1e-12
CARRY_TOL = 1e-7  # tolerance for carrying delta, and D_ref, to y = 0

CONFIGS = {
    "default": default_config,
    "EA=20": lambda: replace(default_config(), EA=20.0),
    "LS(1.6,50)": lambda: lee_stewart_config(1.2, 50.0, 50.0, 1.6),
    "LS(1.02,50)": lambda: lee_stewart_config(1.2, 50.0, 50.0, 1.02),
    # near CJ, where eps* = disc_min / a, the sonic branch point of the
    # start's series, is 3.2e-3 and 1.1e-3
    "LS(1.003,50)": lambda: lee_stewart_config(1.2, 50.0, 50.0, 1.003),
    "LS(1.001,50)": lambda: lee_stewart_config(1.2, 50.0, 50.0, 1.001),
    # high activation: small rho1, so the sqrt(tol) cap sets the depth
    "E=86.1": lambda: lee_stewart_config(1.146, 33.5, 86.1, 1.088),
    "E=51.5": lambda: lee_stewart_config(1.107, 17.0, 51.5, 1.417),
}
LAMBDAS = (1.0 + 1.0j, 0.5 + 5.0j, 0.1 + 30.0j)


@cache
def wave_named(name):
    return build_wave(CONFIGS[name]())


def tols_for(name):
    if name in ("LS(1.003,50)", "LS(1.001,50)"):
        return (1e-5, 1e-6)
    return (1e-5, 1e-8, 1e-10) if name == "LS(1.02,50)" else (1e-5, 1e-8)


def differences(wave, lam, tols, start=make_frame):
    """D_ref and {tol: D(M) - D_ref} for each tol, started from the frame
    ``start(wave, lam, tol)``, by default the rule's: its zeta at its depth M."""
    frame = make_frame(wave, lam, REF_TOL, REF_DEPTH / wave.config.K)
    field = evans._field(wave, lam, frame.g_minus)
    y = -frame.M
    z = frame.zeta
    diffs = {}
    starts = {tol: start(wave, lam, tol) for tol in tols}
    for tol, begin in sorted(starts.items(), key=lambda item: -item[1].M):  # the deepest first
        M = begin.M
        if -M != y:
            z, _ = integrate_adaptive(field, (y, -M), z, REF_TOL, REF_TOL)
            y = -M
        delta = begin.zeta - z
        size = np.linalg.norm(delta)
        carried, _ = integrate_adaptive(field, (-M, 0.0), delta / size, CARRY_TOL, CARRY_TOL)
        diffs[tol] = size * complex(carried @ frame.jump)
    z, _ = integrate_adaptive(field, (y, 0.0), z, CARRY_TOL, CARRY_TOL)
    return complex(z @ frame.jump), diffs


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_truncation_error_within_half_tol(name, lam):
    D_ref, diffs = differences(wave_named(name), lam, tols_for(name))
    for tol, diff in diffs.items():
        assert abs(diff) <= 0.5 * tol * abs(D_ref), (tol, abs(diff) / abs(D_ref) / tol)


def test_shortcut_matches_full_solves():
    wave, lam, tol = wave_named("LS(1.02,50)"), 1.0 + 1.0j, 1e-5
    D_ref, diffs = differences(wave, lam, [tol])
    full_ref = evans.evaluate(wave, lam, M=REF_DEPTH / wave.config.K, tol=REF_TOL).D
    full = evans.evaluate(wave, lam, tol=REF_TOL,
                          M=make_frame(wave, lam, tol).M).D
    assert abs(D_ref - full_ref) <= 1e-6 * abs(full_ref)
    assert abs(diffs[tol] - (full - full_ref)) <= 1e-3 * abs(diffs[tol])


def lee_stewart_frame(wave, lam, tol):
    """The start Lee-Stewart pairs with at ``tol``: the series at its depth,
    as make_frame builds it for that depth given explicitly."""
    return make_frame(wave, lam, tol, evans.evaluate(wave, lam, method="lee_stewart", tol=tol).M)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_lee_stewart_depth_within_half_tol(name, lam):
    # where Lee-Stewart's estimate accepts the far depth, as where it
    # continues to make_frame's
    D_ref, diffs = differences(wave_named(name), lam, tols_for(name), lee_stewart_frame)
    for tol, diff in diffs.items():
        assert abs(diff) <= 0.5 * tol * abs(D_ref), (tol, abs(diff) / abs(D_ref) / tol)


def test_lee_stewart_continues_where_the_estimate_fails(monkeypatch):
    # on E=51.5 the far start's first neglected term, paired with the
    # solution there, exceeds 2 theta tol |D|: the solve goes on to M
    wave, lam, tol = wave_named("E=51.5"), 1.0 + 1.0j, 1e-5
    frame = make_frame(wave, lam, tol)
    legs = []
    integrate = evans._integrate

    def recorded(*args):
        z, stats = integrate(*args)
        legs.append(stats)
        return z, stats

    monkeypatch.setattr(evans, "_integrate", recorded)
    r = evans.evaluate(wave, lam, method="lee_stewart", tol=tol)
    assert frame.M_far < frame.M
    assert r.M == frame.M
    assert [leg.span for leg in legs] == [(0.0, -frame.M_far), (-frame.M_far, -frame.M)]
    steps = lambda s: (s.accepted_steps, s.rejected_steps, s.rhs_evaluations)
    assert steps(r.stats) == tuple(map(sum, zip(*map(steps, legs))))
    assert r.stats.span == (0.0, -frame.M)


@pytest.mark.parametrize("name", ["LS(1.6,50)", "E=51.5"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_lee_stewart_depth_of_conjugate(name, lam):
    # the estimate decides alike for conj(lam): the same depth and steps
    wave = wave_named(name)
    r = evans.evaluate(wave, lam, method="lee_stewart")
    m = evans.evaluate(wave, lam.conjugate(), method="lee_stewart")
    steps = lambda s: (s.accepted_steps, s.rejected_steps, s.rhs_evaluations)
    assert m.M == r.M
    assert steps(m.stats) == steps(r.stats)
