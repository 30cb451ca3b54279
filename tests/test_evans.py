import cmath
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import lee_stewart_config
from oracles import apply_A0
from zndevans import evans, spectral
from zndevans.errors import (
    EvansOverflowError,
    MisselectedModeError,
    NonFiniteStateError,
    NumericalDomainError,
    StepSizeUnderflowError,
)
from zndevans.evans import METHODS, duality_check, evaluate
from zndevans.numerics import Contour
from zndevans.spectral import jump_vector, stable_left_mode
from zndevans.stability import count_unstable
from zndevans.znd import (
    Y_AT_M_Y,
    build_wave,
    config_from_json,
    config_to_json,
    default_config,
    nonreactive_config,
    profile_at,
    profile_deriv,
)


class TestConstantCoefficient:
    """Nonreactive shock: the profile is constant, so every method has a
    closed form against which the integrations can be checked exactly."""

    def closed_form(self, shock, lam):
        ell, _ = stable_left_mode(shock, lam)
        return complex(ell @ jump_vector(shock, lam))

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j, 3.0 - 1.0j])
    def test_neutral(self, shock, lam):
        ref = self.closed_form(shock, lam)
        r = evaluate(shock, lam, method="neutral", tol=1e-9)
        assert abs(r.D - ref) < 1e-7 * abs(ref)

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j])
    def test_erpenbeck_reduces_to_pure_jump(self, shock, lam):
        # constant profile kills the quadrature term entirely
        ref = self.closed_form(shock, lam)
        r = evaluate(shock, lam, method="erpenbeck", tol=1e-9)
        assert abs(r.D - ref) < 1e-6 * abs(ref)

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j])
    def test_lee_stewart_with_kappa(self, shock, lam):
        ref = self.closed_form(shock, lam)
        r = evaluate(shock, lam, method="lee_stewart", tol=1e-9)
        assert abs(r.kappa_to_neutral * r.D - ref) < 1e-6 * abs(ref)


class TestMethodRelations:
    def test_agreement_with_scalar_factors(self, wave, rng):
        for _ in range(6):
            lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-3.0, 3.0))
            rn = evaluate(wave, lam, method="neutral", tol=1e-7)
            re_ = evaluate(wave, lam, method="erpenbeck", tol=1e-7)
            rl = evaluate(wave, lam, method="lee_stewart", tol=1e-7)
            assert abs(re_.D - rn.D) < 1e-3 * abs(rn.D)
            assert abs(rl.kappa_to_neutral * rl.D - rn.D) < 1e-3 * abs(rn.D)

    def test_unfactored_needs_more_mesh(self, wave):
        for lam in (2.0 + 0j, 1.0 + 3.0j):
            rn = evaluate(wave, lam, method="neutral", tol=1e-6)
            re_ = evaluate(wave, lam, method="erpenbeck", tol=1e-6)
            rl = evaluate(wave, lam, method="lee_stewart", tol=1e-6)
            assert re_.stats.mesh_points > rn.stats.mesh_points
            assert rl.stats.mesh_points > rn.stats.mesh_points

    def test_unfactored_overflow_guard(self, wave):
        # at the fixed depth M_y the unfactored exponent at lambda = 75 is
        # about -1204, beyond the guard's 690.  At the depth make_frame picks
        # for tol = 1e-5 no real lambda lets the guard fire while neutral
        # reliably succeeds: neutral misselects its mode at some lambda from
        # about 102 on, and the guard fires only from about 147
        with pytest.raises(EvansOverflowError):
            evaluate(wave, 75.0 + 0j, method="erpenbeck", M=wave.M_y)
        with pytest.raises(EvansOverflowError):
            evaluate(wave, 75.0 + 0j, method="lee_stewart", M=wave.M_y)
        # the factored method needs no guard and returns a finite D at the
        # same frequency, but not an accurate one: at M_y and tol = 1e-5 it
        # is about 570 tol off (ROADMAP item 2; see
        # test_neutral_never_silently_wrong_at_lambda_75)
        r = evaluate(wave, 75.0 + 0j, method="neutral", M=wave.M_y)
        assert np.isfinite(r.D.real) and np.isfinite(r.D.imag)

    @pytest.mark.parametrize("method", ["erpenbeck", "lee_stewart"])
    def test_unfactored_in_range_at_lambda_75(self, wave, method):
        # at the depth make_frame picks for tol = 1e-5 the unfactored
        # exponent at lambda = 75 is about -292, inside double range.  D is
        # about 3e-6 of the jump there, and neutral at tol = 1e-5 raises
        # MisselectedModeError at this depth, so the reference is neutral at
        # 1e-10
        tol = 1e-5
        ref = evaluate(wave, 75.0 + 0j, method="neutral", tol=1e-10).D
        r = evaluate(wave, 75.0 + 0j, method=method, tol=tol)
        assert abs(r.kappa_to_neutral * r.D - ref) < 300 * tol * abs(ref)

    @pytest.mark.parametrize("method", ["erpenbeck", "lee_stewart"])
    def test_unfactored_in_range_at_lambda_40(self, wave, method):
        # at the depth make_frame picks for tol = 1e-5 the unfactored
        # exponent at lambda = 40 is -150, inside double range
        tol = 1e-5
        rn = evaluate(wave, 40.0 + 0j, method="neutral", tol=tol)
        r = evaluate(wave, 40.0 + 0j, method=method, tol=tol)
        assert abs(r.kappa_to_neutral * r.D - rn.D) < 300 * tol * abs(rn.D)


    def test_erpenbeck_solves_up_to_the_double_range_guard(self, wave):
        # at the depth make_frame picks for tol = 1e-5 the unfactored
        # exponent at lambda = 141 and 145 is about -651 and -674, inside
        # double range; the adjoint runs at unit scale with the prefactor
        # carried analytically, so it solves there (58 and 60 tol off,
        # against 52 at lambda = 130).  At 148 the exponent is -692 and the
        # one guard fires
        tol = 1e-5
        for lam in (141.0 + 0j, 145.0 + 0j):
            r = evaluate(wave, lam, method="erpenbeck", tol=tol)
            ref = evaluate(wave, lam, method="lee_stewart", M=r.M, tol=1e-11)
            D_ref = ref.kappa_to_neutral * ref.D
            assert abs(r.D - D_ref) < 300 * tol * abs(D_ref)
        with pytest.raises(EvansOverflowError, match="out of double range") as info:
            evaluate(wave, 148.0 + 0j, method="erpenbeck", tol=tol)
        assert info.value.lam == 148.0 + 0j

    @pytest.fixture(scope="class")
    def D_75(self, wave):
        """Lee-Stewart's D at real lambda = 75 on the default wave at tol
        1e-11, in the neutral normalization: -8.1754e-3."""
        ref = evaluate(wave, 75.0 + 0j, method="lee_stewart", tol=1e-11)
        return ref.kappa_to_neutral * ref.D

    @pytest.mark.parametrize("tol", [
        1e-5,
        *(pytest.param(tol, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: the factored adjoint collapses by "
            "exp(Re(lambda) I) and neutral D is silently off (611, 5861, 1637 and "
            "877 tol at 1e-6 to 1e-9)")) for tol in (1e-6, 1e-7, 1e-8, 1e-9)),
    ])
    def test_neutral_never_silently_wrong_at_lambda_75(self, wave, D_75, tol):
        # neutral D at real lambda = 75, default depth: within 300 tol of
        # Lee-Stewart at 1e-11, or refused.  At 1e-5 the collapse guard
        # refuses it
        assert abs(D_75 + 8.1754e-3) < 1e-7
        try:
            r = evaluate(wave, 75.0 + 0j, method="neutral", tol=tol)
        except MisselectedModeError:
            return
        assert abs(r.D - D_75) < 300 * tol * abs(D_75)


class TestTruncationError:
    """D at the default depth for tol = 1e-11 against the neutral value D_ref
    at depth ln(1e12)/K, all at tol = 1e-11.  Starting from the corrected
    burned-end mode where Y = eps leaves an error of order eps^13; starting
    at eps = 1e-5 from the left mode ell alone left 2.5e-9 to 7.2e-9 at
    1+1i, 3.9e-8 at 4+10i and 1.0e-7 at 0.1+30i, and Erpenbeck without its
    quadrature tail is off by 4e-6 on LS(1.2, 50)."""

    tol = 1e-11

    def reference(self, wave, lam):
        M = math.log(1e12) / wave.config.K
        return evaluate(wave, lam, method="neutral", M=M, tol=self.tol).D

    @pytest.mark.parametrize(
        "cfg",
        [default_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6),
         lee_stewart_config(1.2, 50.0, 50.0, 1.2)],
        ids=["default", "LS(1.6,50)", "LS(1.2,50)"],
    )
    def test_every_method(self, cfg):
        wave = build_wave(cfg)
        ref = self.reference(wave, 1.0 + 1.0j)
        for method in METHODS:
            r = evaluate(wave, 1.0 + 1.0j, method=method, tol=self.tol)
            assert abs(r.kappa_to_neutral * r.D - ref) < 1e-9 * abs(ref), method

    @pytest.mark.parametrize("lam", [4.0 + 10.0j, 0.1 + 30.0j])
    def test_neutral_at_larger_lambda(self, wave, lam):
        ref = self.reference(wave, lam)
        assert abs(evaluate(wave, lam, method="neutral", tol=self.tol).D - ref) < 1e-8 * abs(ref)

    @pytest.mark.parametrize(
        "cfg", [default_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6)],
        ids=["default", "LS(1.6,50)"],
    )
    def test_erpenbeck_tail_within_half_tol(self, cfg):
        # Erpenbeck's D at the depth make_frame picks for tol = 1e-8,
        # integrated at 1e-12 so that only the truncation error is left,
        # against the neutral D at depth ln(1e13)/K.  The tail zeta . R(-M)
        # is exact for the start, so this is the start's error alone; with
        # the tail fitted to first order only, LS(1.6, 50) was off by 2.8 tol.
        wave = build_wave(cfg)
        lam, tol = 1.0 + 3.0j, 1e-8
        ref = evaluate(wave, lam, M=math.log(1e13) / wave.config.K, tol=1e-12).D
        M = evans.make_frame(wave, lam, tol).M
        D = evaluate(wave, lam, method="erpenbeck", M=M, tol=1e-12).D
        assert abs(D - ref) <= 0.5 * tol * abs(ref)

    @pytest.mark.parametrize("lam", [1.0 + 1.0j, 0.5 + 5.0j, 0.1 + 30.0j])
    @pytest.mark.parametrize(
        "cfg",
        [default_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6),
         lee_stewart_config(1.2, 50.0, 50.0, 1.02), lee_stewart_config(1.107, 17.0, 51.5, 1.417)],
        ids=["default", "LS(1.6,50)", "LS(1.02,50)", "E=51.5"],
    )
    def test_erpenbeck_equals_neutral_from_one_frame(self, cfg, lam):
        # From the same start at the same depth, Erpenbeck's quadrature of
        # d/dy (Z . R) telescopes to neutral's Z(0) . jump once its tail is
        # zeta . R(-M), so at tol = 1e-12 the two differ only by integration
        # error; measured at most 9.1e-11.  With the tail fitted to fifth
        # order they differed by up to 7.3e-7 (E=51.5 at 1+1i).  The E=86.1
        # wave of test_truncation.py is left out: there the two differ by
        # 6.9e-9, the integration error of the high-activation zone, not the
        # tail's
        wave = build_wave(cfg)
        M = evans.make_frame(wave, lam, 1e-5).M
        neutral = evaluate(wave, lam, method="neutral", M=M, tol=1e-12).D
        erpenbeck = evaluate(wave, lam, method="erpenbeck", M=M, tol=1e-12).D
        assert abs(erpenbeck - neutral) <= 1e-9 * abs(neutral)


class TestAnalyticStructure:
    def test_conjugate_symmetry(self, wave):
        for lam in (0.7 + 2.3j, 1.4 - 0.9j):
            a = evaluate(wave, lam, method="neutral", tol=1e-8).D
            b = evaluate(wave, np.conj(lam), method="neutral", tol=1e-8).D
            assert abs(np.conj(a) - b) < 1e-8 * abs(a)

    def test_m_robustness(self, wave):
        for lam in (1.0 + 1.0j, 0.5 - 2.0j):
            base = wave.M_y
            d1 = evaluate(wave, lam, method="neutral", M=base, tol=1e-10).D
            d2 = evaluate(wave, lam, method="neutral", M=base + 2.0, tol=1e-10).D
            assert abs(d1 - d2) < 1e-6 * abs(d1)

    def test_cauchy_riemann_residual(self, wave):
        h = 1e-3
        tol = 1e-9
        for lam0 in (1.0 + 1.0j, 2.0 - 1.5j):
            d = {}
            for tag, dz in (("px", h), ("mx", -h), ("py", 1j * h), ("my", -1j * h)):
                d[tag] = evaluate(wave, lam0 + dz, method="neutral", tol=tol).D
            dbar = ((d["px"] - d["mx"]) + 1j * (d["py"] - d["my"])) / (4.0 * h)
            dlam = ((d["px"] - d["mx"]) - 1j * (d["py"] - d["my"])) / (4.0 * h)
            d0 = evaluate(wave, lam0, method="neutral", tol=tol).D
            assert abs(dbar) < 1e-4 * (abs(dlam) + abs(d0))

    def test_domain_restrictions(self, wave):
        with pytest.raises(NumericalDomainError):
            evaluate(wave, -0.5 + 1.0j, method="neutral")
        with pytest.raises(NumericalDomainError):
            evaluate(wave, 0.0, method="neutral")


class TestDuality:
    def test_constant_coefficient_exact(self, shock):
        dev = duality_check(shock, 1.0 + 1.0j, tol=1e-12)
        assert dev < 1e-10

    def test_generic_wave(self, wave):
        dev = duality_check(wave, 1.0 + 1.0j, tol=1e-8)
        assert dev < 1e-5

    def test_deviation_tracks_tolerance(self, wave):
        loose = duality_check(wave, 0.8 + 0.5j, tol=1e-5)
        tight = duality_check(wave, 0.8 + 0.5j, tol=1e-8)
        assert tight < loose

    def test_solves_up_to_the_double_range_guard(self, wave):
        # at the fixed depth M_y the unfactored exponent at lambda = 42 is
        # about -675, inside double range: the adjoint leg runs at unit scale
        # and the deviation tracks tol (1.8e-8 at tol = 1e-8, as at 40).  At
        # 43 the exponent is -691 and the one guard fires
        assert duality_check(wave, 42.0 + 0j) < 1e-5
        with pytest.raises(EvansOverflowError, match="out of double range") as info:
            duality_check(wave, 43.0 + 0j)
        assert info.value.lam == 43.0 + 0j
        # the check takes no method, so its advice is what it can change
        message = str(info.value)
        assert "at lambda=" in message and "lower Re(lambda) or M" in message
        assert "neutral method" not in message

    def test_needs_no_start_series(self):
        # on LS(1.000001, 50) the start's series in Y converges only below
        # 1.05e-6, deeper than M_y; the check starts from ell at M_y and
        # never builds a start (the deviation read 2.5e-9)
        wave = build_wave(lee_stewart_config(1.2, 50.0, 50.0, 1.000001))
        assert wave.adjoint_series.radius < Y_AT_M_Y
        assert duality_check(wave, 1.0 + 1.0j) < 1e-7

    def test_needs_positive_real_part(self, wave):
        with pytest.raises(NumericalDomainError) as info:
            duality_check(wave, 1.0j)
        assert info.value.lam == 1j
        assert "at lambda=" in str(info.value)

    def test_vanishing_products_name_lambda(self, wave, monkeypatch):
        # a zero jump row makes every forward-leg product vanish
        monkeypatch.setattr(evans, "jump_vector", lambda w, lam: np.zeros(4, complex))
        with pytest.raises(NumericalDomainError, match="duality products vanish") as info:
            duality_check(wave, 1.0 + 1.0j)
        assert info.value.lam == 1.0 + 1.0j
        assert "at lambda=" in str(info.value)


class TestResultRecord:
    def test_json_fields(self, wave):
        r = evaluate(wave, 1.0 + 1.0j, method="neutral")
        rec = r.to_json_dict()
        assert set(rec) == {
            "lambda", "D", "method", "M",
            "accepted_steps", "rejected_steps", "rhs_evaluations", "kappa_to_neutral",
        }
        assert rec["method"] == "neutral"
        assert rec["lambda"] == [1.0, 1.0]

    def test_unknown_method(self, wave):
        with pytest.raises(ValueError):
            evaluate(wave, 1.0, method="collocation")

    def test_stats_span(self, wave):
        lam = 1.0 + 0.5j
        r = evaluate(wave, lam, method="neutral")
        M = evans.make_frame(wave, lam, 1e-5).M
        assert r.stats.span == (-M, 0.0)
        assert r.M == M

    @pytest.mark.parametrize("Y0", [0.0, 1e-9, 1e-8])
    def test_depth_positive_when_Y0_at_or_below_eps_Y(self, Y0):
        # a legacy unburned fraction Y0 at or below 1e-5 loads as the same
        # wave at q = 5 Y0; depths are set in Y = exp(K y), so such a nearly
        # constant profile still leaves a positive depth to integrate over
        raw = json.loads(config_to_json(default_config()))
        raw["Y0"] = Y0
        wave = build_wave(config_from_json(json.dumps(raw)))
        assert wave.config.q == 5.0 * Y0
        assert wave.M_y > 0.0
        r = evaluate(wave, 1.0 + 1.0j)
        assert r.M > 0.0
        assert np.isfinite(r.D.real) and np.isfinite(r.D.imag)

    # D at 1+1i, tol = 1e-5, of (q, Y0) = (5, 0.5) while configs carried Y0:
    # the same wave as q = 2.5 with Y rescaled by 1/Y0, a map the pairing
    # Z(0) . jump is invariant under; all three ran at the same depth
    @pytest.mark.parametrize("method, D_Y0", [
        ("neutral", -50.07534028476297 - 53.454914330075894j),
        ("erpenbeck", -50.07539464029905 - 53.45479583419672j),
        ("lee_stewart", 968.1959765556959 + 2147.7103809441082j),
    ])
    def test_legacy_reactant_fraction_gives_the_same_D(self, method, D_Y0):
        raw = json.loads(config_to_json(default_config()))
        raw["Y0"] = 0.5
        wave = build_wave(config_from_json(json.dumps(raw)))
        assert wave.config.q == 2.5
        tol = 1e-5
        D = evaluate(wave, 1.0 + 1.0j, method=method, tol=tol).D
        assert abs(D - D_Y0) <= 0.1 * tol * abs(D_Y0)

    def test_depth_beyond_the_series_radius_raises(self):
        # on LS(1.02, 50) the start's series in Y converges only below
        # eps* = 0.021; from K M = 2 (eps = 0.14) its sum is 2e9 where ell
        # is 85, and D came out 6e7 times itself off.  The fitted start it
        # replaced was 9% off there
        wave = build_wave(lee_stewart_config(1.2, 50.0, 50.0, 1.02))
        K, radius = wave.config.K, wave.adjoint_series.radius
        with pytest.raises(ValueError, match="beyond the radius"):
            evaluate(wave, 1.0 + 1.0j, M=2.0 / K)
        M = math.log(2.0 / radius) / K  # eps*/2, where the depth rule stops
        assert cmath.isfinite(evaluate(wave, 1.0 + 1.0j, M=M).D)

    @pytest.mark.parametrize("tol", [0.0, -1e-5, math.nan, math.inf])
    def test_invalid_tol_raises_before_the_depth(self, wave, monkeypatch, tol):
        # the integrator's own message, before make_frame takes sqrt(tol)
        def no_depth(*args):
            raise AssertionError("computed a depth for an invalid tol")

        monkeypatch.setattr(evans, "make_frame", no_depth)
        for method in METHODS:
            with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
                evaluate(wave, 1.0 + 1.0j, method=method, tol=tol)


@pytest.mark.parametrize("method", METHODS)
def test_one_profile_evaluation_per_rhs_call(wave, monkeypatch, method):
    # the benchmark's tracer counts profile evaluations by wrapping evans'
    # bindings of profile_at and profile_deriv, and reads one of each per RHS
    # call (profile_deriv only for Erpenbeck)
    calls = {"profile_at": 0, "profile_deriv": 0}
    for name in calls:
        def counted(*args, _fn=getattr(evans, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(evans, name, counted)
    n = evaluate(wave, 1.0 + 1.0j, method=method).stats.rhs_evaluations
    assert n > 0
    assert calls == {"profile_at": n, "profile_deriv": n if method == "erpenbeck" else 0}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("explicit_M", [False, True], ids=["depth-from-tol", "explicit-M"])
def test_one_frame_per_solve(wave, monkeypatch, method, explicit_M):
    # make_frame builds the one adjoint kernel of the solve's left-mode
    # check and evaluates the profile once, at -M, for Erpenbeck's tail:
    # the start comes from the wave's Taylor coefficients, not from profile
    # states, and the depth rule never rebuilds it.  That tail is the start
    # paired with the reaction source at -M, so no method takes the
    # profile's derivative in the frame; spectral has no binding of
    # profile_deriv, and one set here would count any call made through it
    originals = {"rhs_kernel": spectral.rhs_kernel, "profile_at": profile_at,
                 "profile_deriv": profile_deriv}
    calls = dict.fromkeys(originals, 0)
    for name, fn in originals.items():
        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(spectral, name, counted, raising=False)
    evaluate(wave, 1.0 + 1.0j, method=method, M=wave.M_y if explicit_M else None)
    assert calls == {"rhs_kernel": 1, "profile_at": 1, "profile_deriv": 0}


def test_depth_rule_never_rebuilds_the_start(wave, monkeypatch):
    # at 2+300i the first neglected term sets the depth, deeper than
    # eps0 = (0.1 tol)^(1/5), where the fifth-order start was built twice;
    # the series start is built once, for every depth, and the frame
    # evaluates the profile once, at the depth it picked
    calls = []
    monkeypatch.setattr(spectral, "profile_at", lambda *args: calls.append(args[1]) or profile_at(*args))
    tol = 1e-5
    frame = spectral.make_frame(wave, 2.0 + 300.0j, tol)
    first = math.log(1.0 / (0.1 * tol) ** 0.2) / wave.config.K
    assert calls == [-frame.M]
    assert frame.M > first


def oracle_erpenbeck_field(wave, lam):
    """Erpenbeck's field with the quadrature row built from apply_A0."""
    kernel = spectral.rhs_kernel(wave, lam)

    def rhs(y, z):
        state = profile_at(wave, y)
        dz = kernel(state, z[:4])
        d0, d1, d2, d3 = apply_A0(state, profile_deriv(wave, y))
        dz.append(lam * (z[0] * d0 + z[1] * d1 + z[2] * d2 + z[3] * d3))
        return dz

    return rhs


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "cfg",
    [default_config(), nonreactive_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6)],
    ids=["default", "nonreactive", "LS(1.6,50)"],
)
def test_erpenbeck_field_equals_apply_A0_oracle(cfg, monkeypatch, rng):
    # the field forms lam z . A0 (profile)' inline; it must give what
    # apply_A0 followed by the dot gives, bit for bit
    wave = build_wave(cfg)
    fields = []

    def capture(field, *args, **kwargs):
        fields.append(field)
        raise _Captured

    monkeypatch.setattr(evans, "integrate_adaptive", capture)
    for lam in (1.0 + 1.0j, 0.1 + 30.0j):
        with pytest.raises(_Captured):
            evaluate(wave, lam, method="erpenbeck")
        field = fields.pop()
        assert field.dimension == 5
        oracle = oracle_erpenbeck_field(wave, lam)
        for y in np.linspace(-wave.M_y, 0.0, 50).tolist():
            z = (rng.standard_normal(5) + 1j * rng.standard_normal(5)).tolist()
            assert field.eval(y, z) == oracle(y, z)


@pytest.fixture(params=[StepSizeUnderflowError(-1.25, 3e-14), NonFiniteStateError(-1.25)],
                ids=["underflow", "nonfinite"])
def integrator_fails(request, monkeypatch):
    """Every integration in evans raises the given error, which knows no lambda."""
    def fail(*args, **kwargs):
        raise request.param

    monkeypatch.setattr(evans, "integrate_adaptive", fail)
    return request.param


def direct_solver(method):
    """``evans``' private solver for ``method``, called without ``evaluate``."""
    def call(wave, lam):
        frame = evans.make_frame(wave, lam, 1e-5, wave.M_y)
        return evans._SOLVERS[method](wave, lam, frame, 1e-5)
    return call


class TestIntegratorErrorsNameLambda:
    def check(self, exc, raised, lam):
        assert type(exc) is type(raised)
        assert exc.lam == lam
        assert exc.x == raised.x
        assert getattr(exc, "h", None) == getattr(raised, "h", None)
        assert f"at lambda={lam!r}" in str(exc)
        assert exc.__cause__ is raised

    @pytest.mark.parametrize("method", METHODS)
    def test_evaluate(self, wave, integrator_fails, method):
        with pytest.raises(NumericalDomainError) as info:
            evaluate(wave, 1 + 2j, method=method)
        self.check(info.value, integrator_fails, 1 + 2j)

    # the solver ids keep the names of the former evans_<method> entry points
    @pytest.mark.parametrize("fn", [*(pytest.param(direct_solver(m), id=f"evans_{m}")
                                      for m in METHODS),
                                    duality_check])
    def test_direct_call(self, wave, integrator_fails, fn):
        # the re-raise sits under every integration, not in evaluate alone
        with pytest.raises(NumericalDomainError) as info:
            fn(wave, 1 + 2j)
        self.check(info.value, integrator_fails, 1 + 2j)

    def test_count_unstable(self, wave, integrator_fails):
        with pytest.raises(NumericalDomainError) as info:
            count_unstable(wave, 2.0)
        # the contour's first node is the first one evaluated; it lies below
        # the real axis, so the solve is made at its mirror image
        first = complex(Contour.semicircle(2.0, 2e-4).nodes[0])
        self.check(info.value, integrator_fails, first.conjugate())

    def test_without_lambda(self):
        assert StepSizeUnderflowError(1.0, 1e-20).lam is None
        assert "lambda" not in str(NonFiniteStateError(1.0))
        assert MisselectedModeError("off").lam is None
        assert "lambda" not in str(EvansOverflowError("off"))


class TestGuardErrorsNameLambda:
    def check(self, exc, lam):
        assert exc.lam == lam
        assert f"at lambda={lam!r}" in str(exc)

    @pytest.mark.parametrize("method", ["erpenbeck", "lee_stewart"])
    def test_overflow(self, wave, method):
        with pytest.raises(EvansOverflowError) as info:
            evaluate(wave, 75.0 + 0j, method=method, M=wave.M_y)
        self.check(info.value, 75.0 + 0j)

    def test_misselected_mode(self):
        # at EA = 40 the factored adjoint at 4+10i falls by about 2e-13
        wave = build_wave(replace(default_config(), EA=40.0))
        with pytest.raises(MisselectedModeError) as info:
            evaluate(wave, 4.0 + 10.0j)
        self.check(info.value, 4.0 + 10.0j)

    @pytest.mark.parametrize("lam", [0j, -1.0 + 0.5j], ids=["zero", "left-half-plane"])
    def test_left_mode_domain(self, wave, lam):
        with pytest.raises(NumericalDomainError) as info:
            evaluate(wave, lam)
        self.check(info.value, lam)

    def test_frame_residual(self, wave, monkeypatch):
        exact = spectral.stable_left_mode

        def perturbed(wave_, lam):
            ell, g = exact(wave_, lam)
            ell = ell.copy()
            ell[3] *= 1.0 + 1e-6
            return ell, g

        monkeypatch.setattr(spectral, "stable_left_mode", perturbed)
        with pytest.raises(NumericalDomainError, match="left-eigenpair residual") as info:
            evaluate(wave, 1.0 + 1.0j)
        self.check(info.value, 1.0 + 1.0j)


class TestCollapseUnderTheFloor:
    """Between the burned end and the shock the neutral method's solution
    changes by about exp(Re(lambda) I), I = wave.acoustic_lag."""

    @pytest.mark.parametrize(("f", "lam"), [(None, 1.0 + 1.0j), (None, 75.0), (1.02, 1.0 + 1.0j),
                                            (1.02, 5.0), (1.02, 3.0 + 10.0j), (1.2, 30.0 + 5.0j)])
    def test_lag_predicts_the_change(self, f, lam):
        # |z(0)| / |zeta| from K M = 30 at tol 1e-11 against exp(Re(lambda) I):
        # 0.088 to 2.7 times it over these cases
        wave = build_wave(default_config() if f is None else lee_stewart_config(1.2, 50.0, 50.0, f))
        lam = complex(lam)
        frame = spectral.make_frame(wave, lam, 1e-11, 30.0 / wave.config.K)
        z, _ = evans._integrate(lam, evans._field(wave, lam, frame.g_minus), (-frame.M, 0.0),
                                frame.zeta, 1e-11, 1e-11)
        ratio = np.linalg.norm(z) / np.linalg.norm(frame.zeta) / math.exp(lam.real * wave.acoustic_lag)
        assert 0.05 < ratio < 20.0

    @pytest.mark.parametrize("KM", [None, 4.0, 10.0], ids=["depth-from-tol", "KM=4", "KM=10"])
    def test_raises_at_every_depth(self, KM):
        # at EA = 40 and 4+10i that factor is exp(4 I) = 2.4e-13, so at tol
        # 1e-5 z(0) is noise of 0.07 to 1.8 tol at any depth; the growth check
        # alone let D through at the default depth (K M = 3.5) and at K M = 10
        wave = build_wave(replace(default_config(), EA=40.0))
        M = None if KM is None else KM / wave.config.K
        with pytest.raises(MisselectedModeError, match="under the absolute tolerance 1e-05"):
            evaluate(wave, 4.0 + 10.0j, M=M)


@pytest.fixture(scope="module", params=["default", "EA=20"])
def default_or_steep_wave(request):
    cfg = default_config()
    return build_wave(cfg if request.param == "default" else replace(cfg, EA=20.0))


class TestConjugateSymmetry:
    """Every method integrates a system with real coefficients from
    real-symmetric boundary data, so D(conj lambda) = conj D(lambda) with the
    same step sequence; ``count_unstable`` solves one of each pair on that
    ground."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("lam", [1.0 + 1.0j, 4.0 + 10.0j, 0.1 + 30.0j])
    def test_mirror_solve(self, default_or_steep_wave, method, lam):
        r = evaluate(default_or_steep_wave, lam, method=method)
        m = evaluate(default_or_steep_wave, lam.conjugate(), method=method)
        steps = lambda s: (s.accepted_steps, s.rejected_steps, s.rhs_evaluations)
        assert m.M == r.M
        assert steps(m.stats) == steps(r.stats)
        assert abs(m.D - r.D.conjugate()) <= 1e-13 * abs(r.D)
        assert abs(m.kappa_to_neutral - r.kappa_to_neutral.conjugate()) <= (
            1e-13 * abs(r.kappa_to_neutral)
        )


@pytest.mark.parametrize("method", METHODS)
def test_real_lambda_converted_once(wave, method):
    # evaluate converts lambda before any solver sees it, so a real lambda
    # takes the very same solve as its complex twin
    r = evaluate(wave, 2.0, method=method)
    c = evaluate(wave, 2.0 + 0j, method=method)
    assert type(r.lam) is complex
    assert (repr(r.D), repr(r.kappa_to_neutral)) == (repr(c.D), repr(c.kappa_to_neutral))
    steps = lambda s: (s.accepted_steps, s.rejected_steps, s.rhs_evaluations)
    assert steps(r.stats) == steps(c.stats)


class TestAdjointIsAnnihilator:
    """Independent oracle for the whole formulation: the adjoint solution at
    the boundary must be parallel to the cross product of the forward
    bounded subspace, i.e. it annihilates every bounded solution and the
    ratio det(Z1,Z2,Z3,v) / (Z_adj . v) is v-independent."""

    def build_pieces(self, wave, lam, tol=1e-10):
        from zndevans.numerics import OdeField, integrate_adaptive
        from zndevans.evans import _field
        from oracles import limit_G_minus
        from zndevans.spectral import jacobians, make_frame
        from zndevans.znd import profile_at, reaction_psi

        M = wave.M_y
        frame = make_frame(wave, lam, tol, M)
        G_minus = limit_G_minus(wave, lam)
        gs, vecs = np.linalg.eig(G_minus)
        unstable = [i for i in range(4) if gs[i].real > 0]
        assert len(unstable) == 3

        def fwd_rhs(y, z):
            # assembled from the Jacobian matrices, independently of the
            # closed-form kernel behind _field
            state = profile_at(wave, y)
            A0, A1, C = jacobians(state, wave.config)
            sig = wave.m / reaction_psi(state, wave.config)
            return sig * ((-lam * A0 + C) @ np.linalg.solve(A1.astype(complex), z))

        fwd = OdeField(dimension=4, eval=fwd_rhs)
        columns = []
        for i in unstable:
            z, _ = integrate_adaptive(fwd, (-M, 0.0), vecs[:, i], tol, tol)
            columns.append(z / np.linalg.norm(z))
        adj = _field(wave, lam, frame.g_minus)
        z_adj, _ = integrate_adaptive(adj, (-M, 0.0), frame.ell, tol, tol)
        return np.array(columns).T, z_adj

    def test_annihilation_and_wedge_ratio(self, wave, rng):
        lam = 0.9 + 1.3j
        cols, z_adj = self.build_pieces(wave, lam)
        # annihilation of each bounded solution
        for j in range(3):
            pairing = abs(z_adj @ cols[:, j]) / (np.linalg.norm(z_adj))
            assert pairing < 1e-5
        # v-independent proportionality between determinant and pairing
        ratios = []
        for _ in range(5):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            det = np.linalg.det(np.column_stack([cols, v]))
            ratios.append(det / (z_adj @ v))
        ratios = np.array(ratios)
        spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
        assert spread < 1e-5
