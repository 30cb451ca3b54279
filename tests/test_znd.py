import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lee_stewart_config, random_overdriven_config
from oracles import gas_state, gas_state_deriv
from zndevans import znd
from zndevans.errors import (
    ChapmanJouguetError,
    ConfigError,
    InvalidWaveError,
    QuadratureError,
)
from zndevans.znd import (
    GasWaveConfig,
    StateW,
    UpstreamState,
    build_wave,
    config_from_json,
    config_to_json,
    default_config,
    fluxes,
    nonreactive_config,
    profile_at,
    profile_deriv,
    sigma,
    sonic_heat_release,
    thermo,
    x_of_y,
)


def rh_residuals(wave, state):
    """Independent check of the three reaction-zone invariants."""
    cfg = wave.config
    rho, u, e, Y = state.rho, state.u, state.e, state.Y
    r1 = (rho * u + wave.m) / wave.m
    r2 = (u + cfg.Gamma * e / u - wave.rh_b) / abs(wave.rh_b)
    r3 = (0.5 * u * u + (cfg.Gamma + 1.0) * e + cfg.q * Y - wave.rh_c) / abs(wave.rh_c)
    return max(abs(r1), abs(r2), abs(r3))


class TestStateW:
    @pytest.mark.parametrize("rho, e", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_rejects_nonpositive_or_nan_density_and_energy(self, rho, e):
        with pytest.raises(InvalidWaveError, match="rho, e > 0"):
            StateW(rho, -1.0, e, 0.5)

    def test_replace_validates(self):
        st_ = StateW(1.0, -1.0, 2.0, 0.5)
        assert st_._replace(e=3.0) == StateW(1.0, -1.0, 3.0, 0.5)
        with pytest.raises(InvalidWaveError):
            st_._replace(rho=-1.0)

    def test_immutable(self):
        st_ = StateW(1.0, -1.0, 2.0, 0.5)
        with pytest.raises(AttributeError):
            st_.rho = 2.0
        with pytest.raises(AttributeError):
            st_.p = 2.0

    def test_as_vector(self):
        v = StateW(1.5, -1.0, 2.0, 0.25).as_vector()
        assert isinstance(v, np.ndarray) and v.dtype == float
        assert v.tolist() == [1.5, -1.0, 2.0, 0.25]

    def test_equality_and_hash_by_value(self):
        a, b = StateW(1.5, -1.0, 2.0, 0.25), StateW(1.5, -1.0, 2.0, 0.25)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != StateW(1.5, -1.0, 2.0, 0.5)

    @pytest.mark.parametrize("y", [0.0, -0.7, -12.0])
    def test_unpacks_into_its_constructor(self, wave, y):
        st_ = profile_at(wave, y)
        rho, u, e, Y = st_
        assert (rho, u, e, Y) == (st_.rho, st_.u, st_.e, st_.Y)
        assert StateW(*profile_at(wave, y)) == profile_at(wave, y)


class TestThermo:
    def test_direct_substitution(self):
        cfg = replace(default_config(), Gamma=0.4)
        st_ = StateW(1.0, -1.0, 1.0, 0.5)
        p, T, c_s, p_rho, p_e = thermo(st_, cfg)
        assert p == pytest.approx(0.4)
        assert p_rho == pytest.approx(0.4)
        assert p_e == pytest.approx(0.4)
        assert c_s == pytest.approx(math.sqrt(0.56))
        assert T == pytest.approx(1.0)

    def test_pressure_depends_on_rho_e_product(self):
        cfg = replace(default_config(), Gamma=0.4)
        p1 = thermo(StateW(2.0, 0.0, 0.5, 0.0), cfg)[0]
        assert p1 == pytest.approx(0.4)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_sound_speed_identity(self, rho, e, u, Gamma):
        # c_s^2 = p_rho + p * p_e / rho^2 for the ideal gas
        cfg = replace(default_config(), Gamma=Gamma)
        p, _, c_s, p_rho, p_e = thermo(StateW(rho, u, e, 0.0), cfg)
        assert c_s**2 == pytest.approx(p_rho + p * p_e / rho**2, rel=1e-12)


class TestFluxes:
    def test_quiescent_burned_gas(self):
        cfg = default_config()
        st_ = StateW(1.3, 0.0, 2.0, 0.0)
        p = thermo(st_, cfg)[0]
        F0, F1, R = fluxes(st_, cfg)
        assert np.allclose(F1, [0.0, p, 0.0, 0.0])
        assert np.all(R == 0.0)

    def test_source_structure(self, rng):
        cfg = default_config()
        for _ in range(10):
            st_ = StateW(rng.uniform(0.5, 5), rng.uniform(-3, 0), rng.uniform(1, 9),
                         rng.uniform(0, 1))
            _, _, R = fluxes(st_, cfg)
            assert R[0] == 0.0 and R[1] == 0.0
            assert R[2] == pytest.approx(-cfg.q * R[3], rel=1e-14)

    def test_nonreactive_euler_flux_oracle(self, rng):
        # independent textbook Euler flux at Y = 0
        cfg = default_config()
        for _ in range(10):
            rho, u, e = rng.uniform(0.5, 5), rng.uniform(-3, 3), rng.uniform(0.5, 9)
            p = cfg.Gamma * rho * e
            expected = np.array([rho * u, rho * u * u + p, (rho * (e + 0.5 * u * u) + p) * u])
            F1 = fluxes(StateW(rho, u, e, 0.0), cfg)[1]
            assert np.allclose(F1[:3], expected, rtol=1e-14)


class TestBuildWave:
    def test_rh_residual_oracle_random_configs(self, rng):
        for _ in range(5):
            cfg = random_overdriven_config(rng)
            wave = build_wave(cfg)
            ys = -np.logspace(-3, math.log10(40.0 / cfg.K), 100)
            worst = max(rh_residuals(wave, profile_at(wave, y)) for y in ys)
            assert worst < 1e-12

    def test_nonreactive_limit_constant_profile(self, shock):
        states = [profile_at(shock, y) for y in (-0.0, -1.0, -4.0)]
        for s in states[1:]:
            assert s.rho == states[0].rho
            assert s.u == states[0].u
            assert s.e == states[0].e

    def test_q_zero_branches_recover_both_roots(self):
        # with q = 0 the quadratic is Y-independent; its roots are the
        # upstream and Neumann velocities of the plain gas shock
        cfg = nonreactive_config()
        wave = build_wave(cfg)
        G, b = cfg.Gamma, wave.rh_b
        center = (G + 1.0) / (G + 2.0) * b
        disc = center**2 + 2.0 * G * (0.0 - wave.rh_c) / (G + 2.0)
        lo, hi = center - math.sqrt(disc), center + math.sqrt(disc)
        assert lo == pytest.approx(cfg.upstream.u, rel=1e-12)
        assert hi == pytest.approx(wave.neumann.u, rel=1e-12)

    def test_compression(self, wave):
        assert wave.neumann.rho > wave.config.upstream.rho
        assert wave.neumann.u > wave.config.upstream.u  # |u| drops behind the shock

    def test_cj_bisection_matches_analytic_qmax(self):
        base = default_config()
        q_analytic = sonic_heat_release(base)

        def overdriven(q):
            try:
                build_wave(replace(base, q=q))
                return True
            except ChapmanJouguetError:
                return False

        lo, hi = 0.1, 20.0
        assert overdriven(lo) and not overdriven(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if overdriven(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - q_analytic) < 1e-8 + 1e-9 * q_analytic

    def test_discriminant_crossing_monotone(self):
        base = default_config()
        qs = np.linspace(0.5, 9.5, 12)
        discs = []
        for q in qs:
            wave = build_wave(replace(base, q=q))
            discs.append(wave.discriminant_min)
        assert np.all(np.diff(discs) < 0.0)

    def test_config_validation(self):
        base = default_config()
        with pytest.raises(ConfigError):
            replace(base, Gamma=-0.1)
        with pytest.raises(ConfigError):
            replace(base, Y0=1.5)
        with pytest.raises(ConfigError):
            replace(base, upstream=UpstreamState(rho=1.0, u=0.5, e=1.0))

    @pytest.mark.parametrize("name, change", [
        ("Y0", {"Y0": "x"}),
        ("q", {"q": "x"}),
        ("EA", {"EA": None}),
        ("upstream.u", {"upstream": UpstreamState(1.0, "x", 1.0)}),
        ("K", {"K": True}),  # bool is an int in Python
    ])
    def test_non_numeric_field_is_a_config_error(self, name, change):
        with pytest.raises(ConfigError, match=name):
            replace(default_config(), **change)

    def test_infinite_upstream_speed_is_a_config_error(self):
        # -inf once passed as negative and built a wave with a NaN discriminant
        with pytest.raises(ConfigError, match="upstream.u"):
            replace(default_config(), upstream=UpstreamState(1.0, -math.inf, 1.0))

    @pytest.mark.parametrize("change", [
        {"upstream": UpstreamState(1.0, -1e200, 1.0)},  # u ** 2 overflows
        {"Gamma": 1e300, "upstream": UpstreamState(1.0, -3.0, 1e10)},  # NaN discriminant
        {"upstream": UpstreamState(1.0, -3.0, 1e308)},  # infinite discriminant
        {"upstream": UpstreamState(1e308, -3.0, 1.0)},  # infinite mass flux
    ], ids=["u-1e200", "Gamma-1e300", "e-1e308", "rho-1e308"])
    def test_overflowing_invariants_are_an_invalid_wave(self, change):
        with pytest.raises(InvalidWaveError, match="overflow"):
            build_wave(replace(default_config(), **change))

    def test_sonic_heat_release_refuses_overflowing_invariants(self):
        # u ** 2 overflows
        cfg = replace(default_config(), upstream=UpstreamState(1.0, -1e200, 1.0))
        with pytest.raises(InvalidWaveError, match="overflow"):
            sonic_heat_release(cfg)

    def test_subsonic_upstream_rejected(self):
        cfg = default_config()
        c_plus = math.sqrt(cfg.Gamma * (cfg.Gamma + 1.0) * cfg.upstream.e)
        subsonic = replace(cfg, q=0.1, upstream=replace(cfg.upstream, u=-0.5 * c_plus))
        with pytest.raises(InvalidWaveError, match="upstream flow must be supersonic"):
            build_wave(subsonic)

    @pytest.mark.parametrize("name", ["q", "EA"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_heat_release_and_activation_energy_finite_nonnegative(self, name, value):
        with pytest.raises(ConfigError, match=name):
            replace(default_config(), **{name: value})


def profile_waves(random_waves):
    ls = [build_wave(lee_stewart_config(1.2, 50.0, 50.0, f)) for f in (1.2, 1.6, 2.0)]
    return random_waves + ls


def test_profile_state_is_a_checked_StateW(wave, shock, random_waves):
    # profile_at skips StateW's check; the state it returns must be the one
    # the checked constructor builds from the same numbers
    for w in [wave, shock] + profile_waves(random_waves):
        for y in [0.0, -math.inf] + (-np.geomspace(1e-6, w.M_y, 200)).tolist():
            st_ = profile_at(w, y)
            assert type(st_) is StateW
            assert StateW(*st_) == st_


@pytest.mark.parametrize("fn", [profile_at, profile_deriv])
@pytest.mark.parametrize("y", [math.nan, math.inf, 1.0])
def test_profile_outside_its_domain_named(wave, fn, y):
    with pytest.raises(ValueError, match=rf"y <= 0, got {y!r}"):
        fn(wave, y)


@pytest.mark.parametrize("y", [math.nan, [0.0, math.nan], math.inf, 1.0],
                         ids=["nan", "array-nan", "inf", "positive"])
def test_sigma_outside_its_domain_named(wave, y):
    with pytest.raises(ValueError, match=r"y <= 0, got"):
        sigma(wave, y)


def test_profile_at_minus_infinity_is_burned(wave):
    assert profile_at(wave, -math.inf) == wave.burned
    assert profile_deriv(wave, -math.inf) == (0.0, 0.0, 0.0, 0.0)


def test_profile_coldest_at_an_end_state(random_waves):
    # the coldest profile temperature is min(T_N, T_b): e = u (b - u) / Gamma
    # is concave in u and u is monotone in Y, so no interior Y is colder
    for wave in profile_waves(random_waves):
        cfg = wave.config
        T_end = min(wave.neumann.e, wave.burned.e)
        for Y in np.linspace(0.0, cfg.Y0, 1000):
            T = gas_state(cfg, wave.m, wave.rh_b, wave.rh_c, Y)[2]
            assert T >= T_end


class TestProfile:
    def test_anchor_equals_neumann(self, wave):
        st0 = profile_at(wave, 0.0)
        assert st0.rho == wave.neumann.rho
        assert st0.u == wave.neumann.u
        assert st0.e == wave.neumann.e
        assert st0.Y == wave.neumann.Y

    def test_reactant_exponential(self):
        cfg = replace(default_config(), K=1.0)
        wave = build_wave(cfg)
        st_ = profile_at(wave, -math.log(2.0))
        assert st_.Y == pytest.approx(0.5, rel=1e-14)

    def test_deep_tail_matches_burned(self, wave):
        st_ = profile_at(wave, -40.0 / wave.config.K)
        b = wave.burned
        for got, want in ((st_.rho, b.rho), (st_.u, b.u), (st_.e, b.e)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert st_.Y <= 1e-12

    def test_positive_y_rejected(self, wave):
        with pytest.raises(ValueError):
            profile_at(wave, 0.5)

    def test_momentum_invariant_constant(self, wave):
        # -m*u + p is one of the integrated conservation laws
        vals = []
        for y in np.linspace(-9.0, 0.0, 50):
            st_ = profile_at(wave, y)
            p = thermo(st_, wave.config)[0]
            vals.append(-wave.m * st_.u + p)
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-10 * abs(vals[0])

    def test_branch_continuity_monotone(self, wave):
        us = [profile_at(wave, y).u for y in np.linspace(-12.0, 0.0, 200)]
        assert np.all(np.diff(us) > 0.0)  # u rises monotonically toward the shock

    def test_profile_deriv_matches_finite_differences(self, wave):
        for y in (-0.3, -2.0, -6.0):
            h = 1e-5
            fd = (profile_at(wave, y + h).as_vector() - profile_at(wave, y - h).as_vector()) / (2 * h)
            an = profile_deriv(wave, y)
            # FD differences of the ~O(1) state floor out near 1e-10 absolute
            assert np.allclose(an, fd, rtol=1e-5, atol=1e-10)


@pytest.mark.parametrize(
    "cfg",
    [default_config(), nonreactive_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6)],
    ids=["default", "nonreactive", "LS(1.6,50)"],
)
def test_profile_equals_term_by_term_branch(cfg):
    # profile_at and profile_deriv read per-wave constants; they must give the
    # root and its derivative formed from the config bit for bit
    wave = build_wave(cfg)
    args = (cfg, wave.m, wave.rh_b, wave.rh_c)
    assert wave.neumann == (*gas_state(*args, cfg.Y0), cfg.Y0)
    assert wave.burned == (*gas_state(*args, 0.0), 0.0)
    for y in np.linspace(-wave.M_y, 0.0, 50).tolist():
        Ybar = math.exp(cfg.K * y) * cfg.Y0
        assert profile_at(wave, y) == (*gas_state(*args, Ybar), Ybar)
        assert profile_deriv(wave, y) == gas_state_deriv(wave, Ybar)


class TestXofY:
    def test_anchor(self, wave):
        assert x_of_y(wave, [0.0]) == pytest.approx([0.0])

    def test_constant_coefficient_exact(self, shock):
        s = sigma(shock, 0.0)
        ys = np.array([0.0, -1.0, -2.5, -7.0])
        xs = x_of_y(shock, ys)
        assert np.allclose(xs, s * ys, rtol=1e-10)

    def test_strictly_decreasing(self, wave):
        ys = -np.linspace(0.0, 9.0, 40)
        xs = x_of_y(wave, ys)
        assert np.all(np.diff(xs) < 0.0)

    def test_empty_grid(self, wave):
        xs = x_of_y(wave, [])
        assert xs.shape == (0,) and xs.dtype == float

    def test_bad_grid_rejected(self, wave):
        with pytest.raises(ValueError):
            x_of_y(wave, [0.0, 1.0])
        with pytest.raises(ValueError):
            x_of_y(wave, [-2.0, -1.0])

    @pytest.mark.parametrize("y", [math.nan, -math.inf, math.inf])
    def test_nonfinite_y_named(self, wave, y):
        # x diverges as y -> -inf; NaN once ran the quadrature to its panel
        # limit before failing
        with pytest.raises(ValueError, match=r"finite y <= 0, got y_grid="):
            x_of_y(wave, [0.0, y])

    @pytest.mark.parametrize("EA", [10.0, 20.0, 40.0])
    def test_matches_adaptive_quadrature(self, EA):
        quad = pytest.importorskip("scipy.integrate").quad
        wave = build_wave(replace(default_config(), EA=EA))
        ys = np.array([0.0, -0.01, -0.5, -2.0, -wave.M_y])
        integrand = lambda s: wave.m / znd.reaction_psi(profile_at(wave, s), wave.config)
        ref = [quad(integrand, 0.0, y, epsabs=0.0, epsrel=1e-12, limit=200)[0] for y in ys]
        assert np.allclose(x_of_y(wave, ys), ref, rtol=1e-11, atol=0.0)

    def test_unsettled_quadrature_raises(self, wave, monkeypatch):
        monkeypatch.setattr(znd, "sigma", lambda wave, y: np.full(np.shape(y), np.nan))
        with pytest.raises(QuadratureError):
            x_of_y(wave, [0.0, -1.0])


class TestConfigIO:
    def test_round_trip(self):
        cfg = default_config()
        again = config_from_json(config_to_json(cfg))
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_missing_field_message(self):
        raw = json.loads(config_to_json(default_config()))
        del raw["EA"]
        with pytest.raises(ConfigError, match="EA"):
            config_from_json(json.dumps(raw))

    def test_missing_upstream(self):
        with pytest.raises(ConfigError, match="upstream"):
            config_from_json('{"Gamma": 0.2}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            config_from_json("{not json")

    def test_ignores_tol_key(self):
        # no computation reads a tolerance from the wave file
        raw = json.loads(config_to_json(default_config()))
        raw["tol"] = 1e-5
        assert config_from_json(json.dumps(raw)) == default_config()

    def test_written_config_has_no_tol(self):
        assert "tol" not in json.loads(config_to_json(default_config()))

    @pytest.mark.parametrize("key, value", [
        ("eps_Y", 1e-5), ("Cv", 1.0), ("Cv", 1), ("Cv", 2.0), ("Ti_low", 2.0), ("Ti_high", 4.0),
    ], ids=["eps_Y", "Cv", "Cv-int", "Cv-2", "Ti_low", "Ti_high"])
    def test_loads_a_config_with_a_stale_key(self, key, value):
        # configs once carried the truncation fraction eps_Y, which each solve
        # now picks from tol, and a specific heat Cv and an ignition window,
        # which enter no number; such files still load
        raw = json.loads(config_to_json(default_config()))
        raw[key] = value
        cfg = config_from_json(json.dumps(raw))
        assert cfg == default_config()
        assert key not in json.loads(config_to_json(cfg))
