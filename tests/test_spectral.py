import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lee_stewart_config, random_overdriven_config
from oracles import (
    BranchAmbiguityError,
    adjoint_series_mp,
    apply_A0,
    finite_difference_check,
    kato_continuation,
    limit_G_minus,
    limit_G_plus,
    series_start_mp,
    stable_left_eig,
)
from test_truncation import CONFIGS as TRUNCATION_CONFIGS
from test_truncation import LAMBDAS as TRUNCATION_LAMBDAS
from test_truncation import tols_for, wave_named
from zndevans import spectral
from zndevans.errors import NumericalDomainError
from zndevans.evans import METHODS, _field, duality_check, evaluate
from zndevans.numerics import integrate_adaptive
from zndevans.spectral import (
    adjoint_series,
    coefficient_G,
    jacobians,
    jump_vector,
    left_mode_residual,
    make_frame,
    rhs_kernel,
    stable_left_mode,
)
from zndevans.stability import count_unstable
from zndevans.znd import (
    StateW,
    build_wave,
    default_config,
    fluxes,
    nonreactive_config,
    profile_at,
    reaction_psi,
    sonic_heat_release,
    thermo,
)


def random_state(rng) -> StateW:
    return StateW(
        rng.uniform(0.3, 6.0),
        rng.uniform(-4.0, 4.0),
        rng.uniform(0.3, 9.0),
        rng.uniform(0.0, 1.0),
    )


class TestJacobians:
    def test_mass_row_of_A0(self, rng):
        cfg = default_config()
        for _ in range(5):
            A0, _, _ = jacobians(random_state(rng), cfg)
            assert np.array_equal(A0[0], [1.0, 0.0, 0.0, 0.0])

    def test_source_jacobian_structure_at_Y0(self):
        cfg = default_config()
        st_ = StateW(2.0, -1.0, 5.0, 0.0)
        _, _, C = jacobians(st_, cfg)
        # R ~ Y: at Y = 0 only the Y columns survive
        assert np.all(C[:, :3] == 0.0)
        psi = reaction_psi(st_, cfg)
        assert C[2, 3] == pytest.approx(cfg.q * cfg.K * psi, rel=1e-14)
        assert C[3, 3] == pytest.approx(-cfg.K * psi, rel=1e-14)

    def test_finite_difference_oracle(self, rng):
        cfg = default_config()
        for _ in range(20):
            finite_difference_check(random_state(rng), cfg)


class TestClosedFormKernel:
    """rhs_kernel and apply_A0 against the matrices of jacobians with
    LAPACK solves, along whole profiles of six waves and at their burned
    states."""

    def test_matches_matrix_assembly(self, rng):
        cfgs = [default_config(), replace(default_config(), EA=20.0), nonreactive_config()]
        cfgs += [random_overdriven_config(rng) for _ in range(3)]
        shift = 0.3 - 0.7j
        worst = 0.0
        for cfg in cfgs:
            wave = build_wave(cfg)
            # the burned state (Y = 0 exactly) is where make_frame checks ell
            states = [profile_at(wave, y) for y in np.linspace(-wave.M_y, 0.0, 41)]
            for st_ in states + [wave.burned]:
                A0, A1, C = jacobians(st_, cfg)
                sig = wave.m / reaction_psi(st_, cfg)
                for lam in (0.1 + 30j, 40.0 + 0j, 1.0 + 1.0j):
                    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    adj = -sig * (np.linalg.solve(A1.T.astype(complex), (-lam * A0.T + C.T) @ z) - shift * z)
                    fwd = sig * ((-lam * A0 + C) @ np.linalg.solve(A1.astype(complex), z))
                    got_adj = np.array(rhs_kernel(wave, lam, shift)(st_, z.tolist()))
                    got_fwd = np.array(rhs_kernel(wave, lam, adjoint=False)(st_, z.tolist()))
                    got_A0 = np.array(apply_A0(st_, z.tolist()))
                    worst = max(
                        worst,
                        np.linalg.norm(got_adj - adj) / np.linalg.norm(adj),
                        np.linalg.norm(got_fwd - fwd) / np.linalg.norm(fwd),
                        np.linalg.norm(got_A0 - A0 @ z) / np.linalg.norm(A0 @ z),
                    )
        assert worst < 1e-12


class TestDerivativeForms:
    """rhs_kernel's and make_frame's derivative forms against centred
    differences in lambda, and their plain parts against the plain forms."""

    def test_kernel(self, rng):
        # the operator is affine in lambda, so the difference is exact up to
        # rounding; the neutral shift g_minus = -alpha lambda is too
        waves = [build_wave(default_config()), build_wave(lee_stewart_config(1.2, 50.0, 50.0, 1.6))]
        alpha = 0.7
        for wave in waves:
            for st_ in [profile_at(wave, y) for y in np.linspace(-wave.M_y, 0.0, 9)] + [wave.burned]:
                for lam in (1.0 + 1.0j, 0.1 + 30j):
                    z, dz = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))).tolist()
                    h = 1e-3 * abs(lam)
                    for adjoint, dshift in ((True, -alpha), (True, 0.0), (False, 0.0)):
                        shift = dshift * lam
                        plain = rhs_kernel(wave, lam, shift, adjoint)(st_, z)
                        both = rhs_kernel(wave, lam, shift, adjoint, dshift)(st_, z, dz)
                        assert both[:4] == plain
                        up, down = (rhs_kernel(wave, lam + d, dshift * (lam + d), adjoint)(st_, z)
                                    for d in (h, -h))
                        want = np.add(rhs_kernel(wave, lam, shift, adjoint)(st_, dz),
                                      np.subtract(up, down) / (2.0 * h))
                        assert np.linalg.norm(np.subtract(both[4:], want)) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam", [1.0 + 1.0j, 4.0 + 10.0j, 0.1 + 30.0j])
    def test_frame(self, wave, lam):
        plain = make_frame(wave, lam, 1e-5)
        frame = make_frame(wave, lam, 1e-5, derivative=True)
        assert plain.derivative is None
        for name in ("ell", "g_minus", "jump", "M", "zeta", "tail", "w", "M_far"):
            assert np.array_equal(getattr(frame, name), getattr(plain, name)), name
        # at the fixed depth M, where the derivative is taken
        h = 1e-4 * abs(lam)
        up, down = (make_frame(wave, lam + d, 1e-5, plain.M) for d in (h, -h))
        d = frame.derivative
        assert d.g_minus == pytest.approx((up.g_minus - down.g_minus) / (2.0 * h), rel=1e-9)
        for got, name in ((d.zeta, "zeta"), (d.w, "w"), (d.tail, "tail")):
            want = (np.asarray(getattr(up, name)) - np.asarray(getattr(down, name))) / (2.0 * h)
            want = want[:len(d.w)] if name == "w" else want
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), name


class TestCoefficientMatrix:
    def test_lambda_zero_keeps_only_source_rows(self, wave):
        G = coefficient_G(wave, 0.0, -60.0 / wave.config.K)
        assert np.max(np.abs(G[:2])) < 1e-18  # mass and momentum rows vanish
        assert np.max(np.abs(G[2:])) > 0.0

    def test_deep_profile_matches_limit(self, wave):
        lam = 0.8 - 2.5j
        G_lim = limit_G_minus(wave, lam)
        G_deep = coefficient_G(wave, lam, -40.0 / wave.config.K)
        assert np.max(np.abs(G_lim - G_deep)) < 1e-10

    def test_reconstruction_identity(self, wave, rng):
        for _ in range(5):
            lam = complex(rng.uniform(0, 4), rng.uniform(-6, 6))
            y = -rng.uniform(0.0, 8.0)
            st_ = profile_at(wave, y)
            A0, A1, C = jacobians(st_, wave.config)
            G = coefficient_G(wave, lam, y)
            lhs = G @ A1
            rhs = -lam * A0 + C
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestLimitMatrices:
    def test_block_triangular_exact_zero(self, wave):
        G = limit_G_minus(wave, 1.0 + 3.0j)
        assert np.all(G[3:, :3] == 0.0)

    def test_matches_forward_kernel(self, rng):
        # column j of G- is the forward kernel (a cofactor solve, no LAPACK)
        # applied to e_j at the burned state, divided by sigma-
        cfgs = [default_config(), replace(default_config(), EA=20.0)]
        cfgs += [random_overdriven_config(rng) for _ in range(3)]
        for cfg in cfgs:
            wave = build_wave(cfg)
            sigma = wave.m / reaction_psi(wave.burned, cfg)
            lams = [0.1 + 30j] + [complex(rng.uniform(0.01, 8), rng.uniform(-40, 40)) for _ in range(9)]
            for lam in lams:
                want = np.column_stack([
                    rhs_kernel(wave, lam, adjoint=False)(wave.burned, e.tolist())
                    for e in np.eye(4, dtype=complex)
                ]) / sigma
                got = limit_G_minus(wave, lam)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_reactant_block_unstable(self, wave, rng):
        for _ in range(10):
            lam = complex(rng.uniform(0.05, 6), rng.uniform(-40, 40))
            G = limit_G_minus(wave, lam)
            evs = np.linalg.eigvals(G[3:, 3:])
            assert np.all(evs.real > 0.0)

    def test_subspace_counts(self, rng):
        # unstable rank: full (4) ahead of the shock, 3 behind, on Re > 0
        for _ in range(5):
            wave = build_wave(random_overdriven_config(rng))
            for _ in range(20):
                lam = complex(rng.uniform(0.02, 8.0), rng.uniform(-60.0, 60.0))
                n_minus = int(np.sum(np.linalg.eigvals(limit_G_minus(wave, lam)).real > 0))
                n_plus = int(np.sum(np.linalg.eigvals(limit_G_plus(wave, lam)).real > 0))
                assert n_minus == 3
                assert n_plus == 4


def series_sum(wave, lam, g, eps):
    """sum_j eps^j A_j over the stored coefficients of the adjoint series."""
    ser = wave.adjoint_series
    return sum(eps ** j * (lam * P + Q + g * S) for j, (P, Q, S) in enumerate(zip(ser.P, ser.Q, ser.S)))


class TestAdjointSeries:
    """The Taylor coefficients of the factored adjoint field in eps = Y
    that every start is built from."""

    waves = pytest.mark.parametrize(
        "cfg",
        [default_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6),
         lee_stewart_config(1.2, 50.0, 50.0, 1.02)],
        ids=["default", "LS(1.6,50)", "LS(1.02,50)"],
    )

    @waves
    def test_sum_matches_kernel(self, cfg):
        # the 14 stored terms against rhs_kernel's matrix at profile_at
        # states with eps <= eps*/5, where the neglected terms are about
        # 5^-14 of the first: measured at most 4.0e-11 of the matrix
        wave = build_wave(cfg)
        radius = wave.adjoint_series.radius
        for lam in (1.0 + 1.0j, 0.1 + 30.0j, 2.0 + 300.0j):
            _, g = stable_left_mode(wave, lam)
            kernel = rhs_kernel(wave, lam, g)
            for eps in (1e-6, 1e-3 * radius, 0.05 * radius, min(1.0, 0.2 * radius)):
                state = profile_at(wave, math.log(eps) / wave.config.K)
                want = np.array([kernel(state, e) for e in np.eye(4).tolist()]).T
                got = series_sum(wave, lam, g, eps)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (lam, eps)

    @waves
    def test_coefficients_match_cauchy_oracle(self, cfg):
        # P_j, Q_j and sigma_j from power-series arithmetic against 40-digit
        # Cauchy sums of the matrix formula, each relative to the
        # coefficient's own size; measured at most 1.2e-14
        pytest.importorskip("mpmath")
        wave = build_wave(cfg)
        ser = wave.adjoint_series
        for j, (P, Q, sigma) in enumerate(adjoint_series_mp(wave)):
            for got, want in ((ser.P[j], P.tolist()), (ser.Q[j], Q.tolist()),
                              (ser.S[j], sigma * np.eye(4))):
                want = np.array(want, dtype=complex).real
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), j

    def test_burned_end_structure_exact(self, wave):
        # Y = 0 at eps = 0: A_0's reactant column is (0, 0, 0, a33) and its
        # reactant row (0, 0, a32, a33), as make_frame's cofactor solve needs
        ser = wave.adjoint_series
        for M in (ser.P[0], ser.Q[0], ser.S[0]):
            assert np.all(M[:3, 3] == 0.0) and np.all(M[3, :2] == 0.0)

    def test_radius_is_the_sonic_branch_point(self, wave):
        cfg = wave.config
        a = 2.0 * cfg.Gamma * cfg.q / (cfg.Gamma + 2.0)
        assert wave.adjoint_series.radius == pytest.approx(wave.discriminant_min / a, rel=1e-14)

    @pytest.mark.parametrize("cfg", [replace(default_config(), q=0.0)], ids=["q=0"])
    def test_degenerate_waves(self, cfg):
        # no heat release: disc does not depend on eps and eps* is inf, and
        # ell[3] = 0 keeps the passive reactant out of the start
        wave = build_wave(cfg)
        ser = wave.adjoint_series
        assert ser.radius == math.inf
        assert np.all(np.isfinite(ser.P)) and np.all(np.isfinite(ser.Q)) and np.all(np.isfinite(ser.S))
        frame = make_frame(wave, 1.0 + 1.0j, 1e-5)
        assert frame.M == pytest.approx(math.log(1.0 / 1e-6 ** 0.2) / cfg.K, rel=1e-14)
        assert np.array_equal(frame.zeta, frame.ell) and frame.tail == 0.0
        assert cmath.isfinite(evaluate(wave, 1.0 + 1.0j).D)

    def test_build_wave_leaves_it_unbuilt(self):
        wave = build_wave(default_config())
        wave.burned, wave.neumann, wave.jump_terms
        assert "adjoint_series" not in vars(wave)

    def test_one_build_per_wave_per_count(self, monkeypatch):
        calls = []

        def counted(wave):
            calls.append(wave)
            return adjoint_series(wave)

        monkeypatch.setattr(spectral, "adjoint_series", counted)
        wave = build_wave(default_config())
        report = count_unstable(wave, 2.0)
        assert report.n_evaluations > 1
        assert calls == [wave]


class TestBurnedStart:
    """The series start and Erpenbeck's tail against the 40-digit mpmath
    oracle of the same coefficients and recursion, on the contour's flat
    side (1e-4 +- 30i), at 1+1i, 50 and 2+300i, at the depths the rule
    picks for tol = 1e-5 and 1e-10 and at the fixed depth M_y, where
    Y = 1e-5.  The start takes no profile state, so nothing rounds its
    input but the wave's constants: it agrees with the oracle to 6.8e-14,
    at 2+300i on the default wave, where the fifth-order start, fitted to
    five profile states, moved by 2-3e-12 under one-ulp changes of those
    states."""

    lams = (1e-4 + 30j, 1e-4 - 30j, 1 + 1j, 50.0 + 0j, 2 + 300j)

    @pytest.mark.parametrize(
        "cfg",
        [default_config(), nonreactive_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6),
         lee_stewart_config(1.2, 50.0, 50.0, 1.2)],
        ids=["default", "nonreactive", "LS(1.6,50)", "LS(1.2,50)"],
    )
    def test_matches_solve_oracle(self, cfg):
        pytest.importorskip("mpmath")
        wave = build_wave(cfg)
        for lam in self.lams:
            for M in [make_frame(wave, lam, tol).M for tol in (1e-5, 1e-10)] + [wave.M_y]:
                frame = make_frame(wave, lam, 1e-5, M)
                zeta, tail = frame.zeta, frame.tail
                ref_zeta, ref_tail = series_start_mp(wave, lam, M)
                assert np.linalg.norm(zeta - ref_zeta) <= 1e-13 * np.linalg.norm(ref_zeta)
                assert abs(tail - ref_tail) <= 1e-13 * abs(ref_tail)
                # the correction alone: it carries the rounding of zeta's
                # entries, up to 1.2e-11 of it at M_y, where it is 1e-5 of ell
                w, ref_w = zeta - frame.ell, ref_zeta - frame.ell
                if cfg.q > 0.0:
                    assert np.linalg.norm(w - ref_w) <= 1e-10 * np.linalg.norm(ref_w)
                else:  # constant gas state, and ell[3] = 0 keeps the passive
                    assert not np.any(w)  # reactant out: no correction at all

    @pytest.mark.parametrize("lam", [1 + 1j, 0.5 + 5j])
    @pytest.mark.parametrize(
        "cfg", [default_config(), lee_stewart_config(1.2, 50.0, 50.0, 1.6)],
        ids=["default", "LS(1.6,50)"],
    )
    def test_error_is_of_order_13(self, cfg, lam):
        # the start's error |zeta(-M) - Z_ref(-M)| / |ell| is O(eps^13), so
        # it falls about 2^13 = 8192 times when K M rises by ln 2 (eps
        # halves); asked to fall at least 2^12 times, between K M = 1.5 and
        # 1.8 and ln 2 less (measured 6100-8600).  Z_ref is the neutral
        # solution from depth ln(1e13)/K, integrated at 1e-13
        wave = build_wave(cfg)
        K = wave.config.K
        ref = make_frame(wave, lam, 1e-12, math.log(1e13) / K)
        field = _field(wave, lam, ref.g_minus)
        y, z = -ref.M, ref.zeta
        errors = []
        for KM in (1.8, 1.5, 1.8 - math.log(2.0), 1.5 - math.log(2.0)):  # the deepest first
            z, _ = integrate_adaptive(field, (y, -KM / K), z, 1e-13, 1e-13)
            y = -KM / K
            zeta = make_frame(wave, lam, 1e-5, KM / K).zeta
            errors.append(np.linalg.norm(zeta - z) / np.linalg.norm(ref.ell))
        assert errors[2] >= 4096.0 * errors[0] and errors[3] >= 4096.0 * errors[1], errors

    @pytest.mark.parametrize(
        "cfg", [nonreactive_config(), replace(default_config(), q=1e-3)],
        ids=["nonreactive", "q=1e-3"],
    )
    def test_depth_rule_refuses_a_start_at_the_shock(self, cfg):
        # eps0 = (0.1 tol)^(1/5) reaches 1 at tol = 10; on these waves
        # eps*/2 >= 1 does not cap it, so the rule would start at Y >= 1
        # (M = 0 at tol 10, a positive y at 20) and refuses instead
        wave = build_wave(cfg)
        assert wave.adjoint_series.radius >= 2.0
        for tol in (10.0, 20.0):
            with pytest.raises(ValueError, match=f"tol = {tol:g} is too loose"):
                make_frame(wave, 1.0 + 1.0j, tol)
        assert make_frame(wave, 1.0 + 1.0j, 9.0).M > 0.0

    def test_depth_rule_keeps_the_radius_cap_at_loose_tol(self, wave):
        # on the default wave eps*/2 < 1 sets the depth for every loose tol
        M = make_frame(wave, 1.0 + 1.0j, 20.0).M
        assert M == pytest.approx(math.log(2.0 / wave.adjoint_series.radius) / wave.config.K)
        assert M == pytest.approx(0.379, abs=5e-4)

    def test_reactant_column_exact(self, wave):
        # the burned-end adjoint kernel (Y = 0) maps e_3 onto e_3 exactly,
        # as the series' A_0 does
        for lam in self.lams:
            g = make_frame(wave, lam, 1e-5).g_minus
            out = rhs_kernel(wave, lam, g)(wave.burned, [0.0, 0.0, 0.0, 1.0])
            assert out[:3] == [0.0, 0.0, 0.0] and out[3] != 0.0


class TestDepthRule:
    """make_frame's default depth over the cases of tests/test_truncation.py.

    The far depth is eps_far = min(eps_next, eps*/2), with eps_next =
    (theta tol |ell| / |w_13|)^(1/13).  Where eps_next sets it, the forward
    methods start at min(eps_far, max(eps0, rho eps_next)), eps0 = (theta
    tol)^(1/5) the cap of the fifth-order start; elsewhere at min(eps0,
    eps_far).  No start is deeper than min(eps0, eps_far)'s."""

    cases = [(name, lam, tol) for name in TRUNCATION_CONFIGS for lam in TRUNCATION_LAMBDAS
             for tol in tols_for(name)]

    def test_depth_between_far_and_capped(self):
        moved = kept = 0
        for name, lam, tol in self.cases:
            wave = wave_named(name)
            K = wave.config.K
            frame = make_frame(wave, lam, tol)
            eps0 = (spectral._DEPTH_THETA * tol) ** 0.2
            eps_next = (spectral._DEPTH_THETA * tol * math.hypot(*map(abs, frame.ell))
                        / math.hypot(*map(abs, frame.w[-1]))) ** (1.0 / 13.0)
            eps_far = min(eps_next, 0.5 * wave.adjoint_series.radius)
            capped = math.log(1.0 / min(eps0, eps_far)) / K
            case = (name, lam, tol)
            assert frame.M_far == math.log(1.0 / eps_far) / K, case
            assert frame.M_far <= frame.M <= capped, case
            if eps_next >= min(1.0, 0.5 * wave.adjoint_series.radius) \
                    or eps0 >= spectral._DEPTH_RHO * eps_next:
                assert frame.M == capped, case
                kept += 1
            else:
                assert frame.M < capped, case
                assert frame.M == pytest.approx(
                    math.log(1.0 / (spectral._DEPTH_RHO * eps_next)) / K, rel=1e-14), case
                moved += 1
            conj = make_frame(wave, lam.conjugate(), tol)
            assert (conj.M, conj.M_far) == (frame.M, frame.M_far), case
        assert moved and kept, (moved, kept)

    @pytest.mark.parametrize("name, omega_max", [("E=86.1", 3.7e4), ("E=51.5", 1.7e3)])
    def test_margin_covers_the_dual_weight(self, name, omega_max):
        # the start's error eps^13 w_13 . W(-M), relative to D, is rho^13
        # theta tol omega where eps_next sets the depth, with omega the
        # weight of Lee-Stewart's forward solution W along w_13 (the dual
        # weight of Estep 1995, Cao & Petzold 2004).  It peaks on these
        # high-activation waves at 1+1i (measured 3.6e4 and 1.6e3 at tol
        # 1e-5), and the margin keeps the error within tol / 20 there
        wave, lam, tol = wave_named(name), 1.0 + 1.0j, 1e-5
        frame = make_frame(wave, lam, tol)
        W, _ = integrate_adaptive(_field(wave, lam, adjoint=False), (0.0, -frame.M), frame.jump,
                                  1e-10, 1e-10)
        D = complex(frame.zeta @ W)
        w13 = frame.w[-1]
        omega = abs(complex(w13 @ W)) * np.linalg.norm(frame.ell) / (np.linalg.norm(w13) * abs(D))
        assert omega <= omega_max, omega
        assert spectral._DEPTH_THETA * omega * spectral._DEPTH_RHO ** 13 <= 1.0 / 20.0, omega


class TestStableLeftMode:
    def test_residual_on_grid(self, wave):
        res = [
            left_mode_residual(wave, complex(re, im))
            for re in (0.1, 1.0, 5.0, 10.0)
            for im in (-80.0, -3.0, 0.0, 7.0, 100.0)
        ]
        assert max(res) < 1e-10

    def test_eigensolver_oracle(self, wave, rng):
        for _ in range(20):
            lam = complex(rng.uniform(0.05, 8), rng.uniform(-50, 50))
            ell, g = stable_left_mode(wave, lam)
            g_num, ell_num, _ = stable_left_eig(wave, lam)
            assert abs(g - g_num) < 1e-10 * max(1.0, abs(g))
            ell_num = ell_num / ell_num[2]
            assert np.max(np.abs(ell - ell_num)) < 1e-10 * np.max(np.abs(ell))

    def test_g_minus_formula(self, wave):
        st_ = wave.burned
        c_s = thermo(st_, wave.config)[2]
        lam = 2.3 - 0.7j
        _, g = stable_left_mode(wave, lam)
        assert g == pytest.approx(-lam / (st_.u + c_s), rel=1e-14)
        assert g.real < 0.0

    def test_gas_part_independent_of_lambda(self, wave):
        e1, _ = stable_left_mode(wave, 0.5 + 1.0j)
        e2, _ = stable_left_mode(wave, 7.0 - 30.0j)
        assert np.allclose(e1[:3], e2[:3], rtol=0, atol=0)

    def test_reactant_component_scalar_formula(self, wave):
        # for a composition-independent equation of state the ell_Y system
        # collapses to q K psi / (lam rho c/(u+c) + K psi)
        cfg = wave.config
        st_ = wave.burned
        c_s = thermo(st_, cfg)[2]
        psi = reaction_psi(st_, cfg)
        for lam in (0.3 + 0j, 1.0 + 4.0j, 6.0 - 2.0j):
            ell, _ = stable_left_mode(wave, lam)
            denom = lam * st_.rho * c_s / (st_.u + c_s) + cfg.K * psi
            assert ell[3] == pytest.approx(cfg.q * cfg.K * psi / denom, rel=1e-12)

    def test_alpha_is_characteristic_speed(self, wave):
        # 1/alpha = u + c must be an eigenvalue of the convection matrix
        st_ = wave.burned
        A0, A1, _ = jacobians(st_, wave.config)
        conv = np.linalg.solve(A0[:3, :3], A1[:3, :3])
        speeds = np.sort(np.linalg.eigvals(conv).real)
        c_s = thermo(st_, wave.config)[2]
        assert abs(speeds[-1] - (st_.u + c_s)) < 1e-12 * (abs(st_.u) + c_s)

    def test_analyticity_cauchy_riemann(self, wave):
        # 4-point conjugate-derivative stencil on a disk in Re > 0
        h = 1e-4
        for lam0 in (1.0 + 0.5j, 2.0 - 3.0j, 4.0 + 8.0j):
            e_px, _ = stable_left_mode(wave, lam0 + h)
            e_mx, _ = stable_left_mode(wave, lam0 - h)
            e_py, _ = stable_left_mode(wave, lam0 + 1j * h)
            e_my, _ = stable_left_mode(wave, lam0 - 1j * h)
            dbar = ((e_px - e_mx) + 1j * (e_py - e_my)) / (4.0 * h)
            dlam = ((e_px - e_mx) - 1j * (e_py - e_my)) / (4.0 * h)
            assert np.max(np.abs(dbar)) < 1e-6 * (1.0 + np.max(np.abs(dlam)))

    def test_domain_restrictions(self, wave):
        with pytest.raises(NumericalDomainError):
            stable_left_mode(wave, 0.0)
        with pytest.raises(NumericalDomainError):
            stable_left_mode(wave, -1.0 + 0.5j)

    def test_make_frame_validates(self, wave):
        frame = make_frame(wave, 1.0 + 2.0j, 1e-5)
        assert frame.ell[2] == 1.0
        assert frame.g_minus.real < 0.0

    def test_make_frame_rejects_perturbed_mode(self, wave, monkeypatch):
        import zndevans.spectral as spectral

        exact = spectral.stable_left_mode

        def perturbed(wave_, lam):
            ell, g = exact(wave_, lam)
            ell = ell.copy()
            ell[3] *= 1.0 + 1e-6
            return ell, g

        monkeypatch.setattr(spectral, "stable_left_mode", perturbed)
        with pytest.raises(NumericalDomainError, match="left-eigenpair residual"):
            make_frame(wave, 1.0 + 1.0j, 1e-5)

    @pytest.mark.parametrize(
        "q_frac, lam", [(None, 1.0 + 1e6j), (1.0 - 1e-6, 1.0 + 1.0j)], ids=["large-lambda", "near-sonic"]
    )
    def test_make_frame_bound_scales_with_g_minus(self, wave, monkeypatch, q_frac, lam):
        # the residual is rounding on entries of size |g_minus|: an absolute
        # 1e-10 rejects the exact pair in both cases, while a 1e-6 error in
        # ell[1] still trips the scaled bound thousands of times over
        import zndevans.spectral as spectral

        if q_frac is not None:
            wave = build_wave(replace(wave.config, q=q_frac * sonic_heat_release(wave.config)))
        ell, g = stable_left_mode(wave, lam)
        r = rhs_kernel(wave, lam, g)(wave.burned, ell.tolist())
        assert spectral._pair_residual(wave, r, ell) > 1e-10
        frame = make_frame(wave, lam, 1e-5)
        assert np.array_equal(frame.ell, ell) and frame.g_minus == g

        exact = spectral.stable_left_mode

        def perturbed(wave_, lam_):
            ell_, g_ = exact(wave_, lam_)
            ell_ = ell_.copy()
            ell_[1] *= 1.0 + 1e-6
            return ell_, g_

        monkeypatch.setattr(spectral, "stable_left_mode", perturbed)
        with pytest.raises(NumericalDomainError, match="left-eigenpair residual"):
            make_frame(wave, lam, 1e-5)

    def test_kernel_residual_matches_matrix_residual(self, wave):
        # the residual make_frame checks, taken from the adjoint kernel, is
        # ||ell G_minus - g ell|| / ||ell|| with G_minus as a matrix
        from zndevans.spectral import _pair_residual

        for lam in (1.0 + 1.0j, 0.1 + 30j, 6.0 - 2.0j):
            ell, g = stable_left_mode(wave, lam)
            ell[3] *= 1.0 + 1e-6
            G = limit_G_minus(wave, lam)
            want = np.linalg.norm(ell @ G - g * ell) / np.linalg.norm(ell)
            assert want > 1e-9
            got = _pair_residual(wave, rhs_kernel(wave, lam, g)(wave.burned, ell.tolist()), ell)
            assert got == pytest.approx(want, rel=1e-6)


@pytest.fixture(scope="module")
def invariant_waves(random_waves, shock):
    """Random waves, the default wave at q = (1 - 10^-k) q_sonic for k = 1..7,
    and the nonreactive shock."""
    base = default_config()
    q_sonic = sonic_heat_release(base)
    near_sonic = [build_wave(replace(base, q=(1.0 - 10.0 ** -k) * q_sonic)) for k in range(1, 8)]
    return random_waves + near_sonic + [shock]


class TestSubsonicInvariant:
    """build_wave's discriminant check is the only guard of the subsonic
    branch; these are the consequences SteadyWave derives from it, which
    nothing else re-checks."""

    def test_profile_subsonic_and_compressive(self, invariant_waves):
        for wave in invariant_waves:
            ys = np.concatenate([[0.0], -np.geomspace(1e-4, wave.M_y, 40)])
            for st_ in [profile_at(wave, y) for y in ys] + [wave.burned]:
                assert st_.u < 0.0
                assert abs(st_.u) < thermo(st_, wave.config)[2]
            assert wave.neumann.u > wave.config.upstream.u

    @pytest.mark.parametrize("lam", [1e-15, 1e-15j, 1j, 1.0 + 1.0j, 50.0 + 300.0j])
    def test_left_mode_bounded(self, invariant_waves, lam):
        for wave in invariant_waves:
            ell, g = stable_left_mode(wave, lam)
            assert abs(ell[3]) <= wave.config.q
            if lam.real > 0.0:
                assert g.real < 0.0

    def test_tiny_lambda_at_steep_rate(self):
        # K psi- is about 3e-83 here and the resolvent about 1e-15, yet
        # ell[3] stays finite and bounded by q
        wave = build_wave(replace(default_config(), EA=2000.0))
        ell, g = stable_left_mode(wave, 1e-15)
        assert np.all(np.isfinite(ell)) and abs(ell[3]) <= wave.config.q
        assert g.real < 0.0


class TestJumpVector:
    def test_lambda_zero_is_neumann_source(self, wave):
        jump = jump_vector(wave, 0.0)
        R = fluxes(wave.neumann, wave.config)[2]
        assert np.allclose(jump, R, rtol=0, atol=1e-14)
        psi = reaction_psi(wave.neumann, wave.config)
        expected = np.array([0, 0, wave.config.q * wave.config.K * psi, -wave.config.K * psi])
        assert np.allclose(jump, expected, rtol=1e-14)

    def test_nonreactive_limit_pure_gas_jump(self, shock):
        lam = 1.5 - 2.0j
        jump = jump_vector(shock, lam)
        cfg = shock.config
        up = cfg.upstream
        F0p = fluxes(StateW(up.rho, up.u, up.e, 1.0), cfg)[0]
        F0m = fluxes(shock.neumann, cfg)[0]
        # no heat release: the source enters only the passive reactant's row
        source = np.array([0, 0, 0, -cfg.K * reaction_psi(shock.neumann, cfg)])
        assert np.allclose(jump, lam * (F0p - F0m) + source, rtol=1e-14)

    def test_mass_component_sign(self, wave):
        # [rho] = rho_ahead - rho_neumann < 0 for a compressive front
        jump = jump_vector(wave, 1.0)
        assert jump[0].real < 0.0

    @given(
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_in_lambda(self, l1, l2):
        wave = build_wave(default_config())
        lhs = jump_vector(wave, l1) + jump_vector(wave, l2) - jump_vector(wave, l1 + l2)
        R = fluxes(wave.neumann, wave.config)[2]
        assert np.allclose(lhs, R, rtol=1e-12, atol=1e-12)


class TestKato:
    def test_single_point_matches_closed_form(self, wave):
        lam = 1.2 + 0.4j
        out = kato_continuation(wave, [lam])
        ell, _ = stable_left_mode(wave, lam)
        assert np.allclose(out[0], ell, rtol=0, atol=1e-13)

    def test_ratio_constant_along_path(self, wave):
        path = np.linspace(0.5, 4.0, 9) + 1.5j
        out = kato_continuation(wave, path)
        ratios = []
        for lam, v in zip(path, out):
            ell, _ = stable_left_mode(wave, lam)
            v = v / v[2]
            ratios.append(np.max(np.abs(v - ell)) / np.max(np.abs(ell)))
        assert max(ratios) < 1e-6

    def test_monodromy_around_circle(self, wave):
        theta = np.linspace(0.0, 2.0 * np.pi, 33)
        path = 1.0 + 0.3 * np.exp(1j * theta)
        out = kato_continuation(wave, path)
        assert np.max(np.abs(out[-1] - out[0])) < 1e-8 * np.max(np.abs(out[0]))

    def test_branch_criterion_near_imaginary_axis(self, wave):
        path = [1.0 + 2.0j, 0.5 + 2.0j, 0.1 + 2.0j, 0.01 + 2.0j]
        for lam in path:
            g, _, _ = stable_left_eig(wave, lam)
            assert (g / lam).real < 0.0
        out = kato_continuation(wave, path)
        assert len(out) == len(path)

    def test_branch_collision_near_origin(self, wave):
        with pytest.raises(BranchAmbiguityError):
            stable_left_eig(wave, 1e-13 + 0j)


def test_result_paths_use_no_lapack(wave, monkeypatch):
    # the closed-form kernel is the only linearized operator in the library:
    # G, the frame, the duality check and all three methods run without a
    # LAPACK solve, inverse, condition number, determinant or eigensolver
    def forbidden(*args, **kw):
        raise AssertionError("LAPACK call on a result path")

    for name in ("solve", "inv", "cond", "det", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    lam = 1.0 + 1.0j
    assert np.all(np.isfinite(coefficient_G(wave, lam, -1.0)))
    make_frame(wave, lam, 1e-5)
    assert math.isfinite(duality_check(wave, lam))
    for method in METHODS:
        assert cmath.isfinite(evaluate(wave, lam, method=method).D)
