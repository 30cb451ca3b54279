import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_overdriven_config
from zndevans.errors import BranchAmbiguityError, NumericalDomainError
from zndevans.spectral import (
    _gas_block_jacobians,
    apply_A0,
    check_noncharacteristic,
    coefficient_G,
    jacobians,
    jump_vector,
    kato_continuation,
    left_mode_residual,
    limit_G_minus,
    limit_G_plus,
    linearized_rhs,
    make_frame,
    stable_left_eig,
    stable_left_mode,
)
from zndevans.znd import (
    StateW,
    build_wave,
    default_config,
    fluxes,
    nonreactive_config,
    profile_at,
    reaction_psi,
    thermo,
)


def random_state(rng) -> StateW:
    return StateW(
        rng.uniform(0.3, 6.0),
        rng.uniform(-4.0, 4.0),
        rng.uniform(0.3, 9.0),
        np.array([rng.uniform(0.0, 1.0)]),
    )


class TestJacobians:
    def test_mass_row_of_A0(self, rng):
        cfg = default_config()
        for _ in range(5):
            A0, _, _ = jacobians(random_state(rng), cfg)
            assert np.array_equal(A0[0], [1.0, 0.0, 0.0, 0.0])

    def test_source_jacobian_structure_at_Y0(self):
        cfg = default_config()
        st_ = StateW(2.0, -1.0, 5.0, np.array([0.0]))
        _, _, C = jacobians(st_, cfg)
        # R ~ Y: at Y = 0 only the Y columns survive
        assert np.all(C[:, :3] == 0.0)
        psi = reaction_psi(st_, cfg)
        assert C[2, 3] == pytest.approx(cfg.q * cfg.K * psi, rel=1e-14)
        assert C[3, 3] == pytest.approx(-cfg.K * psi, rel=1e-14)

    def test_finite_difference_oracle(self, rng):
        cfg = default_config()
        for _ in range(20):
            jacobians(random_state(rng), cfg, self_check=True)


class TestClosedFormKernel:
    """linearized_rhs, apply_A0 and the gas blocks against the matrices of
    jacobians with LAPACK solves, along whole profiles of six waves."""

    def test_matches_matrix_assembly(self, rng):
        cfgs = [default_config(), replace(default_config(), EA=20.0), nonreactive_config()]
        cfgs += [random_overdriven_config(rng) for _ in range(3)]
        shift = 0.3 - 0.7j
        worst = 0.0
        for cfg in cfgs:
            wave = build_wave(cfg)
            for y in np.linspace(-wave.default_M, 0.0, 41):
                st_ = profile_at(wave, y)
                A0, A1, C = jacobians(st_, cfg)
                f0V, f1V = _gas_block_jacobians(st_, cfg)
                assert np.array_equal(f0V, A0[:3, :3]) and np.array_equal(f1V, A1[:3, :3])
                sig = wave.m / reaction_psi(st_, cfg)
                for lam in (0.1 + 30j, 40.0 + 0j, 1.0 + 1.0j):
                    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    adj = -sig * (np.linalg.solve(A1.T.astype(complex), (-lam * A0.T + C.T) @ z) - shift * z)
                    fwd = sig * ((-lam * A0 + C) @ np.linalg.solve(A1.astype(complex), z))
                    got_adj = np.array(linearized_rhs(wave, st_, lam, z.tolist(), shift))
                    got_fwd = np.array(linearized_rhs(wave, st_, lam, z.tolist(), adjoint=False))
                    got_A0 = np.array(apply_A0(st_, z.tolist()))
                    worst = max(
                        worst,
                        np.linalg.norm(got_adj - adj) / np.linalg.norm(adj),
                        np.linalg.norm(got_fwd - fwd) / np.linalg.norm(fwd),
                        np.linalg.norm(got_A0 - A0 @ z) / np.linalg.norm(A0 @ z),
                    )
        assert worst < 1e-12


class TestNoncharacteristic:
    def test_stagnation_fails(self):
        cfg = default_config()
        assert not check_noncharacteristic(StateW(1.0, 0.0, 2.0, np.array([0.3])), cfg)

    def test_sonic_fails(self):
        cfg = default_config()
        e = 3.0
        c_s = math.sqrt(cfg.Gamma * (cfg.Gamma + 1.0) * e)
        assert not check_noncharacteristic(StateW(1.5, -c_s, e, np.array([0.2])), cfg)

    def test_neumann_passes(self, wave):
        assert check_noncharacteristic(wave.neumann, wave.config)

    def test_burned_passes(self, wave):
        assert check_noncharacteristic(wave.burned, wave.config)


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
        frame = make_frame(wave, 1.0 + 2.0j)
        assert frame.ell[2] == 1.0
        assert frame.g_minus.real < 0.0


class TestJumpVector:
    def test_lambda_zero_is_neumann_source(self, wave):
        jump = jump_vector(wave, 0.0)
        R = fluxes(wave.neumann, wave.config)[2]
        assert np.allclose(jump, R, rtol=0, atol=1e-14)
        psi = reaction_psi(wave.neumann, wave.config)
        Y0 = wave.config.Y0
        expected = np.array([0, 0, wave.config.q * wave.config.K * Y0 * psi, -wave.config.K * Y0 * psi])
        assert np.allclose(jump, expected, rtol=1e-14)

    def test_nonreactive_limit_pure_gas_jump(self, shock):
        lam = 1.5 - 2.0j
        jump = jump_vector(shock, lam)
        up = shock.config.upstream
        F0p = fluxes(StateW(up.rho, up.u, up.e, np.array([0.0])), shock.config)[0]
        F0m = fluxes(shock.neumann, shock.config)[0]
        assert np.allclose(jump, lam * (F0p - F0m), rtol=1e-14)

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
