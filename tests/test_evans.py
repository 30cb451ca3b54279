from dataclasses import replace

import numpy as np
import pytest

from zndevans import evans, spectral
from zndevans.errors import (
    EvansOverflowError,
    MisselectedModeError,
    NonFiniteStateError,
    NumericalDomainError,
    StepSizeUnderflowError,
)
from zndevans.evans import (
    METHODS,
    duality_check,
    evaluate,
    evans_erpenbeck,
    evans_lee_stewart,
    evans_neutral,
)
from zndevans.numerics import Contour
from zndevans.spectral import jump_vector, stable_left_mode
from zndevans.stability import count_unstable
from zndevans.znd import build_wave, default_config


class TestConstantCoefficient:
    """Nonreactive shock: the profile is constant, so every method has a
    closed form against which the integrations can be checked exactly."""

    def closed_form(self, shock, lam):
        ell, _ = stable_left_mode(shock, lam)
        return complex(ell @ jump_vector(shock, lam))

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j, 3.0 - 1.0j])
    def test_neutral(self, shock, lam):
        ref = self.closed_form(shock, lam)
        r = evans_neutral(shock, lam, tol=1e-9)
        assert abs(r.D - ref) < 1e-7 * abs(ref)

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j])
    def test_erpenbeck_reduces_to_pure_jump(self, shock, lam):
        # constant profile kills the quadrature term entirely
        ref = self.closed_form(shock, lam)
        r = evans_erpenbeck(shock, lam, tol=1e-9)
        assert abs(r.D - ref) < 1e-6 * abs(ref)

    @pytest.mark.parametrize("lam", [1.0 + 0j, 0.5 + 2.0j])
    def test_lee_stewart_with_kappa(self, shock, lam):
        ref = self.closed_form(shock, lam)
        r = evans_lee_stewart(shock, lam, tol=1e-9)
        assert abs(r.kappa_to_neutral * r.D - ref) < 1e-6 * abs(ref)


class TestMethodRelations:
    def test_agreement_with_scalar_factors(self, wave, rng):
        for _ in range(6):
            lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-3.0, 3.0))
            rn = evans_neutral(wave, lam, tol=1e-7)
            re_ = evans_erpenbeck(wave, lam, tol=1e-7)
            rl = evans_lee_stewart(wave, lam, tol=1e-7)
            assert abs(re_.D - rn.D) < 1e-3 * abs(rn.D)
            assert abs(rl.kappa_to_neutral * rl.D - rn.D) < 1e-3 * abs(rn.D)

    def test_unfactored_needs_more_mesh(self, wave):
        for lam in (2.0 + 0j, 1.0 + 3.0j):
            rn = evans_neutral(wave, lam, tol=1e-6)
            re_ = evans_erpenbeck(wave, lam, tol=1e-6)
            rl = evans_lee_stewart(wave, lam, tol=1e-6)
            assert re_.stats.mesh_points > rn.stats.mesh_points
            assert rl.stats.mesh_points > rn.stats.mesh_points

    def test_unfactored_overflow_guard(self, wave):
        with pytest.raises(EvansOverflowError):
            evans_erpenbeck(wave, 40.0 + 0j)
        with pytest.raises(EvansOverflowError):
            evans_lee_stewart(wave, 40.0 + 0j)
        # the factored method handles the same frequency fine
        r = evans_neutral(wave, 40.0 + 0j)
        assert np.isfinite(r.D.real) and np.isfinite(r.D.imag)


class TestAnalyticStructure:
    def test_conjugate_symmetry(self, wave):
        for lam in (0.7 + 2.3j, 1.4 - 0.9j):
            a = evans_neutral(wave, lam, tol=1e-8).D
            b = evans_neutral(wave, np.conj(lam), tol=1e-8).D
            assert abs(np.conj(a) - b) < 1e-8 * abs(a)

    def test_m_robustness(self, wave):
        for lam in (1.0 + 1.0j, 0.5 - 2.0j):
            base = wave.M_y
            d1 = evans_neutral(wave, lam, M=base, tol=1e-10).D
            d2 = evans_neutral(wave, lam, M=base + 2.0, tol=1e-10).D
            assert abs(d1 - d2) < 1e-6 * abs(d1)

    def test_cauchy_riemann_residual(self, wave):
        h = 1e-3
        tol = 1e-9
        for lam0 in (1.0 + 1.0j, 2.0 - 1.5j):
            d = {}
            for tag, dz in (("px", h), ("mx", -h), ("py", 1j * h), ("my", -1j * h)):
                d[tag] = evans_neutral(wave, lam0 + dz, tol=tol).D
            dbar = ((d["px"] - d["mx"]) + 1j * (d["py"] - d["my"])) / (4.0 * h)
            dlam = ((d["px"] - d["mx"]) - 1j * (d["py"] - d["my"])) / (4.0 * h)
            d0 = evans_neutral(wave, lam0, tol=tol).D
            assert abs(dbar) < 1e-4 * (abs(dlam) + abs(d0))

    def test_domain_restrictions(self, wave):
        with pytest.raises(NumericalDomainError):
            evans_neutral(wave, -0.5 + 1.0j)
        with pytest.raises(NumericalDomainError):
            evans_neutral(wave, 0.0)


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

    def test_needs_positive_real_part(self, wave):
        with pytest.raises(NumericalDomainError):
            duality_check(wave, 1.0j)


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
        r = evans_neutral(wave, 1.0 + 0.5j)
        assert r.stats.span == (-wave.M_y, 0.0)
        assert r.M == wave.M_y

    @pytest.mark.parametrize("Y0", [0.0, 1e-9, 1e-8])
    def test_depth_positive_when_Y0_at_or_below_eps_Y(self, Y0):
        # M_y is relative to Y0, so a reactant already below eps_Y still
        # leaves a positive depth to integrate over
        wave = build_wave(replace(default_config(), Y0=Y0))
        assert wave.M_y > 0.0
        D = evaluate(wave, 1.0 + 1.0j).D
        assert np.isfinite(D.real) and np.isfinite(D.imag)


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


@pytest.fixture(params=[StepSizeUnderflowError(-1.25, 3e-14), NonFiniteStateError(-1.25)],
                ids=["underflow", "nonfinite"])
def integrator_fails(request, monkeypatch):
    """Every integration in evans raises the given error, which knows no lambda."""
    def fail(*args, **kwargs):
        raise request.param

    monkeypatch.setattr(evans, "integrate_adaptive", fail)
    return request.param


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

    @pytest.mark.parametrize("fn", [evans_neutral, evans_erpenbeck, evans_lee_stewart,
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
            evaluate(wave, 40.0 + 0j, method=method)
        self.check(info.value, 40.0 + 0j)

    def test_misselected_mode(self):
        # at EA = 40 the factored adjoint at 4+10i falls by ~1e-6
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
        assert steps(m.stats) == steps(r.stats)
        assert abs(m.D - r.D.conjugate()) <= 1e-13 * abs(r.D)
        assert abs(m.kappa_to_neutral - r.kappa_to_neutral.conjugate()) <= (
            1e-13 * abs(r.kappa_to_neutral)
        )


class TestAdjointIsAnnihilator:
    """Independent oracle for the whole formulation: the adjoint solution at
    the boundary must be parallel to the cross product of the forward
    bounded subspace, i.e. it annihilates every bounded solution and the
    ratio det(Z1,Z2,Z3,v) / (Z_adj . v) is v-independent."""

    def build_pieces(self, wave, lam, tol=1e-10):
        from zndevans.numerics import OdeField, integrate_adaptive
        from zndevans.evans import _adjoint_rhs
        from oracles import limit_G_minus
        from zndevans.spectral import jacobians, make_frame
        from zndevans.znd import profile_at, reaction_psi

        M = wave.M_y
        frame = make_frame(wave, lam)
        G_minus = limit_G_minus(wave, lam)
        gs, vecs = np.linalg.eig(G_minus)
        unstable = [i for i in range(4) if gs[i].real > 0]
        assert len(unstable) == 3

        def fwd_rhs(y, z):
            # assembled from the Jacobian matrices, independently of the
            # closed-form kernel behind _adjoint_rhs
            state = profile_at(wave, y)
            A0, A1, C = jacobians(state, wave.config)
            sig = wave.m / reaction_psi(state, wave.config)
            return sig * ((-lam * A0 + C) @ np.linalg.solve(A1.astype(complex), z))

        fwd = OdeField(dimension=4, eval=fwd_rhs)
        columns = []
        for i in unstable:
            z, _ = integrate_adaptive(fwd, (-M, 0.0), vecs[:, i], tol, tol)
            columns.append(z / np.linalg.norm(z))
        adj = OdeField(dimension=4, eval=_adjoint_rhs(wave, lam, frame.g_minus))
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
