import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndevans.errors import (
    ContourRefinementError,
    ContourThroughRootError,
    DegenerateRootError,
    NewtonError,
    UnderSampledContourError,
)
from zndevans.numerics import (
    Contour,
    OdeField,
    integrate_adaptive,
    newton_root,
    refine_contour,
    winding_number,
)


def scalar_field(f):
    return OdeField(dimension=1, eval=lambda x, z: np.array([f(x, z[0])]))


CONSTANT = scalar_field(lambda x, z: 0.0)
EXPONENTIAL = scalar_field(lambda x, z: z)


def model_oracle(lam, c):
    return lam / (c * (lam + 2.0))


class TestIntegrate:
    def test_constant_field(self):
        z, stats = integrate_adaptive(CONSTANT, (-5.0, 0.0), [1.0 + 0j])
        assert z[0] == 1.0 + 0j
        assert 1 <= stats.accepted_steps <= 12
        assert stats.rejected_steps == 0

    def test_exponential(self):
        z, stats = integrate_adaptive(EXPONENTIAL, (0.0, 1.0), [1.0 + 0j], 1e-8, 1e-8)
        assert abs(z[0] - math.e) < 1e-7

    def test_model_problem_mesh_count(self):
        # decay-factored two-by-two benchmark system at lambda=256, c=10:
        # reference solver takes ~657 accepted nodes at tolerance 1e-5
        lam, c = 256.0, 10.0

        def rhs(x, z):
            return np.array([0.0, lam * (math.exp(2.0 * x) / c * z[0] - z[1])])

        field = OdeField(dimension=2, eval=rhs)
        _, stats = integrate_adaptive(field, (-5.0, 0.0), [1.0, 0.0], 1e-5, 1e-7)
        assert 657 / 2 <= stats.mesh_points <= 657 * 2

    def test_stats_accounting(self):
        _, stats = integrate_adaptive(EXPONENTIAL, (0.0, 3.0), [1.0 + 0j])
        assert stats.accepted_steps >= 1
        assert stats.rhs_evaluations >= 6 * (stats.accepted_steps + stats.rejected_steps)
        assert stats.span == (0.0, 3.0)
        assert stats.mesh_points == stats.accepted_steps + 1

    def test_tolerance_tightening_never_hurts(self):
        errors = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            z, _ = integrate_adaptive(EXPONENTIAL, (0.0, 1.0), [1.0 + 0j], tol, tol)
            errors.append(abs(z[0] - math.e))
        assert all(e2 <= e1 * 1.001 + 1e-15 for e1, e2 in zip(errors, errors[1:]))

    def test_observed_order_at_least_four(self):
        # adaptive cost-accuracy scaling: err ~ N^-p with p >= 4 for a 5(4) pair
        pts, errs = [], []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            z, stats = integrate_adaptive(EXPONENTIAL, (0.0, 1.0), [1.0 + 0j], tol, tol)
            pts.append(stats.mesh_points)
            errs.append(max(abs(z[0] - math.e), 1e-16))
        slope = np.polyfit(np.log(pts), np.log(errs), 1)[0]
        assert slope <= -4.0

    def test_direction_symmetry(self):
        a = 1.5 - 0.7j
        field = scalar_field(lambda x, z: a * z)
        tol = 1e-7
        z1, _ = integrate_adaptive(field, (0.0, 1.0), [1.0 + 0j], tol, tol)
        z2, _ = integrate_adaptive(field, (1.0, 0.0), [z1[0]], tol, tol)
        assert abs(z2[0] - 1.0) < 10 * tol

    def test_span_must_be_nondegenerate(self):
        with pytest.raises(ValueError):
            integrate_adaptive(CONSTANT, (1.0, 1.0), [1.0 + 0j])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_adaptive(CONSTANT, (0.0, 1.0), [1.0, 2.0])


class TestWinding:
    def test_constant_samples(self):
        contour = Contour.circle(0.0, 1.0, 16)
        samples = np.ones(len(contour.nodes), dtype=complex)
        assert winding_number(samples) == 0

    def test_single_simple_zero(self):
        lam0 = 0.3 + 0.4j
        nodes = Contour.circle(lam0, 1.0, 32).nodes
        assert winding_number(nodes - lam0) == 1

    def test_model_determinant_no_zeros_in_disk(self):
        # analytic model determinant lam/(c(lam+2)): zero at 0 and pole at -2,
        # both outside the disk |lam - 1| <= 0.5
        nodes = Contour.circle(1.0, 0.5, 64).nodes
        samples = np.array([model_oracle(z, 10.0) for z in nodes])
        assert winding_number(samples) == 0

    def test_two_zeros(self):
        lam0 = 0.5 + 1.0j
        nodes = Contour.circle(0.5, 2.0, 128).nodes
        samples = (nodes - lam0) * (nodes - np.conj(lam0))
        assert winding_number(samples) == 2

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_rotation_invariance(self, shift):
        lam0 = 0.2 - 0.1j
        nodes = Contour.circle(0.0, 1.0, 64).nodes[:-1]
        samples = np.roll(nodes - lam0, shift)
        assert winding_number(samples) == 1

    def test_undersampled_raises(self):
        nodes = Contour.circle(0.0, 1.0, 8).nodes
        with pytest.raises(UnderSampledContourError):
            winding_number(nodes**3)  # phase step 3*(2pi/8) > pi/2

    def test_zero_sample_raises(self):
        samples = np.ones(16, dtype=complex)
        samples[3] = 0.0
        with pytest.raises(ContourThroughRootError):
            winding_number(samples)


class TestRefine:
    def test_constant_unchanged(self):
        contour = Contour.circle(0.0, 2.0, 8)
        nodes, values = refine_contour(lambda z: 1.0 + 0j, contour)
        assert len(nodes) == len(contour.nodes)
        assert np.all(values == 1.0)

    def test_identity_on_unit_circle(self):
        contour = Contour.circle(0.0, 1.0, 8)
        nodes, values = refine_contour(lambda z: z, contour, max_phase_step=np.pi / 4)
        assert len(nodes) >= len(contour.nodes)
        steps = np.abs(np.angle(values[1:] / values[:-1]))
        assert np.all(steps < np.pi / 4)
        assert winding_number(values) == 1

    def test_model_semicircle_passes_preconditions(self):
        contour = Contour.semicircle(4.0, 4e-4, n_arc=16, n_side=8)
        nodes, values = refine_contour(lambda z: model_oracle(z, 10.0), contour)
        assert winding_number(values) == 0

    @pytest.mark.parametrize("max_phase_step", [np.pi / 2, np.pi / 8])
    def test_one_call_per_distinct_node(self, max_phase_step):
        # z on 8 nodes of the unit circle: phase steps of pi/4, bisected
        # only under the tighter bound
        calls = []
        contour = Contour.circle(0.0, 1.0, 8)
        nodes, _ = refine_contour(lambda z: calls.append(z) or z, contour, max_phase_step)
        assert (len(nodes) > len(contour.nodes)) == (max_phase_step < np.pi / 4)
        assert len(calls) == len(set(calls)) == len(nodes) - 1
        assert set(calls) == set(nodes[:-1].tolist())

    def test_root_on_contour_hits_depth_cap(self):
        contour = Contour.circle(0.0, 1.0, 8)
        with pytest.raises((ContourRefinementError, ContourThroughRootError)):
            refine_contour(lambda z: z - 1.0, contour, max_phase_step=np.pi / 8)


class TestNewton:
    def test_linear(self):
        root = newton_root(lambda z: z - 3j, 1.0 + 1.0j, tol=1e-12)
        assert abs(root - 3j) < 1e-10

    def test_quadratic(self):
        root = newton_root(lambda z: z * z - 1.0, 1.2, tol=1e-12)
        assert abs(root - 1.0) < 1e-10

    def test_model_oracle_root_at_origin(self):
        root = newton_root(lambda z: model_oracle(z, 10.0), 0.1 + 0.1j, tol=1e-12)
        assert abs(root) < 1e-10

    def test_degenerate_root(self):
        with pytest.raises(DegenerateRootError):
            newton_root(lambda z: z * z, 1e-8, tol=1e-15, max_iter=100)

    @pytest.mark.parametrize("kw", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0}, {"max_iter": 0},
    ])
    def test_bad_arguments_rejected(self, kw):
        with pytest.raises(ValueError):
            newton_root(lambda z: z - 3j, 1.0, **kw)

    def test_nonconvergence(self):
        # real Newton on z^2+1 never settles (roots are off the real line)
        with pytest.raises(NewtonError):
            newton_root(lambda z: z * z + 1.0, 0.5, tol=1e-14, max_iter=5)

    @given(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=-0.07, max_value=0.07),
        st.floats(min_value=-0.07, max_value=0.07),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomial_quadratic_convergence(self, r1, r2, dx, dy):
        # simple root: converges from within 0.1 in few iterations at tol 1e-12
        root = r1
        other = r1 + r2  # guaranteed simple (|r2| >= 0.5)
        poly = lambda z: (z - root) * (z - other)
        found = newton_root(poly, root + complex(dx, dy), tol=1e-12, max_iter=8)
        assert abs(found - root) < 1e-9


class TestContour:
    def test_circle_closed(self):
        c = Contour.circle(1.0 + 1.0j, 2.0, 16)
        assert c.nodes[0] == c.nodes[-1]
        assert len(c.nodes) == 17

    def test_semicircle_geometry(self):
        c = Contour.semicircle(2.0, 0.01, n_arc=32, n_side=16)
        assert c.nodes[0] == c.nodes[-1]
        assert np.all(c.nodes.real >= 0.01 - 1e-12)
        assert np.max(np.abs(c.nodes)) <= 2.0 + 1e-12

    @pytest.mark.parametrize("n_arc, n_side", [(32, 16), (31, 16), (32, 15), (7, 9), (8, 2)])
    def test_semicircle_is_an_exact_mirror_image(self, n_arc, n_side):
        nodes = Contour.semicircle(2.0, 2e-4, n_arc=n_arc, n_side=n_side).nodes[:-1]
        n = n_arc + n_side
        assert nodes.size == n
        for j in range(n):
            assert nodes[(n_arc - j) % n] == nodes[j].conjugate()
        # the real-axis nodes (arc and side midpoints) exist for even counts
        assert np.count_nonzero(nodes.imag == 0.0) == (n_arc % 2 == 0) + (n_side % 2 == 0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            Contour(np.array([1, 1j, -1, 1], dtype=complex))

    def test_open_contour_rejected(self):
        nodes = np.exp(2j * np.pi * np.arange(10) / 10)
        with pytest.raises(ValueError):
            Contour(nodes)


class TestWindingRefinementInvariance:
    def test_winding_stable_under_extra_refinement(self):
        lam0 = 0.4 + 0.3j
        evaluator = lambda z: (z - lam0) * (z + 2.0)
        contour = Contour.circle(0.0, 1.0, 16)
        windings = []
        for step in (np.pi / 4, np.pi / 8, np.pi / 16):
            _, values = refine_contour(evaluator, contour, max_phase_step=step)
            windings.append(winding_number(values))
        assert windings == [1, 1, 1]
