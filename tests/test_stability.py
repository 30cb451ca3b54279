import cmath

import numpy as np
import pytest

from zndevans import stability
from zndevans.errors import ContourThroughRootError
from zndevans.evans import evaluate
from zndevans.numerics import Contour, refine_contour, winding_number
from zndevans.stability import continue_roots, count_unstable, sweep_roots
from zndevans.znd import default_config, nonreactive_config


class TestCountUnstable:
    def test_synthetic_pair_of_zeros(self):
        # a conjugate pair inside the semicircle must wind twice
        lam0 = 0.5 + 1.0j
        contour = Contour.semicircle(2.0, 2e-4, n_arc=24, n_side=12)
        _, values = refine_contour(
            lambda z: (z - lam0) * (z - np.conj(lam0)), contour
        )
        assert winding_number(values) == 2

    def test_nonreactive_shock_stable(self, shock):
        report = count_unstable(shock, radius=1.0, tol=1e-5)
        assert report.winding == 0
        assert report.min_abs_D > 0.0
        assert report.n_samples >= 8
        assert report.method == "neutral"

    def test_radius_monotonicity(self, shock):
        w1 = count_unstable(shock, radius=0.5, tol=1e-5).winding
        w2 = count_unstable(shock, radius=1.5, tol=1e-5).winding
        assert w1 <= w2

    def test_contour_through_root_detected(self):
        # synthetic check at the numerics level: zero sitting on the contour
        contour = Contour.semicircle(1.0, 1e-4, n_arc=16, n_side=8)
        with pytest.raises(ContourThroughRootError):
            _, values = refine_contour(lambda z: z - 1.0, contour, max_phase_step=np.pi / 8)
            winding_number(values)

    def test_report_json(self, shock):
        report = count_unstable(shock, radius=1.0, tol=1e-5)
        rec = report.to_json_dict()
        assert rec["winding"] == report.winding
        assert rec["n_samples"] == report.n_samples
        assert rec["n_evaluations"] == report.n_evaluations
        assert "semicircle" in rec["description"]

    def test_unknown_method_rejected(self, wave):
        with pytest.raises(ValueError, match="unknown method 'collocation'"):
            count_unstable(wave, 2.0, method="collocation")


class TestCountUnstableSolvesTheUpperHalf:
    """D(conj lambda) = conj D(lambda), so the count solves each conjugate
    pair of nodes once, at the member with Im lambda >= 0."""

    @pytest.fixture(scope="class", params=["shock", "wave"])
    def counted(self, request):
        wave = request.getfixturevalue(request.param)
        calls = []
        inner = stability.evaluate

        def counting(w, lam, **kw):
            r = inner(w, lam, **kw)
            calls.append((lam, r.stats))
            return r

        stability.evaluate = counting
        try:
            report = count_unstable(wave, radius=2.0, tol=1e-5)
        finally:
            stability.evaluate = inner
        return wave, report, calls

    def test_solves_each_pair_once_in_the_upper_half(self, counted):
        _, report, calls = counted
        lams = [lam for lam, _ in calls]
        assert all(lam.imag >= 0.0 for lam in lams)
        assert len(set(lams)) == len(lams) == report.n_evaluations
        assert report.n_evaluations <= report.n_samples // 2 + 2
        assert list(report.solve_stats) == [stats for _, stats in calls]

    def test_samples_are_conjugate_symmetric(self, counted):
        _, report, _ = counted
        nodes, samples = report.contour.nodes[:-1], report.samples[:-1]
        by_node = dict(zip(nodes.tolist(), samples.tolist()))
        assert len(by_node) == report.n_samples
        for z, v in by_node.items():
            assert by_node[z.conjugate()] == v.conjugate()

    def test_winding_matches_a_solve_at_every_node(self, counted):
        wave, report, _ = counted
        solves = [evaluate(wave, z, tol=1e-5) for z in report.contour.nodes]
        plain = np.array([r.D * r.kappa_to_neutral for r in solves])
        assert winding_number(plain) == report.winding
        assert np.all(np.abs(plain - report.samples) <= 1e-13 * np.abs(plain))


class TestContinuation:
    def test_constant_family(self):
        factory = lambda a: (lambda z: z - (1.0 + 0.5j))
        trace = continue_roots(factory, [1.0, 1.0, 1.0], seed=1.1 + 0.4j)
        assert np.allclose(trace.roots, 1.0 + 0.5j)
        assert np.all(trace.converged)

    def test_moving_root_tracks_parameter(self):
        factory = lambda a: (lambda z: z - a)
        values = np.linspace(1.0, 2.0, 11)
        trace = continue_roots(factory, values, seed=1.05)
        assert np.allclose(trace.roots.real, trace.values, atol=1e-9)
        assert np.allclose(trace.roots.imag, 0.0, atol=1e-9)

    def test_reversal_consistency(self):
        factory = lambda a: (lambda z: (z - a) * (z + 3.0))
        fwd = continue_roots(factory, np.linspace(1.0, 2.0, 6), seed=1.0)
        back = continue_roots(factory, np.linspace(2.0, 1.0, 6), seed=fwd.roots[-1])
        assert abs(back.roots[-1] - fwd.roots[0]) < 1e-6

    def test_residual_small_at_every_point(self):
        factory = lambda a: (lambda z: z**2 - a)
        values = np.linspace(4.0, 9.0, 6)
        trace = continue_roots(factory, values, seed=2.0, tol=1e-12)
        for a, root in zip(trace.values, trace.roots):
            assert abs(root**2 - a) < 1e-9

    def test_step_halving_inserts_midpoints(self):
        # Newton from the previous root diverges once tanh saturates (|z - a| > ~1.1),
        # so the step 0 -> 4 is halved until it fails no more
        factory = lambda a: (lambda z: cmath.tanh(z - a))
        trace = continue_roots(factory, [0.0, 4.0], seed=0.0)
        assert np.all(trace.converged)
        assert trace.stopped_by is None
        assert trace.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]  # midpoints were recorded
        assert np.allclose(trace.roots, trace.values, atol=1e-9)

    def test_breakdown_reports_last_good(self):
        # root escapes any neighbourhood: continuation must give up cleanly
        def factory(a):
            if a > 0.5:
                return lambda z: 1.0 + 0j  # no root at all
            return lambda z: z - a

        trace = continue_roots(factory, [0.0, 1.0], seed=0.0)
        assert not trace.converged[-1]
        assert trace.roots[-1] == trace.roots[-2]
        assert trace.stopped_by

    def test_failure_at_first_value_keeps_the_seed(self):
        trace = continue_roots(lambda a: (lambda z: 1.0 + 0j), [0.0, 1.0], seed=2.0 + 1.0j)
        assert trace.values.tolist() == [0.0]
        assert trace.roots.tolist() == [2.0 + 1.0j]
        assert trace.converged.tolist() == [False]
        assert "degenerate" in trace.stopped_by

    @pytest.mark.parametrize("name", ["nope", "upstream", "gas_constant", "digest", "tol"])
    def test_sweep_roots_requires_known_field(self, name, monkeypatch):
        def no_wave(cfg):
            raise AssertionError("built a wave for an unknown field")

        monkeypatch.setattr(stability, "build_wave", no_wave)
        with pytest.raises(ValueError, match=repr(name)):
            sweep_roots(default_config(), name, [1.0], seed=1.0)

    def test_sweep_roots_records_every_solve(self, monkeypatch):
        made = []

        def recorded(*args, **kw):
            result = evaluate(*args, **kw)
            made.append(result.stats)
            return result

        monkeypatch.setattr(stability, "evaluate", recorded)
        # Newton from this seed walks to lambda = 0 and fails there
        trace = sweep_roots(nonreactive_config(), "EA", [10.0, 11.0], seed=0.5 + 0.5j)
        assert made and trace.solve_stats == tuple(made)
        assert trace.stopped_by

    def test_trace_json(self):
        factory = lambda a: (lambda z: z - a)
        trace = continue_roots(factory, [1.0, 1.5], seed=1.0, name="a")
        rec = trace.to_json_dict()
        assert rec["parameter"] == "a"
        assert len(rec["roots"]) == len(rec["values"]) == len(rec["converged"])
