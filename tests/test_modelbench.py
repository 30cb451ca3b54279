import cmath
import math

import numpy as np
import pytest

from zndevans.modelbench import (
    DOMAIN_LENGTH,
    BenchCell,
    LAMBDA_ROWS,
    ModelParams,
    model_field,
    model_oracle,
    run_cell,
)


class TestModelField:
    def test_factored_matrix_action(self):
        p = ModelParams(c_decay=10.0, lam=3.0 + 1.0j)
        f = model_field(p, "factored")
        for x in (-4.0, -1.0, 0.0):
            dz = f.eval(x, np.array([1.0 + 0j, 0.0 + 0j]))
            assert dz[0] == 0.0
            assert dz[1] == pytest.approx(p.lam * math.exp(2 * x) / 10.0)

    def test_unfactored_first_component_decouples(self):
        p = ModelParams(c_decay=10.0, lam=2.0)
        f = model_field(p, "unfactored")
        dz = f.eval(-1.0, np.array([1.0 + 0j, 0.0 + 0j]))
        assert dz[0] == pytest.approx(1.0)  # lam/2 * z1

    def test_variants_related_by_exponential_gauge(self):
        # integrate both variants with consistently related initial data and
        # compare at x = 0 where the gauge factor is 1
        from zndevans.numerics import integrate_adaptive

        lam, c, M = 3.0 + 2.0j, 10.0, 5.0
        p = ModelParams(c_decay=c, lam=lam)
        zf, _ = integrate_adaptive(
            model_field(p, "factored"), (-M, 0.0), [1.0, 0.0], 1e-10, 1e-12
        )
        gauge = cmath.exp(-lam * M / 2.0)
        zu, _ = integrate_adaptive(
            model_field(p, "unfactored"), (-M, 0.0), [gauge, 0.0], 1e-10, 1e-12 * abs(gauge)
        )
        assert abs(zu[0] - zf[0]) < 1e-8
        assert abs(zu[1] - zf[1]) < 1e-8

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            model_field(ModelParams(c_decay=1.0, lam=1.0), "implicit")


class TestOracle:
    def test_zero_frequency(self):
        assert model_oracle(ModelParams(c_decay=10.0, lam=0.0)) == 0.0

    def test_closed_form_value(self):
        # lam/(c(lam+2)) at lam=2, c=10
        assert model_oracle(ModelParams(c_decay=10.0, lam=2.0)) == pytest.approx(0.05)

    def test_formula_vs_integration(self):
        p = ModelParams(c_decay=100.0, lam=0.4 + 4.0j, tol=1e-9)
        cell = run_cell(p, "factored", "forward")
        want = model_oracle(p)
        assert abs(cell.endpoint_value()[1] - want) < 1e-4 * abs(want)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            model_oracle(ModelParams(c_decay=10.0, lam=-2.0))


class TestRunCell:
    def test_forward_factored_reference_count(self):
        cell = run_cell(ModelParams(c_decay=10.0, lam=1.0), "factored", "forward")
        assert 19 / 2 <= cell.mesh_points <= 19 * 2
        assert cell.scale_pow2 == 0
        assert cell.init_scale == 1.0

    def test_backward_factored_worst_case_overflows_but_completes(self):
        # the amplified mode spans e^1280: impossible in raw doubles, so the
        # renormalized run must report a nonzero power-of-two rescale
        cell = run_cell(ModelParams(c_decay=10.0, lam=256.0), "factored", "backward")
        assert cell.overflowed
        assert 3177 / 2 <= cell.mesh_points <= 3177 * 2

    def test_unfactored_forward_records_init_scale(self):
        p = ModelParams(c_decay=10.0, lam=4.0)
        cell = run_cell(p, "unfactored", "forward")
        assert cell.init_scale == pytest.approx(cmath.exp(-p.lam * DOMAIN_LENGTH / 2.0))
        assert 61 / 2 <= cell.mesh_points <= 61 * 2

    def test_mesh_points_is_accepted_plus_one(self):
        cell = run_cell(ModelParams(c_decay=10.0, lam=1.0), "factored", "forward")
        assert cell.mesh_points == cell.stats.accepted_steps + 1

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            run_cell(ModelParams(c_decay=10.0, lam=1.0), "factored", "sideways")


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(c_decay=0.0, lam=1.0)
        with pytest.raises(ValueError):
            ModelParams(c_decay=1.0, lam=1.0, tol=0.0)

    def test_table_rows(self):
        assert len(LAMBDA_ROWS) == 11
        assert LAMBDA_ROWS[0] == 1.0
        assert LAMBDA_ROWS[-1] == 0.4 + 256j
