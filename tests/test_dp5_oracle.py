"""The Dormand-Prince integrator against a plain reference implementation,
and the integrator's failure paths.

``reference_dp5`` forms every stage as a Python sum of weighted slope rows
and the error norm from nested maxima, with the same step controller,
FSAL reuse and power-of-two renormalization as ``numerics._integrate``.
The two differ only in summation order, so step counts must agree exactly
and states to rounding.  Rounding stays near 1e-15 on well-conditioned runs;
runs that amplify it (backward through the growing modes, or Erpenbeck's
unfactored field at lambda = 0.1+30i) end about 2e-12 apart, and the bound
there is 1e-11.
"""

import math

import numpy as np
import pytest

from zndevans import evans
from zndevans.errors import NonFiniteStateError, StepSizeUnderflowError
from zndevans.modelbench import ModelParams, model_field
from zndevans.numerics import OdeField, integrate_adaptive, integrate_adaptive_scaled

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def reference_dp5(field, span, init, rel_tol, abs_tol, renormalize=False):
    """Returns ``(z, accepted, rejected, rhs_evaluations, pow2)``; the final
    state is ``z * 2**pow2``.  Failure paths raise ``RuntimeError``."""
    x0, x1 = float(span[0]), float(span[1])
    z = np.array(init, dtype=complex)
    width = abs(x1 - x0)
    direction = 1.0 if x1 > x0 else -1.0
    h_floor, h_max = 1e-14 * width, 0.1 * width
    threshold = np.asarray(abs_tol, dtype=float) / rel_tol

    x = x0
    accepted = rejected = pow2 = 0
    k = np.empty((7, len(z)), dtype=complex)
    k[0] = field.eval(x, z)
    nfev = 1
    absh = h_max
    rh = float(np.max(np.abs(k[0]) / np.maximum(np.abs(z), threshold)))
    rh /= 0.8 * rel_tol ** 0.2
    if absh * rh > 1.0:
        absh = max(1.0 / rh, h_floor)

    while True:
        failed_this_step = False
        while True:
            h = direction * absh
            at_end = direction * (x + h - x1) >= 0.0
            if at_end:
                h = x1 - x
                absh = abs(h)
            for i in range(1, 7):
                zi = z + h * sum(a * k[j] for j, a in enumerate(_A[i]))
                k[i] = field.eval(x + _C[i] * h, zi)
            nfev += 6
            z_new = z + h * (_B5 @ k)
            err_vec = h * (_E @ k)
            with np.errstate(invalid="ignore", over="ignore"):
                scale = np.maximum(np.maximum(np.abs(z), np.abs(z_new)), threshold)
                err = float(np.max(np.abs(err_vec) / scale))
            if math.isfinite(err) and err <= rel_tol:
                break
            rejected += 1
            if math.isfinite(err) and not failed_this_step:
                absh *= max(0.1, 0.8 * (rel_tol / err) ** 0.2)
            else:
                absh *= 0.5
            failed_this_step = True
            if absh < h_floor:
                raise RuntimeError(f"reference step underflow at x={x}")

        accepted += 1
        x = x1 if at_end else x + h
        z = z_new
        k[0] = k[6]
        if renormalize:
            zmax = float(np.max(np.abs(z)))
            if zmax > 1e200:
                shift = int(math.ceil(math.log2(zmax / 1e100)))
                factor = math.ldexp(1.0, -shift)
                z = z * factor
                k[0] = k[0] * factor
                pow2 += shift
        if x == x1:
            return z, accepted, rejected, nfev, pow2
        if not failed_this_step:
            growth = 5.0 if err == 0.0 else min(5.0, 0.8 * (rel_tol / err) ** 0.2)
            absh = min(h_max, absh * growth)


def assert_matches_reference(z, pow2, stats, field, span, init, rel_tol, abs_tol,
                             renormalize, bound):
    z_ref, acc, rej, nfev, pow2_ref = reference_dp5(
        field, span, init, rel_tol, abs_tol, renormalize
    )
    assert (stats.accepted_steps, stats.rejected_steps, stats.rhs_evaluations, pow2) == (
        acc, rej, nfev, pow2_ref
    )
    assert np.linalg.norm(z - z_ref) <= bound * np.linalg.norm(z_ref)


@pytest.mark.parametrize("direction, span, bound", [
    ("forward", (-5.0, 0.0), 1e-12),
    ("backward", (0.0, -5.0), 1e-11),
])
def test_factored_model_cell_matches_reference(direction, span, bound):
    # the settings of modelbench.run_cell for lambda = 256, c = 10
    field = model_field(ModelParams(c_decay=10.0, lam=256.0), "factored")
    init = [1.0 + 0j, 0.0 + 0j]
    z, pow2, stats = integrate_adaptive_scaled(field, span, init, 1e-5, 1e-7)
    if direction == "backward":
        assert pow2 > 0  # the renormalization path ran
    assert_matches_reference(z, pow2, stats, field, span, init, 1e-5, 1e-7, True, bound)


@pytest.mark.parametrize("method, lam, bound", [
    (evans.METHOD_NEUTRAL, 1 + 1j, 1e-12),
    (evans.METHOD_ERPENBECK, 0.1 + 30j, 1e-11),
])
def test_evans_field_matches_reference(wave, monkeypatch, method, lam, bound):
    calls = []

    def recording(field, span, init, rel_tol, abs_tol):
        z, stats = integrate_adaptive(field, span, init, rel_tol, abs_tol)
        calls.append((field, span, init, rel_tol, abs_tol, z, stats))
        return z, stats

    monkeypatch.setattr(evans, "integrate_adaptive", recording)
    evans.evaluate(wave, lam, method=method, tol=1e-5)
    (field, span, init, rel_tol, abs_tol, z, stats), = calls
    assert field.dimension == (4 if method == evans.METHOD_NEUTRAL else 5)
    assert_matches_reference(z, 0, stats, field, span, init, rel_tol, abs_tol, False, bound)


class TestFailurePaths:
    def test_nan_at_start(self):
        field = OdeField(dimension=2, eval=lambda x, z: np.full(2, np.nan + 0j))
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])
        assert info.value.x == 0.0

    def test_nan_past_one_half(self):
        def rhs(x, z):
            return np.full(2, np.nan + 0j) if x > 0.5 else -z

        field = OdeField(dimension=2, eval=rhs)
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])
        assert info.value.x == pytest.approx(0.5, abs=1e-9)

    def test_finite_time_blow_up(self):
        # z' = z^2, z(0) = 1 has the solution 1 / (1 - x)
        field = OdeField(dimension=1, eval=lambda x, z: z * z)
        with pytest.raises(StepSizeUnderflowError) as info:
            integrate_adaptive(field, (0.0, 2.0), [1.0])
        assert info.value.x == pytest.approx(1.0, abs=1e-3)
