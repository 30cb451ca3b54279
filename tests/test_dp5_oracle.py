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
import sys

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
    k[0] = field.eval(x, z.tolist())
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
                k[i] = field.eval(x + _C[i] * h, zi.tolist())
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


# D and the step counts of every method on the default wave, recorded with
# the integrator that still stepped on NumPy arrays: (method, lambda, tol,
# accepted, rejected, RHS evaluations, D).  The scalar rewrite must keep every
# count and move D only by summation order.
PINNED_D = [
    ('neutral', (1+1j), 1e-05, 42, 3, 271, (-47.809347379406965-36.46158209566812j)),
    ('neutral', (1+1j), 1e-08, 140, 3, 859, (-47.80934368298984-36.461599006769006j)),
    ('neutral', (1+3j), 1e-05, 69, 6, 451, (-101.98391808002235-96.4094625202865j)),
    ('neutral', (1+3j), 1e-08, 202, 3, 1231, (-101.98388905528064-96.40948386781768j)),
    ('neutral', (4+10j), 1e-05, 193, 24, 1303, (-243.90956270175548+148.68144687144257j)),
    ('neutral', (4+10j), 1e-08, 459, 12, 2827, (-243.9095555274947+148.68140525691368j)),
    ('neutral', (0.1+30j), 1e-05, 933, 3, 5617, (1363.302442966373-796.2997779891424j)),
    ('neutral', (0.1+30j), 1e-08, 1272, 4, 7657, (1363.2976865788958-796.2869962440146j)),
    ('erpenbeck', (1+1j), 1e-05, 107, 0, 643, (-47.80971505827553-36.45954821443337j)),
    ('erpenbeck', (1+1j), 1e-08, 443, 0, 2659, (-47.80934485347543-36.461597122716874j)),
    ('erpenbeck', (1+3j), 1e-05, 241, 0, 1447, (-101.98589227624677-96.42158255056135j)),
    ('erpenbeck', (1+3j), 1e-08, 975, 0, 5851, (-101.98388574572894-96.40949574757478j)),
    ('erpenbeck', (4+10j), 1e-05, 808, 0, 4849, (-243.99297658628174+148.70303836219833j)),
    ('erpenbeck', (4+10j), 1e-08, 3291, 0, 19747, (-243.90964071163344+148.68138971475057j)),
    ('erpenbeck', (0.1+30j), 1e-05, 2316, 0, 13897, (1362.6702484671819-795.0268705668332j)),
    ('erpenbeck', (0.1+30j), 1e-08, 9210, 0, 55261, (1363.2966283935689-796.286124574252j)),
    ('lee_stewart', (1+1j), 1e-05, 138, 0, 829, (-2437498203609.606-9271220194939.412j)),
    ('lee_stewart', (1+1j), 1e-08, 539, 0, 3235, (-2437417217033.3325-9271276417662.586j)),
    ('lee_stewart', (1+3j), 1e-05, 264, 0, 1585, (20629640555648.645-8667216559086.962j)),
    ('lee_stewart', (1+3j), 1e-08, 1038, 0, 6229, (20628392673987.594-8667596503325.81j)),
    ('lee_stewart', (4+10j), 1e-05, 833, 0, 4999, (-1.8061579851327136e+47+3.8279967237850094e+46j)),
    ('lee_stewart', (4+10j), 1e-08, 3360, 0, 20161, (-1.8056726887325205e+47+3.8284807626352397e+46j)),
    ('lee_stewart', (0.1+30j), 1e-05, 2432, 4, 14617, (18389.62383296589+9744.479708464445j)),
    ('lee_stewart', (0.1+30j), 1e-08, 9797, 0, 58783, (18405.43766109899+9743.15954729279j)),
]


@pytest.mark.parametrize("method, lam, tol, accepted, rejected, nfev, D", PINNED_D)
def test_evans_D_and_counts_pinned(wave, method, lam, tol, accepted, rejected, nfev, D):
    r = evans.evaluate(wave, lam, method=method, tol=tol)
    s = r.stats
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


class TestFailurePaths:
    def test_nan_at_start(self):
        field = OdeField(dimension=2, eval=lambda x, z: np.full(2, np.nan + 0j))
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])
        assert info.value.x == 0.0

    def test_nan_past_one_half(self):
        def rhs(x, z):
            return np.full(2, np.nan + 0j) if x > 0.5 else [-v for v in z]

        field = OdeField(dimension=2, eval=rhs)
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])
        assert info.value.x == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("component", [0, 1])
    def test_nan_in_one_component(self, component):
        # the NaN ratio must not be dropped by a maximum over the components
        def rhs(x, z):
            dz = [-v for v in z]
            if x > 0.5:
                dz[component] = complex(math.nan, 0.0)
            return dz

        field = OdeField(dimension=2, eval=rhs)
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])
        assert info.value.x == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("slope, x_fail", [
        # the slope's own modulus is beyond double range
        (complex(1.5e308, 1.5e308), 0.0),
        # the state's modulus passes double range at x = DBL_MAX / |slope|
        (complex(1e308, 1e308), sys.float_info.max / abs(complex(1e308, 1e308))),
        # a real state overflows its component, not the modulus
        (complex(1e308, 0.0), sys.float_info.max / 1e308),
    ])
    def test_modulus_overflow(self, slope, x_fail):
        field = OdeField(dimension=1, eval=lambda x, z: [slope])
        with pytest.raises(NonFiniteStateError) as info:
            integrate_adaptive(field, (0.0, 2.0), [1.0])
        assert info.value.x == pytest.approx(x_fail, abs=1e-9)

    def test_finite_time_blow_up(self):
        # z' = z^2, z(0) = 1 has the solution 1 / (1 - x)
        field = OdeField(dimension=1, eval=lambda x, z: [z[0] * z[0]])
        with pytest.raises(StepSizeUnderflowError) as info:
            integrate_adaptive(field, (0.0, 2.0), [1.0])
        assert info.value.x == pytest.approx(1.0, abs=1e-3)
