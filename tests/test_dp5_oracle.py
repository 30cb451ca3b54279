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
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zndevans import evans, numerics, spectral
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
# the integrator that still stepped on NumPy arrays, from the uncorrected
# left mode (zeta = ell, no Erpenbeck tail) at depth ln(1e8)/K: (method,
# lambda, tol, accepted, rejected, RHS evaluations, D).  With that start the
# solves must keep every count and move D only by summation order, so the
# fields and the integrator are pinned apart from the burned-end start.
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

_PINNED_EPS_Y = 1e-8  # the depth M_y = ln(1/eps_Y)/K these rows were recorded at


@pytest.mark.parametrize("method, lam, tol, accepted, rejected, nfev, D", PINNED_D)
def test_evans_D_and_counts_pinned(wave, monkeypatch, method, lam, tol, accepted, rejected,
                                   nfev, D):
    def uncorrected_frame(*args):
        frame = spectral.make_frame(*args)
        return replace(frame, zeta=frame.ell, tail=0.0)

    monkeypatch.setattr(evans, "make_frame", uncorrected_frame)
    r = evans.evaluate(wave, lam, method=method, tol=tol, M=math.log(1.0 / _PINNED_EPS_Y) / wave.config.K)
    s = r.stats
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the fixed depth M_y, where Y = 1e-5 Y0, each method started
# from the corrected burned-end mode of spectral.make_frame.  A change
# meant to keep the solves must keep every count and move D only by
# summation order.
PINNED_D_CORRECTED = [
    ('neutral', (1+1j), 1e-05, 35, 3, 229, (-47.809347232804754-36.46158166546813j)),
    ('neutral', (1+1j), 1e-08, 128, 1, 775, (-47.80934353768109-36.46159860439741j)),
    ('neutral', (1+3j), 1e-05, 51, 3, 325, (-101.98391655689576-96.40945917631828j)),
    ('neutral', (1+3j), 1e-08, 182, 1, 1099, (-101.98388944106348-96.4094821669554j)),
    ('neutral', (4+10j), 1e-05, 132, 11, 859, (-243.90952905890182+148.68144250218407j)),
    ('neutral', (4+10j), 1e-08, 397, 1, 2389, (-243.9095463329137+148.6814113842845j)),
    ('neutral', (0.1+30j), 1e-05, 579, 3, 3493, (1363.310755061854-796.2829717014489j)),
    ('neutral', (0.1+30j), 1e-08, 918, 3, 5527, (1363.29760731662-796.2871366304814j)),
    ('erpenbeck', (1+1j), 1e-05, 68, 0, 409, (-47.80956818105681-36.460404339018574j)),
    ('erpenbeck', (1+1j), 1e-08, 281, 0, 1687, (-47.809344232983015-36.461597502287404j)),
    ('erpenbeck', (1+3j), 1e-05, 151, 0, 907, (-101.98503310045317-96.41678533554023j)),
    ('erpenbeck', (1+3j), 1e-08, 609, 0, 3655, (-101.98388737166286-96.4094893744278j)),
    ('erpenbeck', (4+10j), 1e-05, 503, 0, 3019, (-243.9605554747706+148.69442973634773j)),
    ('erpenbeck', (4+10j), 1e-08, 2046, 0, 12277, (-243.9095985726884+148.6814016838304j)),
    ('erpenbeck', (0.1+30j), 1e-05, 1437, 0, 8623, (1362.9081025070705-795.5076829006613j)),
    ('erpenbeck', (0.1+30j), 1e-08, 5711, 0, 34267, (1363.296949494658-796.2865992590678j)),
    ('lee_stewart', (1+1j), 1e-05, 87, 0, 523, (304959131.3033387+477848473.37580454j)),
    ('lee_stewart', (1+1j), 1e-08, 339, 0, 2035, (304957028.55135316+477851178.3703015j)),
    ('lee_stewart', (1+3j), 1e-05, 166, 0, 997, (-314795240.55360425+1285169275.9154096j)),
    ('lee_stewart', (1+3j), 1e-08, 651, 0, 3907, (-314757857.9628889+1285142091.5306869j)),
    ('lee_stewart', (4+10j), 1e-05, 521, 0, 3127, (2.2220884853649836e+30-3.9679114808443095e+29j)),
    ('lee_stewart', (4+10j), 1e-08, 2093, 0, 12559, (2.221728552219232e+30-3.968402161711895e+29j)),
    ('lee_stewart', (0.1+30j), 1e-05, 1547, 4, 9307, (-6561.820411957507-4333.17398769498j)),
    ('lee_stewart', (0.1+30j), 1e-08, 6269, 0, 37615, (-6565.231570668419-4333.243147787913j)),
]


@pytest.mark.parametrize("method, lam, tol, accepted, rejected, nfev, D", PINNED_D_CORRECTED,
                         ids=[f"{row[0]}-{row[1]}-{row[2]:g}" for row in PINNED_D_CORRECTED])
def test_evans_D_and_counts_pinned_corrected_start(wave, method, lam, tol, accepted, rejected,
                                                   nfev, D):
    r = evans.evaluate(wave, lam, method=method, tol=tol, M=wave.M_y)
    s = r.stats
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the default depth, which spectral.make_frame picks from
# tol and lambda: the benchmark's four evans_points nodes at tol 1e-5, with
# the depth M each solve ran at.
PINNED_D_DEFAULT_DEPTH = [
    ('neutral', (1+1j), 3.4059331977331677, 28, 1, 175, (-47.80936453403654-36.46161589335043j)),
    ('neutral', (1+3j), 3.613779562486776, 40, 1, 247, (-101.9839366133898-96.40954172109343j)),
    ('neutral', (4+10j), 4.142590775093191, 105, 5, 661, (-243.9096172002114+148.6815317835626j)),
    ('neutral', (0.1+30j), 4.627852375564783, 469, 2, 2827, (1363.2901701871967-796.2762476591948j)),
    ('erpenbeck', (1+1j), 3.4059331977331677, 42, 0, 253, (-47.809486013063974-36.461020779577225j)),
    ('erpenbeck', (1+3j), 3.613779562486776, 95, 0, 571, (-101.98452097259043-96.41389425716174j)),
    ('erpenbeck', (4+10j), 4.142590775093191, 361, 0, 2167, (-243.9455099832509+148.69049062311382j)),
    ('erpenbeck', (0.1+30j), 4.627852375564783, 1150, 0, 6901, (1362.9865276671103-795.6649665722888j)),
    ('lee_stewart', (1+1j), 3.4059331977331677, 53, 0, 319, (593684.7112683705+461410.92682375706j)),
    ('lee_stewart', (1+3j), 3.613779562486776, 106, 0, 637, (-2602721.4551681317+1779078.9287653614j)),
    ('lee_stewart', (4+10j), 4.142590775093191, 375, 0, 2251, (-3.2231807736856235e+21-2.8064954515406696e+22j)),
    ('lee_stewart', (0.1+30j), 4.627852375564783, 1256, 4, 7561, (-4699.335360461929+3263.2515901938636j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D", PINNED_D_DEFAULT_DEPTH,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_DEFAULT_DEPTH])
def test_evans_D_and_counts_pinned_default_depth(wave, method, lam, M, accepted, rejected,
                                                 nfev, D):
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert abs(r.M - M) <= 1e-12 * M
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

    @pytest.mark.parametrize("bad_call", range(1, 9))
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_slope_count(self, bad_call, length):
        # calls 2 to 7 are the six stages of the first attempt; from bad_call
        # on, a dimension-2 field returns `length` slopes
        calls = []

        def rhs(x, z):
            calls.append(x)
            return [-z[0]] * length if len(calls) >= bad_call else [-v for v in z]

        with pytest.raises(ValueError, match=f"field returned {length} slopes, expected 2"):
            integrate_adaptive(OdeField(2, rhs), (0.0, 1.0), [1.0, 1.0])
        assert len(calls) == bad_call

    def test_finite_time_blow_up(self):
        # z' = z^2, z(0) = 1 has the solution 1 / (1 - x)
        field = OdeField(dimension=1, eval=lambda x, z: [z[0] * z[0]])
        with pytest.raises(StepSizeUnderflowError) as info:
            integrate_adaptive(field, (0.0, 2.0), [1.0])
        assert info.value.x == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, 0.0)], ids=["forward", "backward"])
@pytest.mark.parametrize("renormalize", [False, True])
def test_every_dimension_matches_reference(n, span, renormalize):
    # The step loop is generated per dimension.  A diagonal linear field with
    # distinct complex rates, some growing and some decaying along the span;
    # they triple steeply but smoothly about x = 0.5, where some runs reject
    # steps.  With renormalize on, the state starts near the renormalization
    # limit so that the power-of-two path runs; with it off, at unit scale,
    # where the per-component thresholds abs_tol / rel_tol (0.1 to 0.6) take
    # part.
    sign = span[1] - span[0]
    rates = [sign * complex(10.0 - 3.0 * i, 2.0 + 5.0 * i) for i in range(n)]

    def rhs(x, z):
        g = 2.0 + math.tanh(40.0 * (x - 0.5))
        return [g * r * v for r, v in zip(rates, z)]

    field = OdeField(n, rhs)
    scale = 1e199 if renormalize else 1.0
    init = [scale * complex(1.0, 0.5 * i) for i in range(n)]
    abs_tol = [1e-7 * (i + 1) for i in range(n)]
    if renormalize:
        z, pow2, stats = integrate_adaptive_scaled(field, span, init, 1e-6, abs_tol)
        assert pow2 > 0
    else:
        z, stats = integrate_adaptive(field, span, init, 1e-6, abs_tol)
        pow2 = 0
    assert_matches_reference(z, pow2, stats, field, span, init, 1e-6, abs_tol, renormalize,
                             1e-12)


def test_step_loop_is_built_on_first_use_and_once():
    # Nothing is generated at import or while building a wave; two
    # integrations at one dimension build its loop once.  A fresh process,
    # because this one's cache is filled by the other tests.
    code = (
        "from zndevans import numerics\n"
        "from zndevans.znd import build_wave, default_config\n"
        "build_wave(default_config())\n"
        "print(numerics._step_loop.cache_info().currsize)\n"
        "field = numerics.OdeField(2, lambda x, z: [-v for v in z])\n"
        "for _ in range(2):\n"
        "    numerics.integrate_adaptive(field, (0.0, 1.0), [1.0, 1.0])\n"
        "info = numerics._step_loop.cache_info()\n"
        "print(info.misses, info.hits)\n"
    )
    src = str(Path(numerics.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines() == ["0", "1 1"]
