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

from oracles import fifth_order_frame, first_order_frame, fourth_order_frame, second_order_frame
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


# The same at the fixed depth M_y, where Y = 1e-5, each method started
# from the first-order corrected burned-end mode, which oracles'
# first_order_frame builds as spectral.make_frame once did.  A change meant
# to keep the solves must keep every count and move D only by summation
# order.
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
def test_evans_D_and_counts_pinned_corrected_start(wave, monkeypatch, method, lam, tol, accepted,
                                                   rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", first_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=tol, M=wave.M_y)
    s = r.stats
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same from the second-order corrected start, which oracles'
# second_order_frame builds as spectral.make_frame once did.
PINNED_D_SECOND_ORDER = [
    ('neutral', (1+1j), 1e-05, 35, 3, 229, (-47.80934723139183-36.46158166263041j)),
    ('neutral', (1+1j), 1e-08, 128, 1, 775, (-47.80934353622273-36.46159860159694j)),
    ('neutral', (1+3j), 1e-05, 51, 3, 325, (-101.98391655303594-96.4094591606446j)),
    ('neutral', (1+3j), 1e-08, 182, 1, 1099, (-101.98388943705082-96.40948215115631j)),
    ('neutral', (4+10j), 1e-05, 132, 10, 853, (-243.90952990101852+148.6814422358409j)),
    ('neutral', (4+10j), 1e-08, 397, 1, 2389, (-243.90954619682861+148.6814112473402j)),
    ('neutral', (0.1+30j), 1e-05, 582, 2, 3505, (1363.3038352422059-796.2748701863391j)),
    ('neutral', (0.1+30j), 1e-08, 918, 3, 5527, (1363.297597828814-796.2871318640628j)),
    ('erpenbeck', (1+1j), 1e-05, 68, 0, 409, (-47.809568179598394-36.460404336217984j)),
    ('erpenbeck', (1+1j), 1e-08, 281, 0, 1687, (-47.809344231524506-36.46159749948602j)),
    ('erpenbeck', (1+3j), 1e-05, 151, 0, 907, (-101.98503309644211-96.41678531973842j)),
    ('erpenbeck', (1+3j), 1e-08, 609, 0, 3655, (-101.98388736765585-96.40948935861712j)),
    ('erpenbeck', (4+10j), 1e-05, 503, 0, 3019, (-243.9605553387185+148.69442959942566j)),
    ('erpenbeck', (4+10j), 1e-08, 2046, 0, 12277, (-243.90959843664172+148.68140154694402j)),
    ('erpenbeck', (0.1+30j), 1e-05, 1437, 0, 8623, (1362.9080943054526-795.5076798131072j)),
    ('erpenbeck', (0.1+30j), 1e-08, 5711, 0, 34267, (1363.296941290692-796.2865961667652j)),
    ('lee_stewart', (1+1j), 1e-05, 87, 0, 523, (304959131.2995123+477848473.3462831j)),
    ('lee_stewart', (1+1j), 1e-08, 339, 0, 2035, (304957028.54752696+477851178.3407799j)),
    ('lee_stewart', (1+3j), 1e-05, 166, 0, 997, (-314795240.44282037+1285169275.808888j)),
    ('lee_stewart', (1+3j), 1e-08, 651, 0, 3907, (-314757857.8521104+1285142091.4241657j)),
    ('lee_stewart', (4+10j), 1e-05, 521, 0, 3127, (2.2220884839711035e+30-3.967911474656971e+29j)),
    ('lee_stewart', (4+10j), 1e-08, 2093, 0, 12559, (2.221728550825596e+30-3.9684021555248155e+29j)),
    ('lee_stewart', (0.1+30j), 1e-05, 1547, 4, 9307, (-6561.820380063771-4333.173957868473j)),
    ('lee_stewart', (0.1+30j), 1e-08, 6269, 0, 37615, (-6565.231538756066-4333.243117957846j)),
]


@pytest.mark.parametrize("method, lam, tol, accepted, rejected, nfev, D", PINNED_D_SECOND_ORDER,
                         ids=[f"{row[0]}-{row[1]}-{row[2]:g}" for row in PINNED_D_SECOND_ORDER])
def test_evans_D_and_counts_pinned_second_order_start(wave, monkeypatch, method, lam, tol, accepted,
                                                      rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", second_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=tol, M=wave.M_y)
    s = r.stats
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the default depth, which first_order_frame picks from tol
# and lambda by the first-order rule: the benchmark's four evans_points
# nodes at tol 1e-5, with the depth M each solve ran at.
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
def test_evans_D_and_counts_pinned_default_depth(wave, monkeypatch, method, lam, M, accepted,
                                                 rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", first_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert abs(r.M - M) <= 1e-12 * M
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the depth second_order_frame picks by the second-order rule.
# That rule reads |v2| at M_y, the solution of a right-hand side that
# cancels to 1e-5 of its terms, so M is pinned to 1e-10 rather than 1e-12.
PINNED_D_SECOND_ORDER_DEFAULT_DEPTH = [
    ('neutral', (1+1j), 2.3025850929940455, 23, 1, 145, (-47.809348668419744-36.461583805430394j)),
    ('neutral', (1+3j), 2.4339891873175206, 33, 1, 205, (-101.98392600762811-96.40945118348014j)),
    ('neutral', (4+10j), 2.833834332946497, 82, 2, 505, (-243.90944181709193+148.68144847170447j)),
    ('neutral', (0.1+30j), 3.2534799104436085, 329, 3, 1993, (1363.2883071570805-796.2991468768165j)),
    ('erpenbeck', (1+1j), 2.3025850929940455, 30, 0, 181, (-47.80942381645216-36.46125884039575j)),
    ('erpenbeck', (1+3j), 2.4339891873175206, 65, 0, 391, (-101.98421448625633-96.41216861372136j)),
    ('erpenbeck', (4+10j), 2.833834332946497, 245, 0, 1471, (-243.9330506617994+148.68714629202285j)),
    ('erpenbeck', (0.1+30j), 3.2534799104436085, 800, 0, 4801, (1363.0800385486054-795.8569797932228j)),
    ('lee_stewart', (1+1j), 2.3025850929940455, 37, 0, 223, (-25827.711788380748-21536.958476625496j)),
    ('lee_stewart', (1+3j), 2.4339891873175206, 73, 0, 439, (46944.69672060467-103445.70034446447j)),
    ('lee_stewart', (4+10j), 2.833834332946497, 256, 0, 1537, (7167221955393519-8437624643826982j)),
    ('lee_stewart', (0.1+30j), 3.2534799104436085, 898, 4, 5413, (3257.238643307647-2116.0585052148926j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D",
                         PINNED_D_SECOND_ORDER_DEFAULT_DEPTH,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_SECOND_ORDER_DEFAULT_DEPTH])
def test_evans_D_and_counts_pinned_second_order_default_depth(wave, monkeypatch, method, lam, M,
                                                              accepted, rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", second_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert abs(r.M - M) <= 1e-10 * M
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the depth fourth_order_frame picks by the fourth-order rule:
# K M = ln(1/eps0) with eps0 = (0.1 tol)^(1/4) at 1+1i and 1+3i, and deeper
# at 4+10i and 0.1+30i, where the embedded estimate of the start's error
# exceeds 0.1 tol.  That estimate is a difference far smaller than the
# corrections it is formed from, so M is pinned to 1e-10 rather than 1e-12.
PINNED_D_FOURTH_ORDER_DEFAULT_DEPTH = [
    ('neutral', (1+1j), 1.7269388197455342, 19, 1, 121, (-47.809346836718596-36.46158208022188j)),
    ('neutral', (1+3j), 1.7269388197455342, 27, 1, 169, (-101.98392100526704-96.40946278359664j)),
    ('neutral', (4+10j), 2.090565383964451, 69, 1, 421, (-243.90954056460959+148.68145413568556j)),
    ('neutral', (0.1+30j), 2.550658423261164, 257, 2, 1555, (1363.2831209480341-796.28819984357j)),
    ('erpenbeck', (1+1j), 1.7269388197455342, 23, 0, 139, (-47.809396531795244-36.46139252540017j)),
    ('erpenbeck', (1+3j), 1.7269388197455342, 46, 0, 277, (-101.98404299857518-96.41121189288694j)),
    ('erpenbeck', (4+10j), 2.090565383964451, 180, 0, 1081, (-243.92621281424502+148.68531061738364j)),
    ('erpenbeck', (0.1+30j), 2.550658423261164, 621, 0, 3727, (1363.1288684916663-795.9538254874697j)),
    ('lee_stewart', (1+1j), 1.7269388197455342, 29, 0, 175, (-4045.529388835778+5320.234041085922j)),
    ('lee_stewart', (1+3j), 1.7269388197455342, 53, 0, 319, (10668.69914114843-11382.01686747093j)),
    ('lee_stewart', (4+10j), 2.090565383964451, 189, 0, 1135, (-2520105327144.355-541026159121.679j)),
    ('lee_stewart', (0.1+30j), 2.550658423261164, 713, 4, 4303, (-3067.681965210626+863.1305273184344j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D",
                         PINNED_D_FOURTH_ORDER_DEFAULT_DEPTH,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_FOURTH_ORDER_DEFAULT_DEPTH])
def test_evans_D_and_counts_pinned_fourth_order_default_depth(wave, monkeypatch, method, lam, M,
                                                              accepted, rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", fourth_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert abs(r.M - M) <= 1e-10 * M
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the depth fifth_order_frame picks by the fifth-order rule:
# K M = ln(1/eps0) with eps0 = (0.1 tol)^(1/5) at 1+1i and 1+3i, and deeper
# at 4+10i and 0.1+30i, where the estimate |zeta_5 - zeta_4| / |ell|
# exceeds 0.1 tol.  M is pinned to 1e-10 for the same reason as above.
PINNED_D_FIFTH_ORDER_DEFAULT_DEPTH = [
    ('neutral', (1+1j), 1.3815510557964275, 17, 0, 103, (-47.80934710338319-36.461581853640354j)),
    ('neutral', (1+3j), 1.3815510557964275, 23, 1, 145, (-101.98391596594745-96.40945937434859j)),
    ('neutral', (4+10j), 1.7102651114579563, 61, 1, 373, (-243.9095373559453+148.6814447068516j)),
    ('neutral', (0.1+30j), 2.1276608934282444, 216, 2, 1309, (1363.2854314323588-796.2776445644452j)),
    ('erpenbeck', (1+1j), 1.3815510557964275, 19, 0, 115, (-47.80938183337007-36.46146715558777j)),
    ('erpenbeck', (1+3j), 1.3815510557964275, 37, 0, 223, (-101.98396682682866-96.41075483613876j)),
    ('erpenbeck', (4+10j), 1.7102651114579563, 147, 0, 883, (-243.9227008565302+148.68437795806497j)),
    ('erpenbeck', (0.1+30j), 2.1276608934282444, 514, 0, 3085, (1363.1579039203505-796.0124946066435j)),
    ('lee_stewart', (1+1j), 1.3815510557964275, 24, 0, 145, (786.576248043087+2425.135002767811j)),
    ('lee_stewart', (1+3j), 1.3815510557964275, 43, 0, 259, (-5018.201851070254+3198.409850141964j)),
    ('lee_stewart', (4+10j), 1.7102651114579563, 155, 0, 931, (18687254756.316994-30992458733.849216j)),
    ('lee_stewart', (0.1+30j), 2.1276608934282444, 599, 4, 3619, (456.67811790382495-2792.3163146493966j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D",
                         PINNED_D_FIFTH_ORDER_DEFAULT_DEPTH,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_FIFTH_ORDER_DEFAULT_DEPTH])
def test_evans_D_and_counts_pinned_fifth_order_default_depth(wave, monkeypatch, method, lam, M,
                                                             accepted, rejected, nfev, D):
    monkeypatch.setattr(evans, "make_frame", fifth_order_frame)
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert abs(r.M - M) <= 1e-10 * M
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# The same at the depth spectral.make_frame picks from the series start:
# eps = min(eps0, (0.1 tol |ell| / |w_13|)^(1/13), eps*/2), which is eps0 =
# (0.1 tol)^(1/5) at all four nodes of the default wave, so every solve
# starts at K M = ln(1/eps0).  Lee-Stewart pairs shallower at that default
# (PINNED_D_LEE_STEWART_FAR_START), so its rows pass this M explicitly.
PINNED_D_SERIES_DEFAULT_DEPTH = [
    ('neutral', (1+1j), 1.3815510557964275, 17, 0, 103, (-47.80934708855763-36.461581861018274j)),
    ('neutral', (1+3j), 1.3815510557964275, 23, 1, 145, (-101.98391652187229-96.40945927516823j)),
    ('neutral', (4+10j), 1.3815510557964275, 53, 1, 325, (-243.90953148098825+148.6814455258487j)),
    ('neutral', (0.1+30j), 1.3815510557964275, 139, 1, 841, (1363.308377194015-796.2732720903771j)),
    ('erpenbeck', (1+1j), 1.3815510557964275, 19, 0, 115, (-47.80938181865086-36.46146716329653j)),
    ('erpenbeck', (1+3j), 1.3815510557964275, 37, 0, 223, (-101.98396738191597-96.41075473890947j)),
    ('erpenbeck', (4+10j), 1.3815510557964275, 118, 0, 709, (-243.91970885633953+148.68360696027247j)),
    ('erpenbeck', (0.1+30j), 1.3815510557964275, 327, 0, 1963, (1363.2086164561035-796.1145986914102j)),
    ('lee_stewart', (1+1j), 1.3815510557964275, 24, 0, 145, (786.5762473485665+2425.135002667134j)),
    ('lee_stewart', (1+3j), 1.3815510557964275, 43, 0, 259, (-5018.201852719612+3198.4098740191757j)),
    ('lee_stewart', (4+10j), 1.3815510557964275, 126, 0, 757, (-660081614.591395+645806218.9499354j)),
    ('lee_stewart', (0.1+30j), 1.3815510557964275, 397, 4, 2407, (811.2172972307441-2148.3333125229788j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D", PINNED_D_SERIES_DEFAULT_DEPTH,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_SERIES_DEFAULT_DEPTH])
def test_evans_D_and_counts_pinned_series_default_depth(wave, method, lam, M, accepted, rejected,
                                                        nfev, D):
    r = evans.evaluate(wave, lam, method=method, tol=1e-5, M=M if method == "lee_stewart" else None)
    s = r.stats
    assert abs(r.M - M) <= 1e-12 * M
    assert (s.accepted_steps, s.rejected_steps, s.rhs_evaluations) == (accepted, rejected, nfev)
    assert abs(r.D - D) <= 1e-10 * abs(D)


# Lee-Stewart at the default depth: at every node the first neglected term
# of the start at the uncapped depth M_far, (0.1 tol |ell| / |w_13|)^(1/13)
# in eps, paired with the solution there, is within 0.2 tol |D|, so the
# solve pairs at M_far and stops there.
PINNED_D_LEE_STEWART_FAR_START = [
    ('lee_stewart', (1+1j), 0.5019741731135297, 12, 0, 73, (96.35721037745294-210.56583053916435j)),
    ('lee_stewart', (1+3j), 0.553644117852398, 21, 0, 127, (-298.67059291062276+543.4720716656464j)),
    ('lee_stewart', (4+10j), 0.761938782989666, 72, 0, 433, (-504952.12491171923-885379.6787552766j)),
    ('lee_stewart', (0.1+30j), 0.9978333050119588, 294, 2, 1777, (-45.03671453655295-2064.992256805346j)),
]


@pytest.mark.parametrize("method, lam, M, accepted, rejected, nfev, D", PINNED_D_LEE_STEWART_FAR_START,
                         ids=[f"{row[0]}-{row[1]}" for row in PINNED_D_LEE_STEWART_FAR_START])
def test_evans_D_and_counts_pinned_lee_stewart_far_start(wave, method, lam, M, accepted, rejected,
                                                         nfev, D):
    r = evans.evaluate(wave, lam, method=method, tol=1e-5)
    s = r.stats
    assert r.M == spectral.make_frame(wave, lam, 1e-5).M_far
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
