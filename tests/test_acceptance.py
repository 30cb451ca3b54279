"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import RNG_SEED
from oracles import kato_continuation, limit_G_minus, limit_G_plus, stable_left_eig
from zndevans.errors import ChapmanJouguetError
from zndevans.evans import duality_check, evaluate
from zndevans.modelbench import (
    C_COLUMNS,
    LAMBDA_ROWS,
    ModelParams,
    model_oracle,
    reproduce_table,
    run_cell,
)
from zndevans.spectral import left_mode_residual, stable_left_mode
from zndevans.stability import count_unstable
from zndevans.znd import (
    build_wave,
    default_config,
    nonreactive_config,
    profile_at,
    sonic_heat_release,
)

def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def tables():
    t0 = time.time()
    t1 = reproduce_table(1, tol=1e-5)
    t1_seconds = time.time() - t0
    t2 = reproduce_table(2, tol=1e-5)
    return t1, t2, t1_seconds


@pytest.fixture(scope="module")
def default_wave():
    return build_wave(default_config())


def test_criterion_1_factored_table_reproduction(tables):
    table1, _, seconds = tables
    ratios = {}
    for direction in ("forward", "backward"):
        counts = table1.counts(direction)
        ref = table1.reference(direction)
        ratios[direction] = counts / ref
    in_window = all(
        float(np.min(r)) >= 0.5 and float(np.max(r)) <= 2.0 for r in ratios.values()
    )
    cf, cb = table1.counts("forward"), table1.counts("backward")
    r64 = cb[3, 0] / cf[3, 0]
    r256 = cb[4, 0] / cf[4, 0]
    ratio_ok = r64 >= 3.0 and r256 >= 3.0
    time_ok = seconds < 60.0
    ok = report(
        1,
        in_window and ratio_ok and time_ok,
        f"33 cells x2 window: fwd [{ratios['forward'].min():.2f},"
        f"{ratios['forward'].max():.2f}], bwd [{ratios['backward'].min():.2f},"
        f"{ratios['backward'].max():.2f}]; bwd/fwd at lam=64,256 (c=10): "
        f"{r64:.1f}, {r256:.1f} (>=3); runtime {seconds:.1f}s (<60s)",
    )
    assert ok


def test_criterion_2_unfactored_table_reproduction(tables):
    table1, table2, _ = tables
    ratios = {}
    for direction in ("forward", "backward"):
        ratios[direction] = table2.counts(direction) / table2.reference(direction)
    in_window = all(
        float(np.min(r)) >= 0.5 and float(np.max(r)) <= 2.0 for r in ratios.values()
    )
    cf, cb = table2.counts("forward"), table2.counts("backward")
    dir_mismatch = float(np.max(np.maximum(cf / cb, cb / cf)))
    speedup = table2.counts("forward")[4, 0] / table1.counts("forward")[4, 0]
    ok = report(
        2,
        in_window and dir_mismatch <= 1.5 and speedup >= 1.5,
        f"x2 window: fwd [{ratios['forward'].min():.2f},{ratios['forward'].max():.2f}], "
        f"bwd [{ratios['backward'].min():.2f},{ratios['backward'].max():.2f}]; "
        f"fwd/bwd mismatch {dir_mismatch:.2f} (<=1.5); factored speedup at "
        f"lam=256: x{speedup:.1f} (>=1.5)",
    )
    assert ok


def test_criterion_3_model_oracle():
    t0 = time.time()
    worst_tight = worst_relaxed = 0.0
    for lam in LAMBDA_ROWS:
        for c in C_COLUMNS:
            params = ModelParams(c_decay=c, lam=lam, tol=1e-8)
            cell = run_cell(params, "factored", "forward")
            got = cell.endpoint_value()[1]
            want = model_oracle(params)
            rel = abs(got - want) / abs(want)
            if abs(complex(lam).imag) >= 64.0:
                worst_relaxed = max(worst_relaxed, rel)
            else:
                worst_tight = max(worst_tight, rel)
    seconds = time.time() - t0
    ok = report(
        3,
        worst_tight < 1e-4 and worst_relaxed < 1e-3 and seconds < 5.0,
        f"endpoint vs lam/(c(lam+2)): worst {worst_tight:.2e} (<1e-4), "
        f"high-|Im| rows {worst_relaxed:.2e} (<1e-3); runtime {seconds:.2f}s (<5s)",
    )
    assert ok


def test_criterion_4_eigenmode_residual_and_cross_checks(random_waves):
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_res = 0.0
    worst_eig = 0.0
    worst_kato = 0.0
    for wave in random_waves:
        for _ in range(50):
            lam = complex(rng.uniform(1e-3, 10.0), rng.uniform(-100.0, 100.0))
            worst_res = max(worst_res, left_mode_residual(wave, lam))
        for _ in range(10):
            lam = complex(rng.uniform(0.05, 10.0), rng.uniform(-50.0, 50.0))
            ell, g = stable_left_mode(wave, lam)
            g_num, ell_num, _ = stable_left_eig(wave, lam)
            ell_num = ell_num / ell_num[2]
            worst_eig = max(worst_eig, float(np.max(np.abs(ell - ell_num)) / np.max(np.abs(ell))))
        path = np.linspace(0.8, 3.0, 6) + 1.2j
        for lam, v in zip(path, kato_continuation(wave, path)):
            ell, _ = stable_left_mode(wave, lam)
            v = v / v[2]
            worst_kato = max(worst_kato, float(np.max(np.abs(v - ell)) / np.max(np.abs(ell))))
    ok = report(
        4,
        worst_res < 1e-10 and worst_eig < 1e-8 and worst_kato < 1e-6,
        f"left-eigenpair residual {worst_res:.2e} (<1e-10) over 5x50 lam; "
        f"eigensolver agreement {worst_eig:.2e}; Kato ratio constancy "
        f"{worst_kato:.2e} (<1e-6)",
    )
    assert ok


def test_criterion_5_subspace_counts(random_waves):
    rng = np.random.default_rng(RNG_SEED + 2)
    ok_all = True
    for wave in random_waves:
        for _ in range(20):
            lam = complex(rng.uniform(0.02, 8.0), rng.uniform(-60.0, 60.0))
            n_minus = int(np.sum(np.linalg.eigvals(limit_G_minus(wave, lam)).real > 0))
            n_plus = int(np.sum(np.linalg.eigvals(limit_G_plus(wave, lam)).real > 0))
            ok_all = ok_all and n_minus == 3 and n_plus == 4
    ok = report(
        5,
        ok_all,
        "unstable eigencounts (r=1): burned side 3, unburned side 4, at 20 "
        "random Re(lam)>0 frequencies for each of 5 random overdriven waves",
    )
    assert ok


def test_criterion_6_profile_correctness(random_waves):
    worst = 0.0
    for wave in random_waves:
        cfg = wave.config
        ys = -np.logspace(-3, math.log10(40.0 / cfg.K), 100)
        for y in ys:
            st = profile_at(wave, y)
            rho, u, e, Y = st.rho, st.u, st.e, st.Y
            r1 = (rho * u + wave.m) / wave.m
            r2 = (u + cfg.Gamma * e / u - wave.rh_b) / abs(wave.rh_b)
            r3 = (0.5 * u * u + (cfg.Gamma + 1.0) * e + cfg.q * Y - wave.rh_c) / abs(wave.rh_c)
            worst = max(worst, abs(r1), abs(r2), abs(r3))
    shock = build_wave(nonreactive_config())
    states = [profile_at(shock, y) for y in np.linspace(-8.0, 0.0, 25)]
    const_dev = max(
        max(abs(s.rho - states[0].rho), abs(s.u - states[0].u), abs(s.e - states[0].e))
        for s in states
    )
    base = default_config()
    q_analytic = sonic_heat_release(base)

    def overdriven(q):
        try:
            build_wave(replace(base, q=q))
            return True
        except ChapmanJouguetError:
            return False

    lo, hi = 0.5, 20.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if overdriven(mid) else (lo, mid)
    q_located = 0.5 * (lo + hi)
    discs = [
        build_wave(replace(base, q=q)).discriminant_min
        for q in np.linspace(0.5, 9.5, 10)
    ]
    monotone = bool(np.all(np.diff(discs) < 0.0))
    ok = report(
        6,
        worst < 1e-10 and const_dev < 1e-14 and abs(q_located - q_analytic) < 1e-7 and monotone,
        f"jump-relation residuals {worst:.2e} (<1e-10) at 100 y points x 5 "
        f"configs; q=0 profile constant to {const_dev:.1e} (<1e-14); sonic "
        f"q located to {abs(q_located - q_analytic):.1e} with monotone "
        f"discriminant crossing",
    )
    assert ok


def test_criterion_7_duality_invariant(default_wave):
    lams = (0.5 + 0.5j, 1.0 + 1.0j, 2.0 - 1.0j, 0.8 + 3.0j, 1.5 + 0.1j)
    devs_8 = [duality_check(default_wave, lam, tol=1e-8) for lam in lams]
    devs_9 = [duality_check(default_wave, lam, tol=1e-9) for lam in lams]
    ok = report(
        7,
        max(devs_8) < 1e-5 and max(devs_9) < max(devs_8),
        f"pairing constancy deviation {max(devs_8):.2e} (<1e-5) at tol 1e-8 "
        f"over 5 lam; tightens to {max(devs_9):.2e} at tol 1e-9",
    )
    assert ok


def test_criterion_8_method_agreement(default_wave):
    rng = np.random.default_rng(RNG_SEED + 3)
    worst = 0.0
    for _ in range(10):
        lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-3.0, 3.0))
        rn = evaluate(default_wave, lam, method="neutral", tol=1e-7)
        re_ = evaluate(default_wave, lam, method="erpenbeck", tol=1e-7)
        rl = evaluate(default_wave, lam, method="lee_stewart", tol=1e-7)
        worst = max(
            worst,
            abs(re_.D * re_.kappa_to_neutral - rn.D) / abs(rn.D),
            abs(rl.D * rl.kappa_to_neutral - rn.D) / abs(rn.D),
        )
    windings = {
        method: count_unstable(default_wave, radius=2.0, method=method, tol=1e-5).winding
        for method in ("neutral", "erpenbeck", "lee_stewart")
    }
    agree = len(set(windings.values())) == 1
    ok = report(
        8,
        worst < 1e-3 and agree,
        f"determinant agreement after scalar factors {worst:.2e} (<1e-3) at "
        f"10 lam; radius-2 semicircle windings {windings} agree exactly",
    )
    assert ok


def test_criterion_9_m_robustness_and_analyticity(default_wave):
    worst_m = 0.0
    for lam in (1.0 + 1.0j, 0.5 - 2.0j, 2.0 + 0.3j):
        d1 = evaluate(default_wave, lam, method="neutral", M=default_wave.M_y, tol=1e-10).D
        d2 = evaluate(default_wave, lam, method="neutral", M=default_wave.M_y + 2.0, tol=1e-10).D
        worst_m = max(worst_m, abs(d1 - d2) / abs(d1))
    h = 1e-3
    worst_cr = 0.0
    for lam0 in (1.0 + 1.0j, 2.0 - 1.5j, 0.7 + 2.5j):
        vals = {
            tag: evaluate(default_wave, lam0 + dz, method="neutral", tol=1e-9).D
            for tag, dz in (("px", h), ("mx", -h), ("py", 1j * h), ("my", -1j * h))
        }
        dbar = ((vals["px"] - vals["mx"]) + 1j * (vals["py"] - vals["my"])) / (4.0 * h)
        dlam = ((vals["px"] - vals["mx"]) - 1j * (vals["py"] - vals["my"])) / (4.0 * h)
        d0 = evaluate(default_wave, lam0, method="neutral", tol=1e-9).D
        worst_cr = max(worst_cr, abs(dbar) / (abs(dlam) + abs(d0)))
    ok = report(
        9,
        worst_m < 1e-6 and worst_cr < 1e-4,
        f"|D(M)-D(M+2)|/|D| = {worst_m:.2e} (<1e-6) at M=M_y; "
        f"Cauchy-Riemann residual {worst_cr:.2e} (<1e-4) on the test disk",
    )
    assert ok


def test_superiority_trend(tables):
    # module invariant, not a numbered criterion: the factored forward run
    # never needs more mesh than the unfactored forward run once |lam| >= 16
    table1, table2, _ = tables
    f1 = table1.counts("forward")
    f2 = table2.counts("forward")
    rows = [i for i, lam in enumerate(LAMBDA_ROWS) if abs(complex(lam)) >= 16.0]
    assert all(f1[i, j] <= f2[i, j] for i in rows for j in range(3))
