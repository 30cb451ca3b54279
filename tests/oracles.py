"""Matrix-based reference computations the tests compare the library against.

The library applies the linearized operator only through the closed-form
kernel :func:`zndevans.spectral.rhs_kernel`.  The oracles here build the
same operator the textbook way, from the Jacobian matrices of
:func:`zndevans.spectral.jacobians` and a LAPACK solve (for the burned-end
start, :func:`series_start_mp`, from the same entries in 40-digit mpmath),
and cross-check the analytic stable left mode with an eigensolver and a
Kato-ODE continuation.  The earlier designs of
:func:`zndevans.spectral.make_frame` are kept here too, so that pins
recorded with them still reproduce.
The profile is evaluated term by term from the config, as a reference for
the per-wave constants :func:`zndevans.znd.profile_at` reads.  They lie on
no result path.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import cache

import numpy as np

from zndevans import znd
from zndevans.errors import NumericalDomainError
from zndevans.spectral import (
    _ORDER,
    SpectralFrame,
    check_depth,
    jacobians,
    jump_vector,
    rhs_kernel,
    stable_left_mode,
)
from zndevans.znd import (
    Y_AT_M_Y,
    GasWaveConfig,
    StateW,
    SteadyWave,
    fluxes,
    profile_at,
    profile_deriv,
    reaction_psi,
)

_COND_LIMIT = 1e12


class BranchAmbiguityError(NumericalDomainError):
    """Eigenvalue branches of the limit matrix collide along a continuation path."""

    def __init__(self, lam: complex, message: str = ""):
        super().__init__(message or f"eigenvalue branch ambiguity at lambda={lam:.6g}")
        self.lam = lam


def finite_difference_check(state: StateW, cfg: GasWaveConfig, rel=1e-6) -> None:
    """Compare every entry of :func:`jacobians` with central finite
    differences of :func:`zndevans.znd.fluxes`; AssertionError beyond ``rel``."""
    A0, A1, C = jacobians(state, cfg)
    w0 = state.as_vector()
    n = w0.size
    num = np.zeros((3, n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(w0[j]))
        wp, wm = w0.copy(), w0.copy()
        wp[j] += h
        wm[j] -= h
        sp = StateW(*wp)
        sm = StateW(*wm)
        for k, (fp, fm) in enumerate(zip(fluxes(sp, cfg), fluxes(sm, cfg))):
            num[k, :, j] = (fp - fm) / (2.0 * h)
    for name, analytic, numeric in (("A0", A0, num[0]), ("A1", A1, num[1]), ("C", C, num[2])):
        scale = np.max(np.abs(numeric)) + 1.0
        worst = np.max(np.abs(analytic - numeric)) / scale
        if worst > rel:
            raise AssertionError(
                f"jacobian {name} disagrees with finite differences by {worst:.2e}"
            )


def apply_A0(state: StateW, v) -> list:
    """A0 v in closed form for four numbers v; a list.  The reference for the
    A0 products that :func:`zndevans.spectral.rhs_kernel` and Erpenbeck's
    field form inline."""
    rho, u, e, Y = state
    v0, v1, v2, v3 = v
    return [
        v0,
        u * v0 + rho * v1,
        (e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2,
        Y * v0 + rho * v3,
    ]


def _quadrature_integrand(lam: complex, state: StateW, deriv, z) -> complex:
    """lam z . A0 (profile)', Erpenbeck's integrand, at a profile state and
    its y-derivative ``deriv``: what the tails of the oracle frames below
    fit, as make_frame fitted it before its tail came in closed form."""
    rho, u, e, Y = state
    v0, v1, v2, v3 = deriv
    z0, z1, z2, z3 = z
    return lam * (z0 * v0 + z1 * (u * v0 + rho * v1)
                  + z2 * ((e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2)
                  + z3 * (Y * v0 + rho * v3))


def G_at_state(state: StateW, cfg: GasWaveConfig, lam: complex, reacting: bool) -> np.ndarray:
    """G = (-lam A0 + C) A1^{-1} from the Jacobian matrices (C = 0 if not reacting)."""
    A0, A1, C = jacobians(state, cfg)
    if not reacting:
        C = np.zeros_like(C)
    if np.linalg.cond(A1) > _COND_LIMIT:
        raise NumericalDomainError(
            f"flux Jacobian condition number exceeds {_COND_LIMIT:g} at state "
            f"(rho={state.rho:.4g}, u={state.u:.4g}, e={state.e:.4g})"
        )
    M = -lam * A0 + C.astype(complex)
    # G = M A1^{-1}, computed by solving A1^T G^T = M^T
    return np.linalg.solve(A1.T.astype(complex), M.T).T


def limit_G_minus(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Burned-end limit of G (x -> -inf).

    The reactant is exhausted there (Y = 0 exactly), so the reactant row of
    the gas columns is exactly zero and G_minus is upper block-triangular.
    """
    return G_at_state(wave.burned, wave.config, lam, reacting=True)


def limit_G_plus(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Unburned-end limit of G (x > 0): no reaction, so C = 0 there."""
    cfg = wave.config
    up = cfg.upstream
    state = StateW(up.rho, up.u, up.e, 1.0)
    return G_at_state(state, cfg, lam, reacting=False)


def _adjoint_parts_mp(wave: SteadyWave, eps) -> tuple:
    """(P, Q, sigma) with A = lam P + Q + shift sigma I the factored adjoint
    field -sigma (G^T - shift I) at the profile point Y = eps, for
    complex eps, in mpmath at the working precision: the Jacobians of
    :func:`zndevans.spectral.jacobians` written out entry by entry, G^T =
    A1^{-T} (-lam A0 + C)^T, and the profile's closed form in eps from the
    wave's double constants, taken as exact."""
    import mpmath as mp  # imported here, so that only the tests using it need it
    cfg = wave.config
    Gamma, q, EA, K = (mp.mpf(x) for x in (cfg.Gamma, cfg.q, cfg.EA, cfg.K))
    m, b, center = (mp.mpf(x) for x in (wave.m, wave.rh_b, wave._branch[8]))
    u = center + mp.sqrt(mp.mpf(wave.discriminant_min) + 2 * Gamma * q / (Gamma + 2) * eps)
    rho, e, Y = -m / u, (b * u - u * u) / Gamma, eps
    E = e + u * u / 2
    A0 = mp.matrix([[1, 0, 0, 0], [u, rho, 0, 0], [E, rho * u, rho, 0], [Y, 0, 0, rho]])
    A1 = mp.matrix([[u, rho, 0, 0],
                    [u * u + Gamma * e, 2 * rho * u, Gamma * rho, 0],
                    [(E + Gamma * e) * u, rho * (e + 3 * u * u / 2) + Gamma * rho * e,
                     (rho + Gamma * rho) * u, 0],
                    [Y * u, Y * rho, 0, rho * u]])
    phi = mp.exp(-EA / ((Gamma + 1) * e))
    psi = rho * phi
    dpsi_de = psi * EA / ((Gamma + 1) * e * e)
    source = mp.matrix([[0, 0, 0, 0], [0, 0, 0, 0], [q * K * Y * phi, 0, q * K * Y * dpsi_de, q * K * psi],
                        [-K * Y * phi, 0, -K * Y * dpsi_de, -K * psi]])
    sigma = m / psi
    inv = mp.inverse(A1.T)
    return sigma * inv * A0.T, -sigma * inv * source.T, sigma


_CAUCHY_POINTS = 32


@cache
def adjoint_series_mp(wave: SteadyWave) -> tuple:
    """The Taylor coefficients (P_j, Q_j, sigma_j), j = 0.._ORDER + 1, of
    :func:`_adjoint_parts_mp` in eps, as 40-digit mpmath values: Cauchy
    sums over 32 points of the circle |eps| = r, r = min(eps*/4, 1/4),
    with eps* the sonic branch point; the aliased terms are 4^-32 of each
    coefficient.  No power-series arithmetic: an oracle for
    :func:`zndevans.spectral.adjoint_series`."""
    import mpmath as mp
    with mp.workdps(40):
        cfg = wave.config
        a = mp.mpf(2) * cfg.Gamma * cfg.q / (cfg.Gamma + 2)
        r = mp.mpf(0.25) if a == 0 else min(mp.mpf(wave.discriminant_min) / a / 4, mp.mpf(0.25))
        roots = [mp.expjpi(mp.mpf(2 * i) / _CAUCHY_POINTS) for i in range(_CAUCHY_POINTS)]
        samples = [_adjoint_parts_mp(wave, r * z) for z in roots]
        out = []
        for j in range(_ORDER + 2):
            weights = [z ** -j / (_CAUCHY_POINTS * r ** j) for z in roots]
            out.append(tuple(sum((w * s[i] for w, s in zip(weights, samples)), start=0 * samples[0][i])
                             for i in range(3)))
        return out


def series_start_mp(wave: SteadyWave, lam: complex, M: float) -> tuple[np.ndarray, complex]:
    """The start ``(zeta, tail)`` of :func:`zndevans.spectral.make_frame` at
    depth ``M`` in 40-digit mpmath: with A_j = lam P_j + Q_j + g_minus
    sigma_j I from :func:`adjoint_series_mp`,

        (kK I - A_0) w_k = sum_{j=1..k} A_j w_{k-j},  k = 1.._ORDER,

    w_0 = ell, each solved by mpmath's LU, zeta = sum_k eps^k w_k with
    eps = exp(-K M), and tail = zeta . R at Y = eps, with the reaction
    source R = (0, 0, q, -1) K Y psi.  ell and g_minus are the library's
    doubles, taken as exact."""
    import mpmath as mp
    ell, g_minus = stable_left_mode(wave, lam)
    cfg = wave.config
    with mp.workdps(40):
        K = mp.mpf(cfg.K)
        lam_, g = mp.mpc(lam), mp.mpc(g_minus)
        eye = mp.eye(4)
        A = [lam_ * P + Q + g * sigma * eye for P, Q, sigma in adjoint_series_mp(wave)]
        w = [mp.matrix([mp.mpc(x) for x in ell])]
        for k in range(1, _ORDER + 1):
            F = sum((A[j] * w[k - j] for j in range(2, k + 1)), start=A[1] * w[k - 1])
            w.append(mp.lu_solve(k * K * eye - A[0], F))
        eps = mp.exp(-K * mp.mpf(M))
        zeta = sum((eps ** k * w[k] for k in range(1, _ORDER + 1)), start=w[0])
        _, _, sigma = _adjoint_parts_mp(wave, eps)
        tail = K * eps * (mp.mpf(wave.m) / sigma) * (mp.mpf(cfg.q) * zeta[2] - zeta[3])
        return np.array([complex(z) for z in zeta]), complex(tail)


# Exact weights of the fits B(t) = c_1 t + ... + c_n t^n through n values
# B_i at t_i = 2^-i, i < n: _FIT_WEIGHTS[n][j - 1][i] is the weight of B_i
# in c_j: the inverse of the Vandermonde matrix t_i^j, written as literals
# as the fitted starts of make_frame (orders 4 and 5) read them
_FIT_WEIGHTS = {
    1: ((1.0,),),
    2: ((-1.0, 4.0), (2.0, -4.0)),
    3: ((1 / 3, -4.0, 32 / 3), (-2.0, 20.0, -32.0), (8 / 3, -16.0, 64 / 3)),
    4: ((-1 / 21, 4 / 3, -32 / 3, 512 / 21), (2 / 3, -52 / 3, 352 / 3, -512 / 3),
        (-8 / 3, 176 / 3, -832 / 3, 1024 / 3), (64 / 21, -128 / 3, 512 / 3, -4096 / 21)),
    5: ((1 / 315, -4 / 21, 32 / 9, -512 / 21, 16384 / 315),
        (-2 / 21, 116 / 21, -96.0, 11776 / 21, -16384 / 21),
        (8 / 9, -48.0, 6464 / 9, -3072.0, 32768 / 9),
        (-64 / 21, 2944 / 21, -1536.0, 118784 / 21, -131072 / 21),
        (1024 / 315, -2048 / 21, 8192 / 9, -65536 / 21, 1048576 / 315)),
}


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _fitted_rhs(k: int, n: int, Bs: list) -> list:
    """F_k = sum_{m<k} c_{k-m}(v_m) of an order-n start, c_j(v_m) the fit
    through the first n - m vectors of Bs[m], summed as make_frame summed it
    when its start was of fourth order."""
    f0 = f1 = f2 = f3 = 0.0
    for m in range(k):
        for w, (b0, b1, b2, b3) in zip(_FIT_WEIGHTS[n - m][k - 1 - m], Bs[m]):
            f0 += w * b0
            f1 += w * b1
            f2 += w * b2
            f3 += w * b3
    return [f0, f1, f2, f3]


def first_order_frame(wave: SteadyWave, lam: complex, tol: float, M: float | None = None) -> SpectralFrame:
    """:func:`zndevans.spectral.make_frame` as it was before its start went
    to second order, with the same floating-point operations, so that pins
    recorded then still reproduce.  The start is ell + w with
    (K I - A_inf) w = A(-M) ell, solved by cofactors; without ``M`` the
    depth is ln(1/eps)/K with eps = min(1e-2, 0.5 sqrt(tol),
    sqrt(0.1 tol) / rho1), rho1 = |w| / (1e-5 |ell|) measured at ``M_y``;
    and the tail is the integrand at -M over K - g_minus sigma_inf."""
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    K = wave.config.K
    a = [kernel(wave.burned, e) for e in np.eye(4).tolist()]
    rows = [[(K if i == j else 0.0) - a[j][i] for j in range(3)] for i in range(3)]
    inv_cols = [_cross(rows[1], rows[2]), _cross(rows[2], rows[0]), _cross(rows[0], rows[1])]
    det = sum(r * c for r, c in zip(rows[0], inv_cols[0]))

    def start(depth: float):
        state = profile_at(wave, -depth)
        F = kernel(state, ell.tolist())
        w = [sum(F[j] * inv_cols[j][i] for j in range(3)) / det for i in range(3)]
        w.append((F[3] + a[2][3] * w[2]) / (K - a[3][3]))
        return state, ell + np.array(w)

    if M is None:
        _, zeta = start(wave.M_y)
        rho1 = float(np.linalg.norm(zeta - ell) / (Y_AT_M_Y * np.linalg.norm(ell)))
        eps = min(1e-2, 0.5 * math.sqrt(tol))
        eps_bound = math.sqrt(0.1 * tol)
        if rho1 * eps > eps_bound:
            eps = eps_bound / rho1
        M = math.log(1.0 / eps) / K
    state, zeta = start(M)
    integrand = _quadrature_integrand(lam, state, profile_deriv(wave, -M), zeta.tolist())
    sigma_inf = wave.m / reaction_psi(wave.burned, wave.config)
    tail = integrand / (K - g_minus * sigma_inf)
    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail)


def _cofactor_inverse(a: list, kK: float):
    """F -> (kK I - A_inf)^{-1} F by cofactors, as make_frame solved it up
    to its fourth-order start, with a[j][i] the entry (i, j) of A_inf."""
    rows = [[(kK if i == j else 0.0) - a[j][i] for j in range(3)] for i in range(3)]
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        _cross(rows[1], rows[2]), _cross(rows[2], rows[0]), _cross(rows[0], rows[1]))
    det = rows[0][0] * c00 + rows[0][1] * c01 + rows[0][2] * c02
    a32, a33 = a[2][3], kK - a[3][3]

    def solve(F: list) -> list:
        F0, F1, F2, F3 = F
        w2 = (F0 * c02 + F1 * c12 + F2 * c22) / det
        return [(F0 * c00 + F1 * c10 + F2 * c20) / det,
                (F0 * c01 + F1 * c11 + F2 * c21) / det,
                w2,
                (F3 + a32 * w2) / a33]

    return solve


def second_order_frame(wave: SteadyWave, lam: complex, tol: float,
                       M: float | None = None) -> SpectralFrame:
    """:func:`zndevans.spectral.make_frame` as it was before its start went
    to fourth order, with the same floating-point operations (the
    left-eigenpair check left out), so that pins recorded then still
    reproduce.  The start is ell + v1 + v2 with

        (K I - A_inf) v1 = 4 B(s2, ell) - B(s1, ell),
        (2K I - A_inf) v2 = B(s1, v1) + 2 B(s1, ell) - 4 B(s2, ell)

    at the states s1 at -M and s2 at -M - ln2/K; without ``M`` the depth is
    ln(1/eps)/K with eps^3 = 0.1 tol min(1, a1 / a2^2), a1 = |v1| /
    (1e-5 |ell|) and a2 = |v2| / (1e-10 |ell|) measured at ``M_y``; and the
    tail fits d1 s + d2 s^2 to the integrand at s = 1 and s = 1/2."""
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    burned = wave.burned
    ell_l = ell.tolist()
    inf_ell = kernel(burned, ell_l)
    K = wave.config.K
    a = [kernel(burned, e) for e in np.eye(4).tolist()]
    solve1, solve2 = _cofactor_inverse(a, K), _cofactor_inverse(a, 2.0 * K)
    half_life = math.log(2.0) / K

    def corrections(depth: float):
        s1 = profile_at(wave, -depth)
        s2 = profile_at(wave, -depth - half_life)
        B1 = [x - y for x, y in zip(kernel(s1, ell_l), inf_ell)]
        B2 = [x - y for x, y in zip(kernel(s2, ell_l), inf_ell)]
        F1 = [4.0 * b2 - b1 for b1, b2 in zip(B1, B2)]
        v1 = solve1(F1)
        F2 = [x - (K * v - f) + 2.0 * b1 - 4.0 * b2
              for x, v, f, b1, b2 in zip(kernel(s1, v1), v1, F1, B1, B2)]
        return s1, s2, v1, solve2(F2)

    if M is None:
        _, _, v1, v2 = corrections(wave.M_y)
        size = math.hypot(*map(abs, ell_l))
        a1 = math.hypot(*map(abs, v1)) / (Y_AT_M_Y * size)
        a2 = math.hypot(*map(abs, v2)) / (Y_AT_M_Y * Y_AT_M_Y * size)
        eps3 = 0.1 * tol
        if a2 * a2 > a1:
            eps3 *= a1 / (a2 * a2)
        M = math.log(1.0 / eps3) / (3.0 * K)
    s1, s2, v1, v2 = corrections(M)
    zeta = np.array([l + x + y for l, x, y in zip(ell_l, v1, v2)])

    def tail() -> complex:
        cfg = wave.config
        sigma_inf = wave.m / reaction_psi(burned, cfg)
        g_sigma = g_minus * sigma_inf
        h1 = _quadrature_integrand(lam, s1, profile_deriv(wave, -M), zeta)
        shift = cmath.exp(g_minus * (wave.m / reaction_psi(s1, cfg) - sigma_inf) / (2.0 * K))
        zeta2 = [l + 0.5 * x + 0.25 * y for l, x, y in zip(ell_l, v1, v2)]
        h2 = shift * _quadrature_integrand(lam, s2, profile_deriv(wave, -M - half_life), zeta2)
        d2 = 2.0 * (h1 - 2.0 * h2)
        return (h1 - d2) / (K - g_sigma) + d2 / (2.0 * K - g_sigma)

    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail())


def fourth_order_frame(wave: SteadyWave, lam: complex, tol: float,
                       M: float | None = None) -> SpectralFrame:
    """:func:`zndevans.spectral.make_frame` as it was before its start went
    to fifth order, with the same floating-point operations (the
    left-eigenpair check left out), so that pins recorded then still
    reproduce.  The start is ell + v1 + ... + v4, with the products with v_m
    fitted on the 4 - m states at -M - i ln2/K, i < 4; without ``M`` it is
    built at eps0 = (0.1 tol)^(1/4), and once more at eps0 0.9 (0.1 tol /
    est)^(1/4) if est = |zeta_4 - zeta_3| / |ell| exceeds 0.1 tol; and the
    tail is fitted on the same four states."""
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    burned = wave.burned
    ell_l = ell.tolist()
    inf_ell = kernel(burned, ell_l)
    K = wave.config.K
    a = [kernel(burned, e) for e in np.eye(4).tolist()]
    solves = [_cofactor_inverse(a, k * K) for k in (1.0, 2.0, 3.0, 4.0)]
    half_life = math.log(2.0) / K

    def start(depth: float):
        states = [profile_at(wave, -depth - i * half_life) for i in range(4)]
        vs, Bs = [ell_l], []
        inf_v = inf_ell
        for k in range(1, 5):
            Bs.append([[x - y for x, y in zip(kernel(s, vs[-1]), inf_v)] for s in states[:5 - k]])
            F = _fitted_rhs(k, 4, Bs)
            vs.append(solves[k - 1](F))
            inf_v = [k * K * v - f for v, f in zip(vs[-1], F)]
        return states, vs, Bs

    def estimate(vs: list, Bs: list) -> float:
        gap = [v1 + v2 + v3 + v4 for v1, v2, v3, v4 in zip(*vs[1:])]
        for k in range(1, 4):
            gap = [x - u for x, u in zip(gap, solves[k - 1](_fitted_rhs(k, 3, Bs)))]
        return math.hypot(*map(abs, gap)) / math.hypot(*map(abs, ell_l))

    if M is None:
        eps = (0.1 * tol) ** 0.25
        M = math.log(1.0 / eps) / K
        states, vs, Bs = start(M)
        est = estimate(vs, Bs)
        if est > 0.1 * tol:
            eps *= 0.9 * (0.1 * tol / est) ** 0.25
            M = math.log(1.0 / eps) / K
            states, vs, _ = start(M)
    else:
        states, vs, _ = start(M)
    zeta = np.array([sum(terms) for terms in zip(*vs)])

    def tail() -> complex:
        cfg = wave.config
        sigma_inf = wave.m / reaction_psi(burned, cfg)
        g_sigma = g_minus * sigma_inf
        sigmas = [sum(w * (wave.m / reaction_psi(s, cfg) - sigma_inf) for w, s in zip(ws, states))
                  for ws in _FIT_WEIGHTS[4]]
        H = []
        for i, state in enumerate(states):
            t = 0.5 ** i
            shift = cmath.exp(g_minus * sum(sj * (1.0 - t ** j) / (j * K)
                                            for j, sj in enumerate(sigmas, 1)))
            zeta_i = [sum(v * t ** k for k, v in enumerate(terms)) for terms in zip(*vs)]
            deriv = profile_deriv(wave, -M - i * half_life)
            H.append(shift * _quadrature_integrand(lam, state, deriv, zeta_i))
        d = [sum(w * h for w, h in zip(ws, H)) for ws in _FIT_WEIGHTS[4]]
        return sum(dk / (k * K - g_sigma) for k, dk in enumerate(d, 1))

    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail())


# The weights of the right-hand sides F_k = sum_{m<k} c_{k-m}(v_m) of the
# fifth-order start, over the differences B(s_i, v_m) laid out m by m,
# i < 5 - m: _RHS_WEIGHTS[n][k - 1] fits each product with v_m on its first
# n - m states, with weight 0 on the others, and sums the fits
_RHS_WEIGHTS = {
    n: tuple(tuple(_FIT_WEIGHTS[n - m][k - 1 - m][i] if i < n - m else 0.0
                   for m in range(k) for i in range(5 - m))
             for k in range(1, n + 1))
    for n in (4, 5)
}


def _mode_difference(wave: SteadyWave, lam: complex, shift: complex, ell: list):
    """(A(s) - A_inf) ell for the adjoint kernel A with ``shift``, from the
    differences of the state s to ``wave.burned``, as the fifth-order start
    formed it: never as the difference of two kernel values of size
    |lambda| |ell|.  Returns ``difference(state)``, four complex numbers."""
    cfg = wave.config
    Gamma, EA, R, K, q, m = cfg.Gamma, cfg.EA, cfg.Gamma + 1.0, cfg.K, cfg.q, wave.m
    rb, ub, eb, _ = wave.burned
    psi_b = reaction_psi(wave.burned, cfg)
    l0, l1, l2, l3 = ell
    lq = q * l2 - l3  # C^T ell = (q l2 - l3) times the nonzero row of C up to q

    def difference(state: StateW) -> list:
        rho, u, e, Y = state
        dr, du, de = rho - rb, u - ub, e - eb
        # the differences of rho u, u^2, e u, u^3, rho e and rho u^2
        d_ru = dr * u + rb * du
        d_uu = du * (u + ub)
        d_eu = de * u + eb * du
        d_uuu = du * (u * u + u * ub + ub * ub)
        d_re = dr * e + rb * de
        d_ruu = dr * u * u + rb * d_uu
        phi = math.exp(-EA / (R * e))  # arrhenius
        d_psi = dr * phi + psi_b * math.expm1(EA * de / (R * e * eb))
        # the differences of A0^T ell and A1^T ell
        a0 = du * l1 + (de + 0.5 * d_uu) * l2 + Y * l3
        a1 = dr * l1 + d_ru * l2
        b0 = (du * l0 + (d_uu + Gamma * de) * l1 + (R * d_eu + 0.5 * d_uuu) * l2
              + Y * u * l3)
        b1 = dr * l0 + 2.0 * d_ru * l1 + (R * d_re + 1.5 * d_ruu) * l2 + Y * rho * l3
        b2 = Gamma * dr * l1 + R * d_ru * l2
        c0 = K * Y * phi * lq
        P0 = -lam * a0 + c0 - shift * b0
        P1 = -lam * a1 - shift * b1
        P2 = -lam * dr * l2 + c0 * rho * EA / (R * e * e) - shift * b2
        P3 = -lam * dr * l3 + K * d_psi * lq - shift * d_ru * l3
        # -sigma(s) A1(s)^{-T} P, with A1's gas block solved by cofactors
        p_rho = Gamma * e
        p_e = Gamma * rho
        a10 = u * u + p_rho
        a11 = 2.0 * rho * u
        a12 = p_e
        a20 = (e + 0.5 * u * u + p_rho) * u
        a21 = rho * (e + 1.5 * u * u) + p_e * e
        a22 = (rho + p_e) * u
        k00 = a11 * a22 - a12 * a21
        k01 = a12 * a20 - a10 * a22
        k02 = a10 * a21 - a11 * a20
        k10 = -rho * a22
        k11 = u * a22
        k12 = rho * a20 - u * a21
        k20 = rho * a12
        k21 = -u * a12
        k22 = u * a11 - rho * a10
        det = u * k00 + rho * k01
        sig = m / (rho * phi)
        w3 = P3 / (rho * u)
        g = -sig / det
        return [g * (k00 * P0 + k01 * P1 + k02 * P2) + sig * Y * w3,
                g * (k10 * P0 + k11 * P1 + k12 * P2),
                g * (k20 * P0 + k21 * P1 + k22 * P2),
                -sig * w3]

    return difference


def fifth_order_frame(wave: SteadyWave, lam: complex, tol: float,
                      M: float | None = None) -> SpectralFrame:
    """:func:`zndevans.spectral.make_frame` as it was before its start came
    from the exact Taylor coefficients of the field, with the same
    floating-point operations (the left-eigenpair check left out), so that
    pins recorded then still reproduce.  The start is ell + v1 + ... + v5,
    with the products with v_m fitted on the 5 - m states at
    -M - i ln2/K, i < 5, and the products with ell taken from
    :func:`_mode_difference`; without ``M`` it is built at
    eps0 = (0.1 tol)^(1/5), and once more at eps0 0.9 (0.1 tol / est)^(1/5)
    if est = |zeta_5 - zeta_4| / |ell| exceeds 0.1 tol; and the tail is
    zeta . R at the state at -M."""
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    burned = wave.burned
    ell_l = ell.tolist()
    K = wave.config.K
    a = [kernel(burned, e) for e in np.eye(4).tolist()]
    solves = [_cofactor_inverse(a, k * K) for k in range(1, 6)]
    ell_difference = _mode_difference(wave, lam, g_minus, ell_l)
    half_life = math.log(2.0) / K

    def weighted(weights: tuple, Bc: tuple) -> list:
        return [sum(map(operator.mul, weights, c)) for c in Bc]

    def start(depth: float):
        states = [profile_at(wave, -depth - i * half_life) for i in range(5)]
        Bc = tuple(map(list, zip(*map(ell_difference, states))))
        vs = [ell_l]
        for k, weights in enumerate(_RHS_WEIGHTS[5], 1):
            F = weighted(weights, Bc)
            v = solves[k - 1](F)
            vs.append(v)
            if k < 5:
                inf_v = [k * K * x - f for x, f in zip(v, F)]
                for state in states[:5 - k]:
                    for c, x, y in zip(Bc, kernel(state, v), inf_v):
                        c.append(x - y)
        return states, vs, Bc

    def estimate(vs: list, Bc: tuple) -> float:
        gap = [sum(terms) for terms in zip(*vs[1:])]
        for solve, weights in zip(solves, _RHS_WEIGHTS[4]):
            gap = [x - u for x, u in zip(gap, solve(weighted(weights, Bc)))]
        return math.hypot(*map(abs, gap)) / math.hypot(*map(abs, ell_l))

    if M is None:
        eps = (0.1 * tol) ** (1.0 / 5)
        M = math.log(1.0 / eps) / K
        states, vs, Bc = start(M)
        est = estimate(vs, Bc)
        if est > 0.1 * tol:
            eps *= 0.9 * (0.1 * tol / est) ** (1.0 / 5)
            M = math.log(1.0 / eps) / K
            states, vs, _ = start(M)
    else:
        states, vs, _ = start(M)
    zeta = np.array([sum(terms) for terms in zip(*vs)])

    s0, q = states[0], wave.config.q
    tail = complex(K * s0.Y * reaction_psi(s0, wave.config) * (q * zeta[2] - zeta[3]))
    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail)


def stable_left_eig(wave: SteadyWave, lam: complex) -> tuple[complex, np.ndarray, np.ndarray]:
    """Numerically computed stable eigentriple (g, left, right) of G_minus.

    The stable branch is selected by Re(g/lambda) < 0, which picks the
    outgoing acoustic family uniquely on Re(lambda) >= 0.  A collision with
    another branch raises :class:`BranchAmbiguityError`.
    """
    G = limit_G_minus(wave, lam)
    gs, rights = np.linalg.eig(G)
    ratios = gs / lam
    candidates = [i for i in range(gs.size) if ratios[i].real < 0.0]
    if len(candidates) != 1:
        raise BranchAmbiguityError(lam, f"{len(candidates)} stable candidates at {lam!r}")
    i = candidates[0]
    gaps = np.abs(gs - gs[i])
    gaps[i] = np.inf
    if gaps.min() < 1e-12 * max(1.0, float(np.max(np.abs(gs)))):
        raise BranchAmbiguityError(lam, f"eigenvalue collision at lambda={lam!r}")
    gl, lefts = np.linalg.eig(G.T)
    j = int(np.argmin(np.abs(gl - gs[i])))
    return gs[i], lefts[:, j], rights[:, i]


def _projection(wave: SteadyWave, lam: complex) -> np.ndarray:
    g, left, right = stable_left_eig(wave, lam)
    scale = left @ right
    if abs(scale) < 1e-14:
        raise BranchAmbiguityError(lam, "defective stable eigenpair")
    return np.outer(right, left) / scale


def kato_continuation(wave: SteadyWave, lambda_path) -> list[np.ndarray]:
    """Analytically continue the stable left eigenvector along a lambda path.

    Starts from the closed-form normalized vector at the first node and
    integrates dl/dlam = l P'(lam) (I - P(lam)) with classical RK4 substeps,
    the eigenprojection derivative taken by a 4-point complex stencil.  The
    result at each node is parallel to the closed-form vector with a ratio
    analytic along the path.
    """
    path = [complex(z) for z in lambda_path]
    if not path:
        return []
    ell, _ = stable_left_mode(wave, path[0])
    out = [ell.copy()]

    def dP(lam: complex) -> np.ndarray:
        h = 1e-4 * (1.0 + abs(lam))
        Pp2 = _projection(wave, lam + 2 * h)
        Pp1 = _projection(wave, lam + h)
        Pm1 = _projection(wave, lam - h)
        Pm2 = _projection(wave, lam - 2 * h)
        return (-Pp2 + 8.0 * Pp1 - 8.0 * Pm1 + Pm2) / (12.0 * h)

    def rhs(lam: complex, v: np.ndarray) -> np.ndarray:
        P = _projection(wave, lam)
        return (v @ dP(lam)) @ (np.eye(P.shape[0]) - P)

    v = ell.copy()
    for a, b in zip(path[:-1], path[1:]):
        n_sub = max(1, int(math.ceil(abs(b - a) / 0.05)))
        h = (b - a) / n_sub
        lam = a
        for _ in range(n_sub):
            k1 = rhs(lam, v)
            k2 = rhs(lam + 0.5 * h, v + 0.5 * h * k1)
            k3 = rhs(lam + 0.5 * h, v + 0.5 * h * k2)
            k4 = rhs(lam + h, v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            lam = lam + h
        out.append(v.copy())
    return out


def gas_state(cfg: GasWaveConfig, m: float, b: float, c: float, Ybar: float) -> tuple[float, float, float]:
    """Subsonic-branch (rho, u, e) of the profile quadratic at reactant Ybar,
    formed from the config term by term; :func:`zndevans.znd.profile_at`
    evaluates the same root from per-wave constants."""
    center = znd._branch_center(cfg, b)
    u = center + math.sqrt(znd._discriminant(cfg, center, c, Ybar))
    return -m / u, u, (b * u - u * u) / cfg.Gamma


def gas_state_deriv(wave: SteadyWave, Ybar: float) -> tuple[float, float, float, float]:
    """d/dy of (rho, u, e, Y) at reactant Ybar through the same branch,
    term by term; the reference for :func:`zndevans.znd.profile_deriv`."""
    cfg = wave.config
    dY = cfg.K * Ybar
    center = znd._branch_center(cfg, wave.rh_b)
    disc = znd._discriminant(cfg, center, wave.rh_c, Ybar)
    u = center + math.sqrt(disc)
    du = cfg.Gamma * cfg.q / ((cfg.Gamma + 2.0) * math.sqrt(disc)) * dY
    return wave.m / (u * u) * du, du, (wave.rh_b - 2.0 * u) / cfg.Gamma * du, dY
