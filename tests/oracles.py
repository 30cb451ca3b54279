"""Matrix-based reference computations the tests compare the library against.

The library applies the linearized operator only through the closed-form
kernel :func:`zndevans.spectral.rhs_kernel`.  The oracles here build the
same operator the textbook way, from the Jacobian matrices of
:func:`zndevans.spectral.jacobians` and a LAPACK solve (for the burned-end
start, :func:`burned_start_solve`, from the same entries in long doubles),
and cross-check the analytic stable left mode with an eigensolver and a
Kato-ODE continuation.
The profile is evaluated term by term from the config, as a reference for
the per-wave constants :func:`zndevans.znd.profile_at` reads.  They lie on
no result path.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from zndevans import znd
from zndevans.errors import NumericalDomainError
from zndevans.spectral import (
    _FIT_WEIGHTS,
    SpectralFrame,
    check_depth,
    jacobians,
    jump_vector,
    make_frame,
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
    state = StateW(up.rho, up.u, up.e, cfg.Y0)
    return G_at_state(state, cfg, lam, reacting=False)


# a 64-bit mantissa on x86-64 Linux, against 53 for a double.  Where a long
# double is a double (Windows, macOS on ARM) the start oracle below is one:
# in doubles it parts from the library by 3e-12 of zeta at 2+300i on the
# default wave, beyond the 1e-12 of test_matches_solve_oracle
_LD = np.longdouble


def _exact_fit_weights(n: int) -> list:
    """W[j][i], the weight of value i in c_{j+1} of the fit sum_j c_j t^j
    through n values at t_i = 2^-i, i < n: the inverse of that Vandermonde
    matrix in exact rational arithmetic, rounded to long doubles."""
    rows = [[Fraction(1, 2 ** i) ** (j + 1) for j in range(n)]
            + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan; the pivots are nonzero
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [[_LD(w.numerator) / _LD(w.denominator) for w in row[n:]] for row in rows]


def _vandermonde_fit(values: list) -> list:
    """[c_1, ..., c_n] with sum_j c_j t_i^j = values[i] at t_i = 2^-i, i < n,
    with the weights of :func:`_exact_fit_weights`."""
    weights = _exact_fit_weights(len(values))
    return [sum(w * v for w, v in zip(ws, values)) for ws in weights]


def _solve_ld(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} B by Gauss-Jordan elimination with partial pivoting, in
    complex long doubles."""
    n = A.shape[0]
    M = np.concatenate([A, B.reshape(n, -1)], axis=1).astype(np.clongdouble)
    for c in range(n):
        p = c + int(np.argmax(np.abs(M[c:, c])))
        M[[c, p]] = M[[p, c]]
        M[c] = M[c] / M[c, c]
        for r in range(n):
            if r != c:
                M[r] = M[r] - M[r, c] * M[c]
    return M[:, n:].reshape(B.shape)


def _adjoint_matrix_ld(wave: SteadyWave, state: StateW, lam, g) -> np.ndarray:
    """-sigma (G^T - g I) at ``state`` in long doubles, from the
    Jacobians of :func:`zndevans.spectral.jacobians` written out entry by
    entry and G^T = A1^{-T} (-lam A0 + C)^T by :func:`_solve_ld`."""
    cfg = wave.config
    rho, u, e, Y = (_LD(x) for x in state)
    Gamma, EA, K, q = (_LD(x) for x in (cfg.Gamma, cfg.EA, cfg.K, cfg.q))
    E = e + u * u / 2
    A0 = np.zeros((4, 4), dtype=_LD)
    A0[0, 0], A0[1, 0], A0[1, 1] = 1, u, rho
    A0[2, 0], A0[2, 1], A0[2, 2] = E, rho * u, rho
    A0[3, 0], A0[3, 3] = Y, rho
    A1 = np.zeros((4, 4), dtype=_LD)
    A1[0, 0], A1[0, 1] = u, rho
    A1[1, 0], A1[1, 1], A1[1, 2] = u * u + Gamma * e, 2 * rho * u, Gamma * rho
    A1[2, 0] = (E + Gamma * e) * u
    A1[2, 1] = rho * (e + 3 * u * u / 2) + Gamma * rho * e
    A1[2, 2] = (rho + Gamma * rho) * u
    A1[3, 0], A1[3, 1], A1[3, 3] = Y * u, Y * rho, rho * u
    phi = np.exp(-EA / ((Gamma + 1) * e))
    psi = rho * phi
    dpsi_de = psi * EA / ((Gamma + 1) * e * e)
    C = np.zeros((4, 4), dtype=_LD)
    C[2, 0], C[2, 2], C[2, 3] = q * K * Y * phi, q * K * Y * dpsi_de, q * K * psi
    C[3, 0], C[3, 2], C[3, 3] = -K * Y * phi, -K * Y * dpsi_de, -K * psi
    Gt = _solve_ld(A1.T, (-lam * A0 + C).T)
    sigma = _LD(wave.m) / psi
    return -sigma * (Gt - g * np.eye(4, dtype=_LD))


def burned_start_solve(wave: SteadyWave, lam: complex, M: float) -> tuple[np.ndarray, complex]:
    """The start ``(zeta, tail)`` of :func:`zndevans.spectral.make_frame` at
    depth ``M`` the textbook way, in long doubles.  The factored adjoint
    matrices A = -sigma (G^T - g_minus I) come from
    :func:`_adjoint_matrix_ld` at the burned state and at y_i = -M - i ln2/K,
    i < 5, where Y is 2^-i of its value at -M.  With B_i = A(y_i) - A_inf,
    the matrices C_j^(n) = eps^j A_j are fitted to B_i at the first n
    states, and the corrections solve

        (kK I - A_inf) v_k = sum_{j=1..k} C_j^(5-k+j) v_{k-j},  k = 1..5,

    v_0 = ell, so each product with v_m is fitted on 5 - m states.  The
    tail is zeta . R(-M), with the reaction source R = (0, 0, q, -1) K Y psi
    at the state at -M.

    The profile states, ell and g_minus are the library's doubles; all that
    follows runs in long doubles, because B_i cancels to eps of entries of
    size |lambda| |ell| and the fifth-order weights (up to about 6242)
    multiply what rounding leaves in it: the same computation in doubles is
    off by 3e-12 of zeta at 2+300i on the default wave."""
    n = 5
    cfg = wave.config
    K = _LD(cfg.K)
    frame = make_frame(wave, lam, 1e-5, M)
    lam = np.clongdouble(lam)
    g = np.clongdouble(frame.g_minus)
    eye = np.eye(4, dtype=_LD)

    A_inf = _adjoint_matrix_ld(wave, wave.burned, lam, g)
    ys = [-M - i * math.log(2.0) / cfg.K for i in range(n)]
    As = [_adjoint_matrix_ld(wave, profile_at(wave, y), lam, g) for y in ys]
    C = [_vandermonde_fit([A - A_inf for A in As[:n - m]]) for m in range(n)]
    v = [frame.ell.astype(np.clongdouble)]
    for k in range(1, n + 1):
        F = sum(C[m][k - 1 - m] @ v[m] for m in range(k))
        v.append(_solve_ld(k * K * eye - A_inf, F))
    zeta = sum(v)

    rho, _, e, Y = (_LD(x) for x in profile_at(wave, -M))
    psi = rho * np.exp(-_LD(cfg.EA) / ((_LD(cfg.Gamma) + 1) * e))
    tail = K * Y * psi * (_LD(cfg.q) * zeta[2] - zeta[3])
    return zeta.astype(complex), complex(tail)


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
