"""Linearized-operator assembly for the detonation eigenvalue system.

The normal-mode problem in the physical coordinate reads Z' = G Z with

    G(lambda, x) = (-lambda*A0 + C) * (A1)^{-1},

where A0, A1 are the Jacobians of the conserved densities/fluxes and C the
Jacobian of the reaction source, all in primitive variables W = (rho, u, e, Y).
This module provides those Jacobians analytically, the closed-form,
matrix-free application of G and of its adjoint that the shooting
right-hand sides use (:func:`rhs_kernel`, built once per solve and applied
once per RHS evaluation), G itself built column by column from that same
kernel, the analytic stable left eigenpair (ell, g_minus) of the burned-end
matrix, the boundary jump vector that closes the stability determinant,
and the frame of one solve (:func:`make_frame`): that pair checked, the
jump, the truncation depth picked from the tolerance, the second-order
corrected burned-end mode at that depth that every shooting method starts
from, and Erpenbeck's quadrature tail beyond it.

Nothing here re-checks that every profile state is subsonic with u < 0;
that is the invariant of :class:`zndevans.znd.SteadyWave`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalDomainError
from .znd import (
    Y_AT_M_Y,
    GasWaveConfig,
    StateW,
    SteadyWave,
    arrhenius,
    fluxes,
    profile_at,
    profile_deriv,
    reaction_psi,
    thermo,
)

# the constant of make_frame's depth rule, fixed against tests/test_truncation.py
_DEPTH_THETA = 0.1


def jacobians(state: StateW, cfg: GasWaveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic Jacobians (A0, A1, C) of (F0, F1, R) in (rho, u, e, Y)."""
    rho, u, e, Y = state.rho, state.u, state.e, state.Y
    p, T, _, p_rho, p_e = thermo(state, cfg)

    A0 = np.zeros((4, 4))
    A0[0, 0] = 1.0
    A0[1, 0] = u
    A0[1, 1] = rho
    A0[2, 0] = e + 0.5 * u * u
    A0[2, 1] = rho * u
    A0[2, 2] = rho
    A0[3, 0] = Y
    A0[3, 3] = rho

    # ideal gas: no composition dependence in the equation of state, so
    # A1[1, 3] = A1[2, 3] = 0
    A1 = np.zeros((4, 4))
    A1[0, 0] = u
    A1[0, 1] = rho
    A1[1, 0] = u * u + p_rho
    A1[1, 1] = 2.0 * rho * u
    A1[1, 2] = p_e
    A1[2, 0] = (e + 0.5 * u * u + p_rho) * u
    A1[2, 1] = rho * (e + 1.5 * u * u) + p
    A1[2, 2] = (rho + p_e) * u
    A1[3, 0] = Y * u
    A1[3, 1] = Y * rho
    A1[3, 3] = rho * u

    # psi = rho * phi(T), T = e; phi' = phi * EA/((Gamma + 1) T^2)
    phi = arrhenius(T, cfg)
    psi = rho * phi
    dpsi_drho = phi
    dpsi_de = rho * phi * cfg.EA / ((cfg.Gamma + 1.0) * T * T)
    KY = cfg.K * Y

    C = np.zeros((4, 4))
    C[2, 0] = cfg.q * KY * dpsi_drho
    C[2, 2] = cfg.q * KY * dpsi_de
    C[2, 3] = cfg.q * cfg.K * psi
    C[3, 0] = -KY * dpsi_drho
    C[3, 2] = -KY * dpsi_de
    C[3, 3] = -cfg.K * psi

    return A0, A1, C


def rhs_kernel(wave: SteadyWave, lam: complex, shift: complex = 0.0, adjoint: bool = True):
    """dZ/dy of the linearized system at fixed lambda, in closed form.

    Returns ``kernel(state, z)``: with ``sigma = dx/dy`` at the profile state
    ``state`` it gives

        adjoint=True:   -sigma (A1^{-T} (-lam A0^T + C^T) - shift I) z
        adjoint=False:   sigma (-lam A0 + C) A1^{-1} z    (shift unused)

    for the four complex numbers ``z``, as a list of four complex numbers.
    The wave's constants are read once, here; the shooting methods build one
    kernel per solve and call it once per RHS evaluation.

    No matrix is built.  Per call, one lambda-independent block forms the
    gas entries of A0 and A1 from (rho, u, e) with the ideal-gas pressure
    p = Gamma rho e (as :func:`thermo` does), the cofactors of A1's gas
    block, sigma and the nonzero row of C; the adjoint or the forward apply
    then combines it with ``lam`` and ``z``.  C = (0, 0, q, -1)^T c is rank
    one, so C^T z = (q z2 - z3) c, and A1's last column is (0, 0, 0, rho u)
    with last row Y times its first row plus (0, 0, 0, rho u), so the A1
    solve is one division plus a 3x3 cofactor solve with the gas block
    f1_V = [[u, rho, 0], [a10, a11, a12], [a20, a21, a22]].
    """
    cfg = wave.config
    Gamma, EA, R, K, q, m = cfg.Gamma, cfg.EA, cfg.Gamma + 1.0, cfg.K, cfg.q, wave.m
    neg_EA, neg_lam = -EA, -lam

    def kernel(state: StateW, z) -> list:
        rho, u, e, Y = state
        p = Gamma * rho * e
        p_rho = Gamma * e
        p_e = Gamma * rho
        E = e + 0.5 * u * u
        a10 = u * u + p_rho
        a11 = 2.0 * rho * u
        a12 = p_e
        a20 = (E + p_rho) * u
        a21 = rho * (e + 1.5 * u * u) + p
        a22 = (rho + p_e) * u
        # cofactors k_ij of f1_V
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
        rho_u = rho * u

        RT = R * e
        phi = math.exp(neg_EA / RT)  # arrhenius
        sig = m / (rho * phi)
        # the nonzero row of C, up to the factors q and -1
        c0 = K * Y * phi
        c2 = c0 * rho * EA / (RT * e)
        c3 = K * rho * phi

        z0, z1, z2, z3 = z
        if adjoint:
            s = q * z2 - z3
            b0 = s * c0 - lam * (z0 + u * z1 + E * z2 + Y * z3)
            b1 = neg_lam * rho * (z1 + u * z2)
            lam_rho = lam * rho
            b2 = s * c2 - lam_rho * z2
            b3 = s * c3 - lam_rho * z3
            w3 = b3 / rho_u
            g = -sig / det
            sig_shift = sig * shift
            return [
                g * (k00 * b0 + k01 * b1 + k02 * b2) + sig * (Y * w3 + shift * z0),
                g * (k10 * b0 + k11 * b1 + k12 * b2) + sig_shift * z1,
                g * (k20 * b0 + k21 * b1 + k22 * b2) + sig_shift * z2,
                sig * (shift * z3 - w3),
            ]
        v0 = (k00 * z0 + k10 * z1 + k20 * z2) / det
        v1 = (k01 * z0 + k11 * z1 + k21 * z2) / det
        v2 = (k02 * z0 + k12 * z1 + k22 * z2) / det
        v3 = (z3 - Y * z0) / rho_u
        s = c0 * v0 + c2 * v2 + c3 * v3
        # A0 v, A0 of jacobians, from the block's E and rho u
        neg_sig = -sig
        neg_sig_lam = neg_sig * lam
        return [
            neg_sig_lam * v0,
            neg_sig_lam * (u * v0 + rho * v1),
            sig * (q * s - lam * (E * v0 + rho_u * v1 + rho * v2)),
            neg_sig * (s + lam * (Y * v0 + rho * v3)),
        ]

    return kernel


def coefficient_G(wave: SteadyWave, lam: complex, y: float) -> np.ndarray:
    """G(lambda, y) at the profile state at y <= 0.

    Column j is the forward :func:`rhs_kernel` applied to e_j, divided by
    sigma = dx/dy, so this matrix is the operator the shooting methods apply.
    A1 is invertible at every profile state (:class:`zndevans.znd.SteadyWave`).
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    state = profile_at(wave, y)
    kernel = rhs_kernel(wave, lam, adjoint=False)
    columns = [kernel(state, e) for e in np.eye(4).tolist()]
    return np.array(columns).T / (wave.m / reaction_psi(state, wave.config))


def stable_left_mode(wave: SteadyWave, lam: complex) -> tuple[np.ndarray, complex]:
    """Analytic stable left eigenpair (ell, g_minus) of the burned-end matrix.

    g_minus = -lambda / (u- + c-) is the unique eigenvalue with negative real
    part for Re(lambda) > 0 (u- + c- > 0: :class:`zndevans.znd.SteadyWave`).
    The gas part of ell comes from the outgoing acoustic characteristic,
    rescaled so the energy component is exactly 1, which keeps ell analytic
    in lambda; the reactant part is q K psi / r with the resolvent
    r = lambda (g0 - alpha g1) + K psi = lambda rho- c- / (u- + c-) + K psi,
    alpha = 1 / (u- + c-), g0 = rho- and g1 = rho- u-.  Re r >= K psi, so
    |ell[3]| <= q; r = 0 only at lambda = -K psi (u- + c-) / (rho- c-) < 0.
    lambda = 0 is excluded as g_minus = 0 there (D's translation zero).
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if lam == 0.0:
        raise NumericalDomainError(
            "lambda = 0 is excluded (neutral mode); continue from Re(lambda) > 0", lam
        )
    if lam.real < 0.0:
        raise NumericalDomainError("need Re(lambda) >= 0", lam)
    cfg = wave.config
    st = wave.burned
    rho, u, e = st.rho, st.u, st.e
    p, T, c_s, p_rho, p_e = thermo(st, cfg)

    alpha = 1.0 / (u + c_s)
    g_minus = -lam * alpha

    K_psi = cfg.K * reaction_psi(st, cfg)
    g0, g1 = rho, rho * u
    resolvent = lam * (g0 - alpha * g1) + K_psi
    # outgoing-acoustic left row of the gas block, energy component scaled to 1
    ell = np.array(
        [
            (p_rho - c_s * u) * rho / p_e + 0.5 * u * u - e,
            (c_s - p_e * u / rho) * rho / p_e,
            1.0,
            cfg.q * K_psi / resolvent,
        ],
        dtype=complex,
    )
    return ell, g_minus


def _pair_residual(wave: SteadyWave, r: list, ell: np.ndarray) -> float:
    # r is the adjoint kernel with shift g_minus applied to ell at the burned
    # state, A_inf ell = -sigma_minus (G_minus^T - g_minus I) ell
    sigma = wave.m / reaction_psi(wave.burned, wave.config)
    return math.hypot(*map(abs, r)) / (sigma * math.hypot(*map(abs, ell)))


def left_mode_residual(wave: SteadyWave, lam: complex) -> float:
    """|| ell^T G_minus - g_minus ell^T || / ||ell|| for the analytic pair.

    Computed with the adjoint kernel the neutral method integrates
    (:func:`rhs_kernel` with shift g_minus at the burned state), not from a
    G matrix.
    """
    lam = complex(lam)
    ell, g = stable_left_mode(wave, lam)
    return _pair_residual(wave, rhs_kernel(wave, lam, g)(wave.burned, ell.tolist()), ell)


def jump_vector(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Boundary jump row: lam * (F0 ahead - F0 at the Neumann point) + R there."""
    cfg = wave.config
    up = cfg.upstream
    ahead = StateW(up.rho, up.u, up.e, cfg.Y0)
    F0_plus, _, _ = fluxes(ahead, cfg)
    F0_minus, _, R_minus = fluxes(wave.neumann, cfg)
    return lam * (F0_plus - F0_minus) + R_minus


@dataclass(frozen=True)
class SpectralFrame:
    """Everything lambda-dependent that one determinant evaluation needs.

    ``ell`` and ``g_minus`` are the stable left eigenpair of the burned-end
    matrix, ``jump`` the boundary jump row, ``M`` the truncation depth in y,
    ``zeta`` the corrected burned-end start at y = -M, and ``tail()`` the
    integral of Erpenbeck's quadrature over (-inf, -M], computed when
    called, as only that method reads it.
    """

    ell: np.ndarray
    g_minus: complex
    jump: np.ndarray
    M: float
    zeta: np.ndarray
    tail: Callable[[], complex]


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def check_depth(M: float) -> float:
    """``M`` as a float; the ValueError every solve raises on a depth outside (0, inf)."""
    M = float(M)
    if not 0.0 < M < math.inf:  # also rejects NaN
        raise ValueError(f"M must be positive and finite, got {M}")
    return M


def _quadrature_integrand(lam: complex, state: StateW, deriv, z) -> complex:
    """lam z . A0 (profile)', Erpenbeck's integrand, at a profile state and
    its y-derivative ``deriv``."""
    rho, u, e, Y = state
    v0, v1, v2, v3 = deriv
    z0, z1, z2, z3 = z
    return lam * (z0 * v0 + z1 * (u * v0 + rho * v1)
                  + z2 * ((e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2)
                  + z3 * (Y * v0 + rho * v3))


def make_frame(wave: SteadyWave, lam: complex, tol: float, M: float | None = None) -> SpectralFrame:
    """Build and validate the spectral data of one solve at tolerance ``tol``.

    All of it comes from one adjoint :func:`rhs_kernel` with shift g_minus;
    no matrix is built.

    *Left mode.*  The left-eigenpair residual of :func:`stable_left_mode`'s
    pair is that kernel applied to ell at ``wave.burned`` (see
    :func:`left_mode_residual`).  It is rounding on entries of size
    |g_minus|, hence the bound's scale.

    *Start.*  Near the burned end the factored adjoint field of the neutral
    method is A(y) = A_inf + eps(y) A1 + eps(y)^2 A2 + O(eps^3), with A_inf
    the kernel at ``wave.burned``, A_inf ell = 0 and eps(y) = Y(y)/Y0 =
    eps exp(K (y + M)).  Its solution bounded as y -> -inf is
    ell + v1 exp(K (y + M)) + v2 exp(2 K (y + M)) + O(eps^3), where

        (K I - A_inf) v1 = eps A1 ell,
        (2K I - A_inf) v2 = eps A1 v1 + eps^2 A2 ell,

    so ``zeta = ell + v1 + v2`` leaves a truncation error of order eps^3,
    not eps (the asymptotic boundary condition of Lentini & Keller, SIAM
    J. Numer. Anal. 1980, to second order).  The terms come from the kernel
    alone: with B(s, v) = A(s) v - A_inf v at the states s1 at -M and s2 at
    -M - ln2/K, where eps(y) is eps/2,

        eps A1 ell = 4 B(s2, ell) - B(s1, ell) + O(eps^3),
        eps^2 A2 ell = 2 B(s1, ell) - 4 B(s2, ell) + O(eps^3),

    and eps A1 v1 = B(s1, v1) + O(eps^3).  Y = 0 at the burned end, so
    A_inf's reactant column is (0, 0, 0, a33): each solve is a 3x3 cofactor
    solve for the gas part and one division for the reactant.  The
    eigenvalues of k K I - A_inf are k K and k K + sigma_inf (mu - g_minus)
    for the other burned-end modes mu, all with real part >= k K when
    Re lambda >= 0.  Both inverses are built once and serve every depth.

    *Depth.*  An explicit ``M`` must be positive and finite.  If ``M`` is
    None the two corrections are measured once at the fixed depth
    ``wave.M_y``, where eps = 1e-5, per unit eps and eps^2:
    a1 = |v1| / (1e-5 |ell|) and a2 = |v2| / (1e-10 |ell|).  With a2^2/a1
    as the estimate of the next coefficient, M = ln(1/eps)/K with

        eps^3 = theta tol min(1, a1 / a2^2),   theta = 0.1,

    so that eps^3 <= theta tol and (a2^2/a1) eps^3 <= theta tol.  The
    measured relative truncation error against a reference at
    K M = ln(1e13), over the cases of tests/test_truncation.py
    (lambda = 1+1i, 0.5+5i, 0.1+30i; tol = 1e-5 and 1e-8, and 1e-10 on
    LS(1.02, 50)), is at most, in units of tol:

        default  EA=20  LS(1.6,50)  LS(1.02,50)  E=86.1  E=51.5
        0.063    0.066  0.045       0.074        0.030   0.060

    (LS(f, E) is Lee & Stewart's wave with gamma = 1.2, q = 50; the last two
    are their high-activation waves (gamma, q, E) = (1.146, 33.5, 86.1)
    and (1.107, 17.0, 51.5)).  The first-order start with its depth rule
    reached 0.19 tol on the same cases.

    Near CJ a1 and a2 grow, and so does the depth.  ``tol`` must be
    positive.  |v1|, |v2| and |ell| are the same for conj(lam), and so is
    the depth.

    *Tail.*  ``tail()`` is the integral over (-inf, -M] of Erpenbeck's
    quadrature integrand lam Z . A0 (profile)' in the neutral
    normalization, to the same order.  There Z = exp(-g_minus (x - x(-M)))
    zeta(y), and with the neutral factor exp(-g_minus sigma_inf (y + M))
    taken out, sigma_inf = m / psi(burned), the integrand is
    d1 s + d2 s^2 + O(eps^3) in s = exp(K (y + M)).  d1 and d2 are fitted
    at s = 1 (y = -M) and s = 1/2 (y2 = -M - ln2/K, where
    zeta(y2) = ell + v1/2 + v2/4 and x(-M) - x(y2) = sigma_inf ln2/K +
    (sigma(-M) - sigma_inf)/(2K) + O(eps^2)), and

        tail = d1 / (K - g_minus sigma_inf) + d2 / (2K - g_minus sigma_inf),

    both denominators with real part >= K.

    The profile is evaluated through this module's bindings of profile_at
    and profile_deriv, so evans' bindings still see exactly one evaluation
    per RHS call.
    """
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    burned = wave.burned
    ell_l = ell.tolist()
    inf_ell = kernel(burned, ell_l)  # A_inf ell: zero up to rounding
    residual = _pair_residual(wave, inf_ell, ell)
    bound = 1e-10 * max(1.0, abs(g_minus))
    if residual > bound:
        raise NumericalDomainError(f"left-eigenpair residual {residual:.3e} > {bound:.3e}", lam)

    K = wave.config.K
    # columns of A_inf: a[j][i] is its entry (i, j)
    a = [kernel(burned, e) for e in np.eye(4).tolist()]

    def inverse(kK: float):
        """F -> (kK I - A_inf)^{-1} F."""
        rows = [[(kK if i == j else 0.0) - a[j][i] for j in range(3)] for i in range(3)]
        # the inverse of the gas block has the columns c0 = r1 x r2, c1 = r2 x r0 and
        # c2 = r0 x r1 over det; cjk is entry k of cj
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

    solve1, solve2 = inverse(K), inverse(2.0 * K)
    half_life = math.log(2.0) / K  # the y-distance over which Y halves

    def corrections(depth: float):
        """The states at -depth and a half-life below it, and v1 and v2 there."""
        s1 = profile_at(wave, -depth)
        s2 = profile_at(wave, -depth - half_life)
        B1 = [x - y for x, y in zip(kernel(s1, ell_l), inf_ell)]
        B2 = [x - y for x, y in zip(kernel(s2, ell_l), inf_ell)]
        F1 = [4.0 * b2 - b1 for b1, b2 in zip(B1, B2)]
        v1 = solve1(F1)
        # B(s1, v1) = A(s1) v1 - A_inf v1, with A_inf v1 = K v1 - F1
        F2 = [x - (K * v - f) + 2.0 * b1 - 4.0 * b2
              for x, v, f, b1, b2 in zip(kernel(s1, v1), v1, F1, B1, B2)]
        return s1, s2, v1, solve2(F2)

    if M is None:
        _, _, v1, v2 = corrections(wave.M_y)
        size = math.hypot(*map(abs, ell_l))
        a1 = math.hypot(*map(abs, v1)) / (Y_AT_M_Y * size)
        a2 = math.hypot(*map(abs, v2)) / (Y_AT_M_Y * Y_AT_M_Y * size)
        eps3 = _DEPTH_THETA * tol
        if a2 * a2 > a1:  # a1 = a2 = 0 on a constant profile
            eps3 *= a1 / (a2 * a2)
        M = math.log(1.0 / eps3) / (3.0 * K)
    s1, s2, v1, v2 = corrections(M)
    zeta = np.array([l + x + y for l, x, y in zip(ell_l, v1, v2)])

    def tail() -> complex:
        cfg = wave.config
        sigma_inf = wave.m / reaction_psi(burned, cfg)
        g_sigma = g_minus * sigma_inf
        h1 = _quadrature_integrand(lam, s1, profile_deriv(wave, -M), zeta)
        # exp(-g_minus (x(y2) - x(-M))) over the neutral factor at y2, one
        # exponent of order eps so that no part of it can overflow alone
        shift = cmath.exp(g_minus * (wave.m / reaction_psi(s1, cfg) - sigma_inf) / (2.0 * K))
        zeta2 = [l + 0.5 * x + 0.25 * y for l, x, y in zip(ell_l, v1, v2)]
        h2 = shift * _quadrature_integrand(lam, s2, profile_deriv(wave, -M - half_life), zeta2)
        d2 = 2.0 * (h1 - 2.0 * h2)
        return (h1 - d2) / (K - g_sigma) + d2 / (2.0 * K - g_sigma)

    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail)
