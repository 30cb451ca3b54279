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
jump, the truncation depth picked from the tolerance, and the first-order
corrected burned-end mode at that depth that every shooting method starts
from.

Nothing here re-checks that every profile state is subsonic with u < 0;
that is the invariant of :class:`zndevans.znd.SteadyWave`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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

# the constants of make_frame's depth rule, fixed against tests/test_truncation.py
_EPS_MAX = 1e-2
_DEPTH_C = 0.5
_DEPTH_THETA = 0.1


def jacobians(state: StateW, cfg: GasWaveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic Jacobians (A0, A1, C) of (F0, F1, R) in (rho, u, e, Y).

    The source Jacobian C is taken on the ignited branch (cutoff = 1).
    """
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

    # psi = rho * phi(T(e)); phi' = phi * EA/(R T^2)
    phi = arrhenius(T, cfg)
    psi = rho * phi
    dpsi_drho = phi
    dpsi_de = rho * phi * cfg.EA / (cfg.gas_constant * T * T) / cfg.Cv
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
    Gamma, Cv, EA, R, K, q, m = cfg.Gamma, cfg.Cv, cfg.EA, cfg.gas_constant, cfg.K, cfg.q, wave.m
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

        T = e / Cv
        RT = R * T
        phi = math.exp(neg_EA / RT)  # arrhenius, ignited branch
        sig = m / (rho * phi)
        # the nonzero row of C, up to the factors q and -1
        c0 = K * Y * phi
        c2 = c0 * rho * EA / (RT * T * Cv)
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
    """G(lambda, y) at the profile state (ignited side, y <= 0).

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


def _pair_residual(wave: SteadyWave, kernel, ell: np.ndarray) -> float:
    # at the burned state the adjoint kernel with shift g_minus is
    # -sigma_minus (G_minus^T - g_minus I) ell
    r = kernel(wave.burned, ell.tolist())
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
    return _pair_residual(wave, rhs_kernel(wave, lam, g), ell)


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
    ``zeta`` the corrected burned-end start at y = -M and ``tail`` the
    leading-order tail of Erpenbeck's quadrature over (-inf, -M].
    """

    ell: np.ndarray
    g_minus: complex
    jump: np.ndarray
    M: float
    zeta: np.ndarray
    tail: complex


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def make_frame(wave: SteadyWave, lam: complex, tol: float, M: float | None = None) -> SpectralFrame:
    """Build and validate the spectral data of one solve at tolerance ``tol``.

    All of it comes from one adjoint :func:`rhs_kernel` with shift g_minus;
    no matrix is built.

    *Left mode.*  The left-eigenpair residual of :func:`stable_left_mode`'s
    pair is that kernel applied to ell at ``wave.burned`` (see
    :func:`left_mode_residual`).  It is rounding on entries of size
    |g_minus|, hence the bound's scale.

    *Start.*  Near the burned end the factored adjoint field of the neutral
    method is A(y) = A_inf + O(Y), A_inf the kernel at ``wave.burned``, and
    A_inf ell = 0.  Its solution bounded as y -> -inf is
    ell + w exp(K (y + M)) + O(Y(-M)^2), where

        (K I - A_inf) w = F,   F = A(-M) ell,

    so ``zeta = ell + w`` leaves a truncation error of order eps^2, not eps,
    with eps = Y(-M)/Y0 (the first-order asymptotic boundary condition of
    Lentini & Keller, SIAM J. Numer. Anal. 1980).  Y = 0 at the burned end,
    so A_inf's reactant column is (0, 0, 0, a33): w's gas part comes from a
    3x3 cofactor solve and w[3] from one division.  The eigenvalues of
    K I - A_inf are K and K + sigma_inf (mu - g_minus) for the other
    burned-end modes mu, all with real part >= K when Re lambda >= 0.  The
    inverse is built once and serves every depth.

    *Depth.*  An explicit ``M`` must be positive and finite.  If ``M`` is
    None the correction is measured once at the fixed depth ``wave.M_y``,
    where eps = 1e-5, as rho1 = |zeta - ell| / (1e-5 |ell|), the correction
    per unit eps, and M = ln(1/eps)/K with

        eps = min(1e-2, c sqrt(tol), sqrt(theta tol) / rho1),   c = 0.5, theta = 0.1,

    so that (rho1 eps)^2 <= theta tol.  The measured relative truncation
    error is 0.25 to 1.9 times (rho1 eps)^2 on the default wave, at EA = 20
    and 40, and on Lee & Stewart's waves (gamma, q, E) = (1.2, 50, 50) with
    overdrive f from 1.001 to 1.6, for lambda up to 2+100i (wherever the
    neutral solution stays above the absolute tolerance).  On
    high-activation waves, where rho1 is small, it reached 1.6e8 times
    (rho1 eps)^2 but stayed under 0.06 eps^2: the sqrt(tol) cap covers those.
    Near CJ rho1 grows, and so does the depth.  ``tol`` must be positive.
    |zeta - ell| and |ell| are the same for conj(lam), and so is the depth.

    *Tail.*  ``tail`` is the integral over (-inf, -M] of Erpenbeck's
    quadrature integrand lam Z . A0 (profile)' in the neutral normalization,
    to the same order: there Z = exp(-g_minus (x - x(-M))) zeta and the
    profile derivative falls as exp(K y), so the integrand at -M is divided
    by K - g_minus sigma_inf, sigma_inf = m / psi(burned), whose real part
    is >= K.

    The profile is evaluated through this module's bindings of profile_at
    and profile_deriv, so evans' bindings still see exactly one evaluation
    per RHS call.
    """
    if M is not None:
        M = float(M)
        if not 0.0 < M < math.inf:  # also rejects NaN
            raise ValueError(f"M must be positive and finite, got {M}")
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    kernel = rhs_kernel(wave, lam, g_minus)
    residual = _pair_residual(wave, kernel, ell)
    bound = 1e-10 * max(1.0, abs(g_minus))
    if residual > bound:
        raise NumericalDomainError(f"left-eigenpair residual {residual:.3e} > {bound:.3e}", lam)

    K = wave.config.K
    # columns of A_inf, then the rows of K I - A_inf
    a = [kernel(wave.burned, e) for e in np.eye(4).tolist()]
    rows = [[(K if i == j else 0.0) - a[j][i] for j in range(3)] for i in range(3)]
    # the inverse of the gas block has the columns r1 x r2, r2 x r0, r0 x r1 over det
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
        eps = min(_EPS_MAX, _DEPTH_C * math.sqrt(tol))
        eps_bound = math.sqrt(_DEPTH_THETA * tol)
        if rho1 * eps > eps_bound:  # rho1 = 0 on a constant profile
            eps = eps_bound / rho1
        M = math.log(1.0 / eps) / K
    state, zeta = start(M)

    rho, u, e, Y = state
    v0, v1, v2, v3 = profile_deriv(wave, -M)
    z0, z1, z2, z3 = zeta.tolist()
    integrand = lam * (z0 * v0 + z1 * (u * v0 + rho * v1)
                       + z2 * ((e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2)
                       + z3 * (Y * v0 + rho * v3))
    sigma_inf = wave.m / reaction_psi(wave.burned, wave.config)
    tail = integrand / (K - g_minus * sigma_inf)
    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail)
