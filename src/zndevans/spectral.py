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
jump, the truncation depth picked from the tolerance, the fifth-order
corrected burned-end mode at that depth that every shooting method starts
from, and Erpenbeck's quadrature tail beyond it, which is that mode paired
with the reaction source at the depth.

Nothing here re-checks that every profile state is subsonic with u < 0;
that is the invariant of :class:`zndevans.znd.SteadyWave`.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .znd import (
    GasWaveConfig,
    StateW,
    SteadyWave,
    arrhenius,
    profile_at,
    reaction_psi,
    thermo,
)

# the constant of make_frame's depth rule, fixed against tests/test_truncation.py
_DEPTH_THETA = 0.1

# Exact weights of the fits B(t) = c_1 t + ... + c_n t^n through n values
# B_i at t_i = 2^-i, i < n: _FIT_WEIGHTS[n][j - 1][i] is the weight of B_i
# in c_j: the inverse of the Vandermonde matrix t_i^j, written as literals
# that the compiler folds to constants
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

# The order of make_frame's start: the start fits on _ORDER states and
# leaves a truncation error of order eps^(_ORDER + 1)
_ORDER = 5

# The weights of the right-hand sides F_k = sum_{m<k} c_{k-m}(v_m) of the
# start, over the differences B(s_i, v_m) laid out m by m, i < _ORDER - m:
# _RHS_WEIGHTS[n][k - 1] fits each product with v_m on its first n - m
# states, with weight 0 on the others, and sums the fits
_RHS_WEIGHTS = {
    n: tuple(tuple(_FIT_WEIGHTS[n - m][k - 1 - m][i] if i < n - m else 0.0
                   for m in range(k) for i in range(_ORDER - m))
             for k in range(1, n + 1))
    for n in (_ORDER - 1, _ORDER)
}


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


def _mode_difference(wave: SteadyWave, lam: complex, shift: complex, ell: list):
    """(A(s) - A_inf) ell for the adjoint kernel A of :func:`rhs_kernel`
    with ``shift``, from the differences of the state s to ``wave.burned``.

    Returns ``difference(state)``, a list of four complex numbers.  With
    P(s) = (-lam A0(s) + C(s) - shift A1(s))^T ell, A(s) ell =
    -sigma(s) A1(s)^{-T} P(s), and P(burned) is zero up to rounding when
    (ell, shift) is the stable left eigenpair, so the difference is
    -sigma(s) A1(s)^{-T} (P(s) - P(burned)).  Each entry of P(s) - P(burned)
    is formed from (rho, u, e) minus their burned values and from Y, never
    as the difference of two entries of size |lambda| |ell|: the kernel's
    own rounding on those entries, times the weights of the fifth-order fit,
    reaches 1e-11 of the start at lambda = 2+300i on the default wave.
    """
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
        # -sigma(s) A1(s)^{-T} P, with A1's gas block solved by cofactors as
        # in rhs_kernel
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
    """Boundary jump row: lam * (F0 ahead - F0 at the Neumann point) + R
    there, from the wave's :attr:`~zndevans.znd.SteadyWave.jump_terms`."""
    dF0, R_minus = wave.jump_terms
    return lam * dF0 + R_minus


@dataclass(frozen=True)
class SpectralFrame:
    """Everything lambda-dependent that one determinant evaluation needs.

    ``ell`` and ``g_minus`` are the stable left eigenpair of the burned-end
    matrix, ``jump`` the boundary jump row, ``M`` the truncation depth in y,
    ``zeta`` the burned-end start at y = -M, corrected to fifth order in
    eps = Y(-M)/Y0, and ``tail`` the integral of Erpenbeck's quadrature over
    (-inf, -M], which is zeta . R(-M) exactly (see :func:`make_frame`).
    """

    ell: np.ndarray
    g_minus: complex
    jump: np.ndarray
    M: float
    zeta: np.ndarray
    tail: complex


def _fitted_rhs(weights: tuple, Bc: tuple) -> list:
    """One weighted sum of the differences, component by component: with
    ``weights`` a row of _RHS_WEIGHTS and ``Bc`` the four components of the
    differences in their layout, the right-hand side F_k of the start."""
    return [sum(map(operator.mul, weights, c)) for c in Bc]


def check_depth(M: float) -> float:
    """``M`` as a float; the ValueError every solve raises on a depth outside (0, inf)."""
    M = float(M)
    if not 0.0 < M < math.inf:  # also rejects NaN
        raise ValueError(f"M must be positive and finite, got {M}")
    return M


def make_frame(wave: SteadyWave, lam: complex, tol: float, M: float | None = None) -> SpectralFrame:
    """Build and validate the spectral data of one solve at tolerance ``tol``.

    All of it comes from one adjoint :func:`rhs_kernel` with shift g_minus
    and its difference form :func:`_mode_difference`; no matrix is built.

    *Left mode.*  The left-eigenpair residual of :func:`stable_left_mode`'s
    pair is that kernel applied to ell at ``wave.burned`` (see
    :func:`left_mode_residual`).  It is rounding on entries of size
    |g_minus|, hence the bound's scale.

    *Start.*  Near the burned end the factored adjoint field of the neutral
    method is A(y) = A_inf + sum_j eps(y)^j A_j, with A_inf the kernel at
    ``wave.burned``, A_inf ell = 0 and eps(y) = Y(y)/Y0 = eps exp(K (y + M)).
    Its solution bounded as y -> -inf is sum_k v_k exp(k K (y + M)), v_0 =
    ell, where

        (kK I - A_inf) v_k = sum_{j=1..k} eps^j A_j v_{k-j},

    and ``zeta = ell + v1 + ... + v5`` leaves a truncation error of order
    eps^6, not eps (the asymptotic boundary condition of Lentini & Keller,
    SIAM J. Numer. Anal. 1980, to fifth order; the order is _ORDER).  The
    terms come from differences B(s, v) = A(s) v - A_inf v at the states
    s_i at y_i = -M - i ln2/K, i < 5, where eps(y_i) = eps t_i with
    t_i = 2^-i, so B(s_i, v) = sum_j (eps t_i)^j A_j v.  The fit through
    the first n of them, with the exact Vandermonde weights of
    ``_FIT_WEIGHTS`` (up to about 6242 for n = 5), gives eps^j A_j v,
    j <= n, up to O(eps^(n+1) |v|); as v_m is of order eps^m, the products
    with v_m are fitted on 5 - m states.  B(s, v_m), m >= 1, is the kernel
    at s less A_inf v_m = mK v_m - F_m, ten kernel calls in all.  B(s, ell)
    is formed from the differences of s to the burned state
    (:func:`_mode_difference`, five calls): as a difference of two kernel
    values its rounding, on entries of size |lambda| |ell|, times the
    weights reached 1e-11 of zeta at 2+300i on the default wave.  Y = 0 at
    the burned end, so A_inf's reactant column is (0, 0, 0, a33): each solve
    is a 3x3 cofactor solve for the gas part and one division for the
    reactant.  The eigenvalues of kK I - A_inf are kK and
    kK + sigma_inf (mu - g_minus) for the other burned-end modes mu, all with
    real part >= kK when Re lambda >= 0.  The five inverses are built once
    per frame.

    *Depth.*  An explicit ``M`` must be positive and finite.  If ``M`` is
    None the start is built at eps0 = (theta tol)^(1/5), theta = 0.1, and
    its error is estimated by est = |zeta_5 - zeta_4| / |ell|, with zeta_4
    the start fitted to fourth order on the first four states from the same
    differences B.  If est > theta tol, eps shrinks once, to
    eps0 0.9 (theta tol / est)^(1/5), and the start is built again there.
    eps never grows past eps0: est measures the order-4 start, so a small
    est does not show that a shallower order-5 start would do.
    M = ln(1/eps)/K.  The measured relative truncation
    error against a reference at K M = ln(1e13), over the cases of
    tests/test_truncation.py (lambda = 1+1i, 0.5+5i, 0.1+30i; tol = 1e-5
    and 1e-8, and 1e-10 on LS(1.02, 50)), is at most, in units of tol:

        default  EA=20  LS(1.6,50)  LS(1.02,50)  E=86.1  E=51.5
        0.002    0.002  0.003       0.046        0.35    0.20

    (LS(f, E) is Lee & Stewart's wave with gamma = 1.2, q = 50; the last two
    are their high-activation waves (gamma, q, E) = (1.146, 33.5, 86.1)
    and (1.107, 17.0, 51.5)).  The fourth-order start with its depth rule
    reached 0.19 tol on the same cases, the second-order one 0.074 tol and
    the first-order one 0.19 tol.

    The order stops at 5.  A sixth-order start with the same rule starts
    E=86.1's solves at Y = 0.1 Y0, where its own error is below 2e-3 tol,
    but carried to the shock that error leaves D off by up to 4.7 tol (0.76
    tol on E=51.5): the estimate bounds the start, not what the field
    between -M and 0 makes of it.  The fifth-order start's error there is
    below 2e-4 tol.

    Near CJ and at large |lambda| the estimate grows, and so does the
    depth.  ``tol`` must be positive.  The estimate is the same for
    conj(lam), and so is the depth.

    *Tail.*  The profile obeys A1 W_x = R(W), so (A1 W_x)_x = C W_x, and
    along every adjoint solution Z Erpenbeck's integrand lam Z . A0 W_y is
    d/dy (Z . R(W)).  Z . R vanishes as y -> -inf, so the integral over
    (-inf, -M] is Z(-M) . R(-M): ``tail`` is zeta . R at the state at -M,
    K Y psi (q zeta_2 - zeta_3), in the neutral normalization, and
    Erpenbeck's quadrature telescopes to the neutral value.

    The profile is evaluated through this module's binding of profile_at,
    so evans' binding still sees exactly one evaluation per RHS call.
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
    (a00, a10, a20, _), (a01, a11, a21, _), (a02, a12, a22, a32), (_, _, _, a33) = a

    def inverse(kK: float):
        """F -> (kK I - A_inf)^{-1} F."""
        r00, r01, r02 = kK - a00, -a01, -a02
        r10, r11, r12 = -a10, kK - a11, -a12
        r20, r21, r22 = -a20, -a21, kK - a22
        # the inverse of the gas block has the columns c0 = r1 x r2,
        # c1 = r2 x r0 and c2 = r0 x r1 over det; cjk is entry k of cj
        c00, c01, c02 = r11 * r22 - r12 * r21, r12 * r20 - r10 * r22, r10 * r21 - r11 * r20
        c10, c11, c12 = r21 * r02 - r22 * r01, r22 * r00 - r20 * r02, r20 * r01 - r21 * r00
        c20, c21, c22 = r01 * r12 - r02 * r11, r02 * r10 - r00 * r12, r00 * r11 - r01 * r10
        det = r00 * c00 + r01 * c01 + r02 * c02
        d33 = kK - a33

        def solve(F: list) -> list:
            F0, F1, F2, F3 = F
            w2 = (F0 * c02 + F1 * c12 + F2 * c22) / det
            return [(F0 * c00 + F1 * c10 + F2 * c20) / det,
                    (F0 * c01 + F1 * c11 + F2 * c21) / det,
                    w2,
                    (F3 + a32 * w2) / d33]

        return solve

    solves = [inverse(k * K) for k in range(1, _ORDER + 1)]
    ell_difference = _mode_difference(wave, lam, g_minus, ell_l)
    half_life = math.log(2.0) / K  # the y-distance over which Y halves

    def start(depth: float):
        """The states s_i at y_i = -depth - i ln2/K, i < _ORDER, the terms
        ell, v1, ... of zeta there, and the four components of the
        differences B(s_i, v_m), m < _ORDER, at the _ORDER - m states the
        fit of v_m needs, in the layout of _RHS_WEIGHTS."""
        states = [profile_at(wave, -depth - i * half_life) for i in range(_ORDER)]
        Bc = tuple(map(list, zip(*map(ell_difference, states))))
        vs = [ell_l]
        for k, weights in enumerate(_RHS_WEIGHTS[_ORDER], 1):
            # F_k = sum_j eps^j A_j v_{k-j}, and A_inf v_k = kK v_k - F_k
            F = _fitted_rhs(weights, Bc)
            v = solves[k - 1](F)
            vs.append(v)
            if k < _ORDER:
                inf_v = [k * K * x - f for x, f in zip(v, F)]
                for state in states[:_ORDER - k]:
                    for c, x, y in zip(Bc, kernel(state, v), inf_v):
                        c.append(x - y)
        return states, vs, Bc

    def estimate(vs: list, Bc: tuple) -> float:
        """|zeta_n - zeta_(n-1)| / |ell|, n = _ORDER, zeta_(n-1) from the
        order-(n-1) fits on the first n - 1 states of the same differences."""
        gap = [sum(terms) for terms in zip(*vs[1:])]
        for solve, weights in zip(solves, _RHS_WEIGHTS[_ORDER - 1]):
            gap = [x - u for x, u in zip(gap, solve(_fitted_rhs(weights, Bc)))]
        return math.hypot(*map(abs, gap)) / math.hypot(*map(abs, ell_l))

    if M is None:
        eps = (_DEPTH_THETA * tol) ** (1.0 / _ORDER)
        M = math.log(1.0 / eps) / K
        states, vs, Bc = start(M)
        est = estimate(vs, Bc)
        if est > _DEPTH_THETA * tol:
            eps *= 0.9 * (_DEPTH_THETA * tol / est) ** (1.0 / _ORDER)
            M = math.log(1.0 / eps) / K
            states, vs, _ = start(M)
    else:
        states, vs, _ = start(M)
    zeta = np.array([sum(terms) for terms in zip(*vs)])

    s0, q = states[0], wave.config.q
    # zeta . R at -M, with R = (0, 0, q, -1) K Y psi
    tail = complex(K * s0.Y * reaction_psi(s0, wave.config) * (q * zeta[2] - zeta[3]))
    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail)
