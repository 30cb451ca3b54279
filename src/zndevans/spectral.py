"""Linearized-operator assembly for the detonation eigenvalue system.

The normal-mode problem in the physical coordinate reads Z' = G Z with

    G(lambda, x) = (-lambda*A0 + C) * (A1)^{-1},

where A0, A1 are the Jacobians of the conserved densities/fluxes and C the
Jacobian of the reaction source, all in primitive variables W = (rho, u, e, Y).
This module provides those Jacobians analytically, the closed-form,
matrix-free application of G and of its adjoint that the shooting
right-hand sides use (:func:`rhs_kernel`, built once per solve and applied
once per RHS evaluation), G itself built column by column from that same
kernel, the Taylor coefficients of the adjoint field in eps = Y
(:func:`adjoint_series`, built once per wave), the analytic stable left
eigenpair (ell, g_minus) of the burned-end matrix, the boundary jump
vector that closes the stability determinant, and the frame of one solve
(:func:`make_frame`): that pair checked, the jump, the burned-end mode
corrected to order 12 in eps that every shooting method starts from, the
truncation depth picked from the tolerance and that mode's next term (and
the shallower one without the rule's cap, which Lee-Stewart tries), and
Erpenbeck's quadrature tail beyond the depth, which is the mode paired
with the reaction source there.  On request the kernel and the frame also
give their derivatives in lambda, which a solve integrates alongside Z to
return dD/dlambda.

Nothing here re-checks that every profile state is subsonic with u < 0;
that is the invariant of :class:`zndevans.znd.SteadyWave`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

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

# The order n of make_frame's start, a sum of n + 1 terms in eps = Y with
# a truncation error of order eps^(n + 1); the series of the adjoint field
# carries n + 2 coefficients, the last one for the depth rule's next term
_ORDER = 12


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


def rhs_kernel(wave: SteadyWave, lam: complex, shift: complex = 0.0, adjoint: bool = True,
               dshift: complex = 0.0):
    """dZ/dy of the linearized system at fixed lambda, in closed form.

    Returns ``kernel(state, z, dz=None)``: with ``sigma = dx/dy`` at the
    profile state ``state`` it gives

        adjoint=True:   -sigma (A1^{-T} (-lam A0^T + C^T) - shift I) z
        adjoint=False:   sigma (-lam A0 + C) A1^{-1} z    (shift unused)

    for the four complex numbers ``z``, as a list of four complex numbers.
    The wave's constants are read once, here; the shooting methods build one
    kernel per solve and call it once per RHS evaluation.

    Given four more numbers ``dz`` = dZ/dlam, the call is the derivative
    form: it returns eight numbers, the four above followed by d/dy of dz
    along the same solution,

        adjoint=True:   -sigma (A1^{-T} (-lam A0^T + C^T) - shift I) dz
                        -sigma (A1^{-T} (-A0^T) - dshift I) z
        adjoint=False:   sigma (-lam A0 + C) A1^{-1} dz - sigma A0 A1^{-1} z

    with ``dshift`` = d shift/d lam (-1/(u- + c-) for the neutral method's
    g_minus; 0 for Erpenbeck's and for the forward kernel).  The source
    terms are the operator's lam-coefficient block applied to z; the
    adjoint reuses the sums A0^T z that its z apply forms, the forward one
    the A1^{-1} z it solves for.  It computes the block once for z and dz,
    and its first four numbers are those of the plain call, bit for bit.

    No matrix is built.  Per call, one lambda-independent block forms the
    gas entries of A0 and A1 from (rho, u, e) with the ideal-gas pressure
    p = Gamma rho e (as :func:`thermo` does), the cofactors of A1's gas
    block, sigma and the nonzero row of C; the adjoint or the forward apply
    then combines it with ``lam`` and ``z`` (and ``dz``).  C = (0, 0, q,
    -1)^T c is rank one, so C^T z = (q z2 - z3) c, and A1's last column is
    (0, 0, 0, rho u) with last row Y times its first row plus (0, 0, 0,
    rho u), so the A1 solve is one division plus a 3x3 cofactor solve with
    the gas block f1_V = [[u, rho, 0], [a10, a11, a12], [a20, a21, a22]].
    """
    cfg = wave.config
    Gamma, EA, R, K, q, m = cfg.Gamma, cfg.EA, cfg.Gamma + 1.0, cfg.K, cfg.q, wave.m
    neg_EA, neg_lam = -EA, -lam

    def kernel(state: StateW, z, dz=None) -> list:
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
            # A0^T z is (l0, rho l1, rho z2, rho z3)
            l0 = z0 + u * z1 + E * z2 + Y * z3
            l1 = z1 + u * z2
            b0 = s * c0 - lam * l0
            b1 = neg_lam * rho * l1
            lam_rho = lam * rho
            b2 = s * c2 - lam_rho * z2
            b3 = s * c3 - lam_rho * z3
            w3 = b3 / rho_u
            g = -sig / det
            sig_shift = sig * shift
            out = [
                g * (k00 * b0 + k01 * b1 + k02 * b2) + sig * (Y * w3 + shift * z0),
                g * (k10 * b0 + k11 * b1 + k12 * b2) + sig_shift * z1,
                g * (k20 * b0 + k21 * b1 + k22 * b2) + sig_shift * z2,
                sig * (shift * z3 - w3),
            ]
            if dz is None:
                return out
            # (-lam A0^T + C^T) dz - A0^T z, then the same A1^{-T} apply
            d0, d1, d2, d3 = dz
            s = q * d2 - d3
            b0 = s * c0 - lam * (d0 + u * d1 + E * d2 + Y * d3) - l0
            b1 = -rho * (lam * (d1 + u * d2) + l1)
            b2 = s * c2 - lam_rho * d2 - rho * z2
            w3 = (s * c3 - lam_rho * d3 - rho * z3) / rho_u
            out += [
                g * (k00 * b0 + k01 * b1 + k02 * b2) + sig * (Y * w3 + shift * d0 + dshift * z0),
                g * (k10 * b0 + k11 * b1 + k12 * b2) + sig * (shift * d1 + dshift * z1),
                g * (k20 * b0 + k21 * b1 + k22 * b2) + sig * (shift * d2 + dshift * z2),
                sig * (shift * d3 + dshift * z3 - w3),
            ]
            return out
        v0 = (k00 * z0 + k10 * z1 + k20 * z2) / det
        v1 = (k01 * z0 + k11 * z1 + k21 * z2) / det
        v2 = (k02 * z0 + k12 * z1 + k22 * z2) / det
        v3 = (z3 - Y * z0) / rho_u
        s = c0 * v0 + c2 * v2 + c3 * v3
        # A0 v, A0 of jacobians, from the block's E and rho u
        neg_sig = -sig
        neg_sig_lam = neg_sig * lam
        out = [
            neg_sig_lam * v0,
            neg_sig_lam * (u * v0 + rho * v1),
            sig * (q * s - lam * (E * v0 + rho_u * v1 + rho * v2)),
            neg_sig * (s + lam * (Y * v0 + rho * v3)),
        ]
        if dz is None:
            return out
        # C A1^{-1} dz - A0 t with t = lam A1^{-1} dz + A1^{-1} z
        d0, d1, d2, d3 = dz
        w0 = (k00 * d0 + k10 * d1 + k20 * d2) / det
        w2 = (k02 * d0 + k12 * d1 + k22 * d2) / det
        w3 = (d3 - Y * d0) / rho_u
        s = c0 * w0 + c2 * w2 + c3 * w3
        t0 = lam * w0 + v0
        t1 = lam * (k01 * d0 + k11 * d1 + k21 * d2) / det + v1
        t2 = lam * w2 + v2
        t3 = lam * w3 + v3
        out += [
            neg_sig * t0,
            neg_sig * (u * t0 + rho * t1),
            sig * (q * s - (E * t0 + rho_u * t1 + rho * t2)),
            neg_sig * (s + Y * t0 + rho * t3),
        ]
        return out

    return kernel


# Truncated power series: arrays of the coefficients x_0, x_1, ... of one
# length.  Sums and scalar multiples are the arrays'; these are the rest


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.convolve(x, y)[:len(x)]


def _reciprocal(x: np.ndarray) -> np.ndarray:
    # x r = 1: r_k = -(x_1 r_(k-1) + ... + x_k r_0) / x_0
    r = np.zeros_like(x)
    r[0] = 1.0 / x[0]
    for k in range(1, len(x)):
        r[k] = -r[0] * np.dot(x[1:k + 1], r[k - 1::-1])
    return r


def _sqrt(x: np.ndarray) -> np.ndarray:
    # s s = x: s_k = (x_k - s_1 s_(k-1) - ... - s_(k-1) s_1) / (2 s_0)
    s = np.zeros_like(x)
    s[0] = math.sqrt(x[0])
    for k in range(1, len(x)):
        s[k] = (x[k] - np.dot(s[1:k], s[k - 1:0:-1])) / (2.0 * s[0])
    return s


def _exp(x: np.ndarray) -> np.ndarray:
    # r' = x' r: k r_k = 1 x_1 r_(k-1) + 2 x_2 r_(k-2) + ... + k x_k r_0
    r = np.zeros_like(x)
    r[0] = math.exp(x[0])
    jx = np.arange(len(x)) * x
    for k in range(1, len(x)):
        r[k] = np.dot(jx[1:k + 1], r[k - 1::-1]) / k
    return r


def _matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The product of two series of matrices, X and Y of shape (n, a, b)
    and (n, b, c): coefficient k is X_0 Y_k + X_1 Y_(k-1) + ... + X_k Y_0."""
    return np.array([np.einsum("jab,jbc->ac", X[:k + 1], Y[k::-1]) for k in range(len(X))])


class AdjointSeries(NamedTuple):
    """Taylor coefficients in eps = Y of the factored adjoint field
    A = lam P + Q + shift S of :func:`rhs_kernel` along the profile.

    ``P``, ``Q`` and ``S`` hold the real 4x4 coefficients P_j, Q_j and
    S_j = sigma_j I, j = 0..n+1 with n = _ORDER, each in an array of shape
    (n + 2, 4, 4); sigma = dx/dy.  At eps = 0, where Y = 0, A_0 = A_inf
    has the reactant column (0, 0, 0, a33) and the reactant row
    (0, 0, a32, a33) exactly.  ``radius`` is eps* = disc_min / a, where
    disc = disc_min + a eps vanishes at eps = -eps*: the sonic branch
    point, which bounds the radius of convergence (inf when q = 0).
    """

    P: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    radius: float


def adjoint_series(wave: SteadyWave) -> AdjointSeries:
    """The coefficients of :class:`AdjointSeries`, from the closed-form
    profile in eps by truncated power-series arithmetic.

    disc = disc_min + a eps, a = 2 Gamma q / (Gamma + 2), u = center +
    sqrt(disc), rho = -m/u, e = (b u - u^2)/Gamma and Y = eps; then the
    rows of rhs_kernel with shift, term by term: A1's gas block and its
    cofactors, phi = exp(-EA/((Gamma + 1) e)), sigma = m/(rho phi) =
    -u/phi, and the nonzero row c of C.  rho u = -m holds exactly.  With
    T = -sigma A1^{-T}, P = -T A0^T, Q = T C^T = (T c) (0, 0, q, -1) and
    S = sigma.  :attr:`zndevans.znd.SteadyWave.adjoint_series` builds this
    once per wave, on first use; no LAPACK call enters.
    """
    K, Gamma, two_Gamma, Gamma_plus_2, q, m, b, _, center, _ = wave._branch
    EA, R = wave.config.EA, Gamma + 1.0
    N = _ORDER + 2

    def series(*head: float) -> np.ndarray:
        x = np.zeros(N)
        x[:len(head)] = head
        return x

    a = two_Gamma * q / Gamma_plus_2
    u = _sqrt(series(wave.discriminant_min, a))
    u[0] += center
    rho = -m * _reciprocal(u)
    uu = _mul(u, u)
    e = (b * u - uu) / Gamma
    Y = series(0.0, 1.0)
    inv_e = _reciprocal(e)
    phi = _exp(-EA / R * inv_e)
    sig = -_mul(u, _exp(EA / R * inv_e))
    # A1's gas block f1_V = [[u, rho, 0], [a10, a11, a12], [a20, a21, a22]]
    a10 = uu + Gamma * e
    a11 = series(-2.0 * m)
    a12 = Gamma * rho
    a20 = _mul(R * e + 0.5 * uu, u)
    a21 = R * _mul(rho, e) - 1.5 * m * u
    a22 = series(-R * m)
    # its cofactors k_ij, as in rhs_kernel
    k = [[_mul(a11, a22) - _mul(a12, a21), _mul(a12, a20) - _mul(a10, a22),
          _mul(a10, a21) - _mul(a11, a20)],
         [-_mul(rho, a22), _mul(u, a22), _mul(rho, a20) - _mul(u, a21)],
         [_mul(rho, a12), -_mul(u, a12), _mul(u, a11) - _mul(rho, a10)]]
    g = -_mul(sig, _reciprocal(_mul(u, k[0][0]) + _mul(rho, k[0][1])))
    T = np.zeros((N, 4, 4))
    for i in range(3):
        for j in range(3):
            T[:, i, j] = _mul(g, k[i][j])
    T[:, 0, 3] = -_mul(sig, Y) / m
    T[:, 3, 3] = sig / m
    A0T = np.zeros((N, 4, 4))  # A0^T, rows of jacobians' A0 as columns
    A0T[0, 0, 0] = 1.0
    A0T[:, 0, 1], A0T[:, 0, 2], A0T[:, 0, 3] = u, e + 0.5 * uu, Y
    A0T[:, 1, 1], A0T[0, 1, 2] = rho, -m
    A0T[:, 2, 2] = A0T[:, 3, 3] = rho
    c0 = K * _mul(Y, phi)
    c = np.stack([c0, np.zeros(N), EA / R * _mul(_mul(c0, rho), _mul(inv_e, inv_e)),
                  K * _mul(rho, phi)], axis=1)
    Tc = _matmul(T, c[:, :, None])[:, :, 0]
    Q = np.zeros((N, 4, 4))
    Q[:, :, 2], Q[:, :, 3] = q * Tc, -Tc
    series = AdjointSeries(-_matmul(T, A0T), Q, sig[:, None, None] * np.eye(4),
                           wave.discriminant_min / a if a else math.inf)
    for x in series[:3]:
        x.flags.writeable = False  # shared by every frame of the wave
    return series


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


def _left_mode_derivative(wave: SteadyWave, lam: complex, ell: np.ndarray) -> tuple[np.ndarray, float]:
    """(d ell/d lam, d g_minus/d lam) of :func:`stable_left_mode`'s pair.

    g_minus = -alpha lam, and of ell only the reactant part q K psi / r
    depends on lambda, through r = lambda rho- (1 - alpha u-) + K psi:
    ell[3]' = -ell[3] rho- (1 - alpha u-) / r.
    """
    cfg = wave.config
    st = wave.burned
    _, _, c_s, _, _ = thermo(st, cfg)
    alpha = 1.0 / (st.u + c_s)
    slope = st.rho * (1.0 - alpha * st.u)
    dell = np.zeros(4, dtype=complex)
    dell[3] = -ell[3] * slope / (lam * slope + cfg.K * reaction_psi(st, cfg))
    return dell, -alpha


def _pair_residual(wave: SteadyWave, r: list, ell: np.ndarray) -> float:
    # r is the adjoint kernel with shift g_minus applied to ell at the burned
    # state, A_inf ell = -sigma_minus (G_minus^T - g_minus I) ell
    sigma = wave.m / reaction_psi(wave.burned, wave.config)
    return math.hypot(*map(abs, r)) / (sigma * math.hypot(*map(abs, ell)))


def left_mode_residual(wave: SteadyWave, lam: complex) -> float:
    """|| ell^T G_minus - g_minus ell^T || / ||ell|| for the analytic pair.

    Computed with the adjoint kernel the neutral method integrates
    (:func:`rhs_kernel` with shift g_minus at the burned state), not from a
    G matrix.  :func:`make_frame` runs the same check inline; this form stays
    because acceptance criterion 4 and ``TestStableLeftMode`` read the
    residual itself, without a frame.
    """
    lam = complex(lam)
    ell, g = stable_left_mode(wave, lam)
    return _pair_residual(wave, rhs_kernel(wave, lam, g)(wave.burned, ell.tolist()), ell)


def jump_vector(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Boundary jump row: lam * (F0 ahead - F0 at the Neumann point) + R
    there, from the wave's :attr:`~zndevans.znd.SteadyWave.jump_terms`."""
    dF0, R_minus = wave.jump_terms
    return lam * dF0 + R_minus


class FrameDerivative(NamedTuple):
    """d/d lambda of a :class:`SpectralFrame`'s lambda-dependent data at
    the frame's own depth: ``g_minus`` (which is -1/(u- + c-)), ``zeta``,
    ``tail`` and the start's coefficients ``w`` (w_0'..w_12', of which
    ``zeta`` sums eps^k w_k' at the frame's eps).  The jump's derivative is
    the wave's lambda-free ``jump_terms[0]``."""

    g_minus: float
    zeta: np.ndarray
    tail: complex
    w: np.ndarray


@dataclass(frozen=True)
class SpectralFrame:
    """Everything lambda-dependent that one determinant evaluation needs.

    ``ell`` and ``g_minus`` are the stable left eigenpair of the burned-end
    matrix, ``jump`` the boundary jump row, ``M`` the truncation depth in y,
    ``zeta`` the burned-end start at y = -M, corrected to order 12 in
    eps = Y(-M), and ``tail`` the integral of Erpenbeck's quadrature over
    (-inf, -M], which is zeta . R(-M) exactly (see :func:`make_frame`).
    ``w`` holds the start's coefficients w_0..w_13, of which zeta sums
    eps^k w_k to k = 12, and ``M_far`` the depth of the depth rule without
    its cap, at most ``M``; it is None where the caller gave the depth.
    Lee-Stewart may pair there instead (:func:`zndevans.evans._lee_stewart`).
    ``derivative`` is the :class:`FrameDerivative`, where it was asked for.
    """

    ell: np.ndarray
    g_minus: complex
    jump: np.ndarray
    M: float
    zeta: np.ndarray
    tail: complex
    w: np.ndarray | None = None
    M_far: float | None = None
    derivative: FrameDerivative | None = None


def check_depth(M: float) -> float:
    """``M`` as a float; the ValueError every solve raises on a depth outside (0, inf)."""
    M = float(M)
    if not 0.0 < M < math.inf:  # also rejects NaN
        raise ValueError(f"M must be positive and finite, got {M}")
    return M


def make_frame(wave: SteadyWave, lam: complex, tol: float, M: float | None = None,
               derivative: bool = False) -> SpectralFrame:
    """Build and validate the spectral data of one solve at tolerance ``tol``.

    All of it comes from the adjoint :func:`rhs_kernel` with shift g_minus
    at ``wave.burned``, the wave's :class:`AdjointSeries` and the profile
    state at -M; no matrix is inverted.

    *Left mode.*  The left-eigenpair residual of :func:`stable_left_mode`'s
    pair is that kernel applied to ell at ``wave.burned`` (see
    :func:`left_mode_residual`).  It is rounding on entries of size
    |g_minus|, hence the bound's scale.

    *Start.*  Near the burned end the factored adjoint field of the neutral
    method is A(eps) = sum_j eps^j A_j in eps = Y, which is exp(K y)
    along the profile, with A_j = lam P_j + g_minus S_j + Q_j from
    ``wave.adjoint_series``; A_0 = A_inf is the field at the burned end,
    A_inf ell = 0.  Its solution bounded as y -> -inf is sum_k eps^k w_k,
    w_0 = ell, where

        (kK I - A_inf) w_k = sum_{j=1..k} A_j w_{k-j},

    and ``zeta = ell + eps w_1 + ... + eps^n w_n``, n = _ORDER = 12, leaves
    a truncation error of order eps^13 (the asymptotic boundary condition
    of Lentini & Keller, SIAM J. Numer. Anal. 1980, with the exact Taylor
    coefficients of Corliss & Chang, ACM TOMS 1982).  The w_k do not
    depend on the depth.  Y = 0 at the burned end, so A_inf's reactant
    column is (0, 0, 0, a33): each solve is a 3x3 cofactor solve for the
    gas part and one division for the reactant.  The eigenvalues of
    kK I - A_inf are kK and kK + sigma_inf (mu - g_minus) for the other
    burned-end modes mu, all with real part >= kK when Re lambda >= 0.

    *Depth.*  An explicit ``M`` must be positive and finite, and deep
    enough that eps = exp(-K M) lies inside the radius eps* of the series
    (ValueError otherwise); beyond eps*/2 its terms fall slowly, and the
    start's error is the caller's.  If ``M`` is None,

        eps = min(eps0, (theta tol |ell| / |w_13|)^(1/13), eps*/2),

    with theta = 0.1, eps0 = (theta tol)^(1/5) and eps* the sonic branch
    point of :class:`AdjointSeries`, and M = ln(1/eps)/K.  The middle term
    puts the first neglected term at theta tol |ell|.  eps0 is the cap of
    the fifth-order start this one replaced: the rule bounds the start's
    error, not D's, which the field between -M and 0 can amplify (by
    about 2.6e4 on E=86.1).  The frame also records ``w`` and M_far =
    ln(1/eps_far)/K for the rule without that cap,

        eps_far = min((theta tol |ell| / |w_13|)^(1/13), eps*/2),

    or M where eps_far is not below 1.  No forward method can check D's
    error from that start without carrying a second solution; Lee-Stewart's
    backward solution carries the weight, and tries M_far first.

    The measured relative truncation error against a reference at K M =
    ln(1e13), over the cases of tests/test_truncation.py (lambda = 1+1i,
    0.5+5i, 0.1+30i; tol = 1e-5 and 1e-8, 1e-10 on LS(1.02, 50), and 1e-5
    and 1e-6 on LS(1.003, 50) and LS(1.001, 50)), is at most, in units of
    tol:

        default  EA=20  LS(1.6,50)  LS(1.02,50)  LS(1.003,50)  LS(1.001,50)  E=86.1  E=51.5
        2e-5     0.033  5e-6        0.13         0.088         0.094         0.37    0.0045

    At the depth Lee-Stewart pairs at, it is the same except on the
    default wave, EA=20 and LS(1.6,50), where that depth is M_far: 0.086,
    0.093 and 0.096.

    (LS(f, E) is Lee & Stewart's wave with gamma = 1.2, q = 50; the last two
    are their high-activation waves (gamma, q, E) = (1.146, 33.5, 86.1)
    and (1.107, 17.0, 51.5)).  The order is 12: near CJ and at high
    activation the next term sets the depth, and order 12 starts shallower
    than order 8 (K M = 7.69 against 8.12 on LS(1.001, 50) at 1+1i, tol
    1e-5) and keeps E=86.1 at tol 1e-5 within 0.003 tol (0.085 at order
    8), for about 95 us a frame against 79 (timeit, default wave).

    Near CJ and at large |lambda| the terms fall more slowly, and the depth
    grows.  ``tol`` must be positive, and small enough that eps < 1 (tol <
    10 suffices; ValueError otherwise).  The rule is the same for conj(lam),
    and so is the depth.

    *Tail.*  The profile obeys A1 W_x = R(W), so (A1 W_x)_x = C W_x, and
    along every adjoint solution Z Erpenbeck's integrand lam Z . A0 W_y is
    d/dy (Z . R(W)).  Z . R vanishes as y -> -inf, so the integral over
    (-inf, -M] is Z(-M) . R(-M): ``tail`` is zeta . R at the state at -M,
    K Y psi (q zeta_2 - zeta_3), in the neutral normalization, and
    Erpenbeck's quadrature telescopes to the neutral value.

    That state is the frame's one profile evaluation, through this
    module's binding of profile_at, so evans' binding still sees exactly
    one evaluation per RHS call.

    *Derivative.*  With ``derivative``, the frame also carries the
    :class:`FrameDerivative`: d/d lambda at the frame's depth, which the
    derivative does not follow.  The same loop and cofactor solve give

        (kK I - A_inf) w_k' = A_0' w_k + sum_{j=1..k} (A_j' w_{k-j} + A_j w_{k-j}')

    for k <= 12, with A_j' = P_j - alpha S_j, alpha = 1/(u- + c-), and
    w_0' = ell' (:func:`_left_mode_derivative`); then zeta' = sum eps^k
    w_k', and tail' is zeta' . R at -M.  Every other field is the plain
    frame's, bit for bit.
    """
    if M is not None:
        M = check_depth(M)
    lam = complex(lam)
    ell, g_minus = stable_left_mode(wave, lam)
    residual = _pair_residual(wave, rhs_kernel(wave, lam, g_minus)(wave.burned, ell.tolist()), ell)
    bound = 1e-10 * max(1.0, abs(g_minus))
    if residual > bound:
        raise NumericalDomainError(f"left-eigenpair residual {residual:.3e} > {bound:.3e}", lam)

    K = wave.config.K
    series = wave.adjoint_series
    # A_j = lam P_j + g_minus S_j + Q_j for j = n+1 down to 0
    A = lam * series.P[::-1] + g_minus * series.S[::-1] + series.Q[::-1]
    (a00, a01, a02, _), (a10, a11, a12, _), (a20, a21, a22, _), (_, _, a32, a33) = A[-1].tolist()

    def solve(kK: float, F: list) -> list:
        """(kK I - A_inf)^{-1} F."""
        r00, r01, r02 = kK - a00, -a01, -a02
        r10, r11, r12 = -a10, kK - a11, -a12
        r20, r21, r22 = -a20, -a21, kK - a22
        # the inverse of the gas block has the columns c0 = r1 x r2,
        # c1 = r2 x r0 and c2 = r0 x r1 over det; cjk is entry k of cj
        c00, c01, c02 = r11 * r22 - r12 * r21, r12 * r20 - r10 * r22, r10 * r21 - r11 * r20
        c10, c11, c12 = r21 * r02 - r22 * r01, r22 * r00 - r20 * r02, r20 * r01 - r21 * r00
        c20, c21, c22 = r01 * r12 - r02 * r11, r02 * r10 - r00 * r12, r00 * r11 - r01 * r10
        det = r00 * c00 + r01 * c01 + r02 * c02
        F0, F1, F2, F3 = F
        w2 = (F0 * c02 + F1 * c12 + F2 * c22) / det
        return [(F0 * c00 + F1 * c10 + F2 * c20) / det,
                (F0 * c01 + F1 * c11 + F2 * c21) / det,
                w2,
                (F3 + a32 * w2) / (kK - a33)]

    # A_(n+1), ..., A_1 side by side: H[:, -4k:] @ (w_0, ..., w_(k-1)) is
    # the right-hand side A_k w_0 + ... + A_1 w_(k-1)
    H = A[:-1].transpose(1, 0, 2).reshape(4, -1)
    w = np.empty((_ORDER + 2, 4), dtype=complex)
    w[0] = ell
    if derivative:
        dell, dg_minus = _left_mode_derivative(wave, lam, ell)
        dA = series.P[::-1] + dg_minus * series.S[::-1]  # A_j' in A's order
        dH = dA[:-1].transpose(1, 0, 2).reshape(4, -1)
        dw = np.empty((_ORDER + 1, 4), dtype=complex)
        dw[0] = dell
    for k in range(1, _ORDER + 2):
        w[k] = solve(k * K, (H[:, -4 * k:] @ w[:k].ravel()).tolist())
        if derivative and k <= _ORDER:
            F = dA[-1] @ w[k] + dH[:, -4 * k:] @ w[:k].ravel() + H[:, -4 * k:] @ dw[:k].ravel()
            dw[k] = solve(k * K, F.tolist())

    M_far = None
    if M is None:
        eps_far = 0.5 * series.radius
        next_term = math.hypot(*map(abs, w[-1]))
        if next_term > 0.0:
            size = math.hypot(*map(abs, ell))
            eps_far = min(eps_far, (_DEPTH_THETA * tol * size / next_term) ** (1.0 / (_ORDER + 1)))
        eps = min((_DEPTH_THETA * tol) ** 0.2, eps_far)
        if eps >= 1.0:  # Y = 1 is the shock: no burned end to start from
            raise ValueError(f"tol = {tol:g} is too loose: the depth rule's start at "
                             f"Y = {eps:.3g} is not below 1 (tol < 10 is)")
        M = math.log(1.0 / eps) / K
        M_far = math.log(1.0 / eps_far) / K if eps_far < 1.0 else M
    else:
        eps = math.exp(-K * M)
        if eps >= series.radius:  # the series diverges: no start at this depth
            raise ValueError(f"M = {M} starts at Y = {eps:.3g}, beyond the radius "
                             f"{series.radius:.3g} of the start's series; M must exceed "
                             f"{math.log(1.0 / series.radius) / K:.6g}")
    powers = eps ** np.arange(_ORDER + 1)
    zeta = powers @ w[:_ORDER + 1]

    state, q = profile_at(wave, -M), wave.config.q
    # zeta . R at -M, with R = (0, 0, q, -1) K Y psi
    source = K * state.Y * reaction_psi(state, wave.config)
    tail = complex(source * (q * zeta[2] - zeta[3]))
    d = None
    if derivative:
        dzeta = powers @ dw
        d = FrameDerivative(dg_minus, dzeta, complex(source * (q * dzeta[2] - dzeta[3])), dw)
    return SpectralFrame(ell, g_minus, jump_vector(wave, lam), M, zeta, tail, w, M_far, d)
