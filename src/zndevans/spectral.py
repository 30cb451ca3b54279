"""Linearized-operator assembly for the detonation eigenvalue system.

The normal-mode problem in the physical coordinate reads Z' = G Z with

    G(lambda, x) = (-lambda*A0 + C) * (A1)^{-1},

where A0, A1 are the Jacobians of the conserved densities/fluxes and C the
Jacobian of the reaction source, all in primitive variables W = (rho, u, e, Y).
This module provides those Jacobians analytically (with a finite-difference
self-check), the closed-form, matrix-free application of G and of its
adjoint that the shooting right-hand sides use (:func:`linearized_rhs`), the
limit matrices at the burned and unburned ends, the analytic stable left
eigenpair (ell, g_minus) of the burned-end matrix, a Kato-ODE numerical
continuation of that eigenvector as an independent cross-check, and the
boundary jump vector that closes the stability determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguityError,
    InvalidWaveError,
    NearCharacteristicError,
    NumericalDomainError,
)
from .znd import (
    GasWaveConfig,
    StateW,
    SteadyWave,
    arrhenius,
    fluxes,
    profile_at,
    reaction_psi,
    thermo,
)

_COND_LIMIT = 1e12
_NONCHAR_REL = 1e-12


def jacobians(
    state: StateW, cfg: GasWaveConfig, self_check: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic Jacobians (A0, A1, C) of (F0, F1, R) in (rho, u, e, Y).

    The source Jacobian C is taken on the ignited branch (cutoff = 1).
    With ``self_check=True`` every entry is compared against central finite
    differences of :func:`zndevans.znd.fluxes` to 1e-6 relative.
    """
    rho, u, e, Y = state.rho, state.u, state.e, state.Y
    r = Y.size
    n = 3 + r
    p, T, _, p_rho, p_e = thermo(state, cfg)
    # ideal gas: no composition dependence in the equation of state
    p_Y = np.zeros(r)

    A0 = np.zeros((n, n))
    A0[0, 0] = 1.0
    A0[1, 0] = u
    A0[1, 1] = rho
    A0[2, 0] = e + 0.5 * u * u
    A0[2, 1] = rho * u
    A0[2, 2] = rho
    A0[3:, 0] = Y
    A0[3:, 3:] = rho * np.eye(r)

    A1 = np.zeros((n, n))
    A1[0, 0] = u
    A1[0, 1] = rho
    A1[1, 0] = u * u + p_rho
    A1[1, 1] = 2.0 * rho * u
    A1[1, 2] = p_e
    A1[1, 3:] = p_Y
    A1[2, 0] = (e + 0.5 * u * u + p_rho) * u
    A1[2, 1] = rho * (e + 1.5 * u * u) + p
    A1[2, 2] = (rho + p_e) * u
    A1[2, 3:] = p_Y * u
    A1[3:, 0] = Y * u
    A1[3:, 1] = Y * rho
    A1[3:, 3:] = rho * u * np.eye(r)

    # psi = rho * phi(T(e)); phi' = phi * EA/(R T^2)
    phi = arrhenius(T, cfg)
    psi = rho * phi
    dpsi_drho = phi
    dpsi_de = rho * phi * cfg.EA / (cfg.gas_constant * T * T) / cfg.Cv
    KY = cfg.K * Y  # single-species rate: K scalar times Y vector

    C = np.zeros((n, n))
    C[2, 0] = cfg.q * float(np.sum(KY)) * dpsi_drho
    C[2, 2] = cfg.q * float(np.sum(KY)) * dpsi_de
    C[2, 3:] = cfg.q * cfg.K * psi
    C[3:, 0] = -KY * dpsi_drho
    C[3:, 2] = -KY * dpsi_de
    C[3:, 3:] = -cfg.K * psi * np.eye(r)

    if self_check:
        _finite_difference_check(state, cfg, A0, A1, C)
    return A0, A1, C


def _finite_difference_check(state, cfg, A0, A1, C, rel=1e-6):
    w0 = state.as_vector()
    n = w0.size
    num = np.zeros((3, n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(w0[j]))
        wp, wm = w0.copy(), w0.copy()
        wp[j] += h
        wm[j] -= h
        sp = StateW(wp[0], wp[1], wp[2], wp[3:])
        sm = StateW(wm[0], wm[1], wm[2], wm[3:])
        for k, (fp, fm) in enumerate(zip(fluxes(sp, cfg), fluxes(sm, cfg))):
            num[k, :, j] = (fp - fm) / (2.0 * h)
    for name, analytic, numeric in (("A0", A0, num[0]), ("A1", A1, num[1]), ("C", C, num[2])):
        scale = np.max(np.abs(numeric)) + 1.0
        worst = np.max(np.abs(analytic - numeric)) / scale
        if worst > rel:
            raise AssertionError(
                f"jacobian {name} disagrees with finite differences by {worst:.2e}"
            )


def _gas_entries(state: StateW, cfg: GasWaveConfig):
    """Scalar entries of the 3x3 gas blocks of A0 and A1.

    Returns ``(E, f1)`` with E = e + u^2/2 and f1 the six entries of f1_V
    below its first row, so that

        f0_V = [[1, 0, 0], [u, rho, 0], [E, rho u, rho]]
        f1_V = [[u, rho, 0], [f1[0], f1[1], f1[2]], [f1[3], f1[4], f1[5]]].
    """
    rho, u, e = state.rho, state.u, state.e
    p, _, _, p_rho, p_e = thermo(state, cfg)
    E = e + 0.5 * u * u
    f1 = (
        u * u + p_rho,
        2.0 * rho * u,
        p_e,
        (E + p_rho) * u,
        rho * (e + 1.5 * u * u) + p,
        (rho + p_e) * u,
    )
    return E, f1


def _gas_block_jacobians(state: StateW, cfg: GasWaveConfig) -> tuple[np.ndarray, np.ndarray]:
    """(f0_V, f1_V): upper-left 3x3 gas blocks of A0, A1."""
    rho, u = state.rho, state.u
    E, (a10, a11, a12, a20, a21, a22) = _gas_entries(state, cfg)
    f0V = np.array([[1.0, 0.0, 0.0], [u, rho, 0.0], [E, rho * u, rho]])
    f1V = np.array([[u, rho, 0.0], [a10, a11, a12], [a20, a21, a22]])
    return f0V, f1V


def apply_A0(state: StateW, v) -> list:
    """A0 v in closed form for four numbers v (single reactant); a list."""
    rho, u = state.rho, state.u
    v0, v1, v2, v3 = v
    return [
        v0,
        u * v0 + rho * v1,
        (state.e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2,
        state.Y.item() * v0 + rho * v3,
    ]


def linearized_rhs(
    wave: SteadyWave, state: StateW, lam: complex, z, shift: complex = 0.0, adjoint: bool = True
) -> list:
    """dZ/dy of the linearized system at one profile state, in closed form.

    With ``sigma = dx/dy`` at ``state`` this is

        adjoint=True:   -sigma (A1^{-T} (-lam A0^T + C^T) - shift I) z
        adjoint=False:   sigma (-lam A0 + C) A1^{-1} z    (shift unused)

    for the four complex numbers ``z`` (a single reactant); the result is a
    list of four complex numbers.  No matrix is built: C = (0, 0, q, -1)^T c
    is rank one, so C^T z = (q z2 - z3) c, and A1's last column is
    (0, 0, 0, rho u) with last row Y times its first row plus (0, 0, 0, rho u),
    so the A1 solve is one division plus a 3x3 cofactor solve with f1_V.
    Pass ``lam`` and ``z`` as Python complex numbers for speed.
    """
    cfg = wave.config
    rho, u = state.rho, state.u
    Y = state.Y.item()
    E, (a10, a11, a12, a20, a21, a22) = _gas_entries(state, cfg)
    # cofactors k_ij of f1_V, whose first row is (u, rho, 0)
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

    T = state.e / cfg.Cv
    phi = arrhenius(T, cfg)
    sig = wave.m / (rho * phi)
    # the nonzero row of C (ignited branch), up to the factors q and -1
    c0 = cfg.K * Y * phi
    c2 = c0 * rho * cfg.EA / (cfg.gas_constant * T * T * cfg.Cv)
    c3 = cfg.K * rho * phi
    q = cfg.q

    z0, z1, z2, z3 = z
    if adjoint:
        s = q * z2 - z3
        b0 = s * c0 - lam * (z0 + u * z1 + E * z2 + Y * z3)
        b1 = -lam * rho * (z1 + u * z2)
        b2 = s * c2 - lam * rho * z2
        b3 = s * c3 - lam * rho * z3
        w3 = b3 / rho_u
        g = -sig / det
        return [
            g * (k00 * b0 + k01 * b1 + k02 * b2) + sig * (Y * w3 + shift * z0),
            g * (k10 * b0 + k11 * b1 + k12 * b2) + sig * shift * z1,
            g * (k20 * b0 + k21 * b1 + k22 * b2) + sig * shift * z2,
            sig * (shift * z3 - w3),
        ]
    v0 = (k00 * z0 + k10 * z1 + k20 * z2) / det
    v1 = (k01 * z0 + k11 * z1 + k21 * z2) / det
    v2 = (k02 * z0 + k12 * z1 + k22 * z2) / det
    v3 = (z3 - Y * z0) / rho_u
    s = c0 * v0 + c2 * v2 + c3 * v3
    a0, a1, a2, a3 = apply_A0(state, (v0, v1, v2, v3))
    return [-sig * lam * a0, -sig * lam * a1, sig * (q * s - lam * a2), -sig * (s + lam * a3)]


def check_noncharacteristic(state: StateW, cfg: GasWaveConfig) -> bool:
    """A1 invertible test: needs det(f1_V) and rho*u away from zero.

    For the ideal gas this fails exactly at sonic points |u| = c_s and at
    stagnation u = 0.
    """
    _, _, c_s, _, _ = thermo(state, cfg)
    f0V, f1V = _gas_block_jacobians(state, cfg)
    speed = abs(state.u) + c_s
    det_scale = state.rho ** 2 * speed ** 3
    if abs(np.linalg.det(f1V)) <= _NONCHAR_REL * det_scale:
        return False
    if abs(state.rho * state.u) <= _NONCHAR_REL * state.rho * speed:
        return False
    return True


def _G_at_state(
    state: StateW, cfg: GasWaveConfig, lam: complex, reacting: bool
) -> np.ndarray:
    A0, A1, C = jacobians(state, cfg)
    if not reacting:
        C = np.zeros_like(C)
    if np.linalg.cond(A1) > _COND_LIMIT:
        raise NearCharacteristicError(
            f"flux Jacobian condition number exceeds {_COND_LIMIT:g} at state "
            f"(rho={state.rho:.4g}, u={state.u:.4g}, e={state.e:.4g})"
        )
    M = -lam * A0 + C.astype(complex)
    # G = M A1^{-1}, computed by solving A1^T G^T = M^T
    return np.linalg.solve(A1.T.astype(complex), M.T).T


def coefficient_G(wave: SteadyWave, lam: complex, y: float) -> np.ndarray:
    """G(lambda, y) at the profile state (ignited side, y <= 0)."""
    state = profile_at(wave, y)
    if not check_noncharacteristic(state, wave.config):
        raise NearCharacteristicError(f"profile state at y={y!r} is characteristic")
    return _G_at_state(state, wave.config, lam, reacting=True)


def limit_G_minus(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Burned-end limit of G, assembled in upper block-triangular form.

    The vanishing burned reactant makes the lower-left block exactly zero:

        [ -lam f0V f1V^{-1}   (lam f0V f1V^{-1} f1Y + Q K psi) / g1 ]
        [        0                     (-lam g0 - K psi) / g1       ]
    """
    cfg = wave.config
    state = wave.burned
    r = state.r
    f0V, f1V = _gas_block_jacobians(state, cfg)
    psi = reaction_psi(state, cfg)
    g0, g1 = state.rho, state.rho * state.u
    Q = np.zeros((3, r))
    Q[2, :] = cfg.q
    f1Y = np.zeros((3, r))  # ideal gas: p_Y = 0

    top_left = -lam * np.linalg.solve(f1V.T, f0V.T).T
    B = lam * np.linalg.solve(f1V.T, f0V.T).T @ f1Y + cfg.K * psi * Q
    G = np.zeros((3 + r, 3 + r), dtype=complex)
    G[:3, :3] = top_left
    G[:3, 3:] = B / g1
    G[3:, 3:] = (-lam * g0 * np.eye(r) - cfg.K * psi * np.eye(r)) / g1
    return G


def limit_G_plus(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Unburned-end limit of G (x > 0): no reaction, so C = 0 there."""
    cfg = wave.config
    up = cfg.upstream
    state = StateW(up.rho, up.u, up.e, np.full(wave.burned.r, cfg.Y0))
    return _G_at_state(state, cfg, lam, reacting=False)


def stable_left_mode(wave: SteadyWave, lam: complex) -> tuple[np.ndarray, complex]:
    """Analytic stable left eigenpair (ell, g_minus) of the burned-end matrix.

    g_minus = -lambda / (u- + c-) is the unique eigenvalue with negative real
    part for Re(lambda) > 0 (burned flow is subsonic with u- < 0).  The gas
    part of ell comes from the outgoing acoustic characteristic, rescaled so
    the energy component is exactly 1, which keeps ell analytic in lambda;
    the reactant part solves an r x r resolvent system.
    """
    lam = complex(lam)
    if lam == 0.0:
        raise NumericalDomainError(
            "lambda = 0 is excluded (neutral mode); continue from Re(lambda) > 0"
        )
    if lam.real < 0.0:
        raise NumericalDomainError(f"need Re(lambda) >= 0, got {lam!r}")
    cfg = wave.config
    st = wave.burned
    rho, u, e = st.rho, st.u, st.e
    p, T, c_s, p_rho, p_e = thermo(st, cfg)
    if not (u < 0.0 and abs(u) < c_s):
        raise InvalidWaveError("burned state must be subsonic with u < 0")

    alpha = 1.0 / (u + c_s)
    g_minus = -lam * alpha

    # outgoing-acoustic left row of the gas block, energy component scaled to 1
    ell_V = np.array(
        [
            (p_rho - c_s * u) * rho / p_e + 0.5 * u * u - e,
            (c_s - p_e * u / rho) * rho / p_e,
            1.0,
        ]
    )

    r = st.r
    psi = reaction_psi(st, cfg)
    g0, g1 = rho, rho * u
    Q = np.zeros((3, r))
    Q[2, :] = cfg.q
    f0V, f1V = _gas_block_jacobians(st, cfg)
    f1Y = np.zeros((3, r))  # p_Y = 0 for the ideal gas; kept for the general shape
    B = lam * np.linalg.solve(f1V.T, f0V.T).T @ f1Y + cfg.K * psi * Q
    resolvent = lam * (g0 - alpha * g1) * np.eye(r) + cfg.K * psi * np.eye(r)
    if abs(np.linalg.det(resolvent)) < 1e-14 * (1.0 + abs(lam)) ** r:
        raise NumericalDomainError(
            f"reactant resolvent nearly singular at lambda={lam!r} (rate resonance)"
        )
    ell_Y = np.linalg.solve(resolvent.T.astype(complex), (ell_V @ B).astype(complex))
    return np.concatenate([ell_V.astype(complex), ell_Y]), g_minus


def left_mode_residual(wave: SteadyWave, lam: complex) -> float:
    """|| ell^T G_minus - g_minus ell^T || / ||ell|| for the analytic pair."""
    ell, g = stable_left_mode(wave, lam)
    G = limit_G_minus(wave, lam)
    return float(np.linalg.norm(ell @ G - g * ell) / np.linalg.norm(ell))


def jump_vector(wave: SteadyWave, lam: complex) -> np.ndarray:
    """Boundary jump row: lam * (F0 ahead - F0 at the Neumann point) + R there."""
    cfg = wave.config
    up = cfg.upstream
    ahead = StateW(up.rho, up.u, up.e, np.full(wave.burned.r, cfg.Y0))
    F0_plus, _, _ = fluxes(ahead, cfg)
    F0_minus, _, R_minus = fluxes(wave.neumann, cfg)
    return lam * (F0_plus - F0_minus) + R_minus


@dataclass(frozen=True)
class SpectralFrame:
    """Everything lambda-dependent needed by one determinant evaluation."""

    wave: SteadyWave
    lam: complex
    ell: np.ndarray
    g_minus: complex
    jump: np.ndarray


def make_frame(wave: SteadyWave, lam: complex) -> SpectralFrame:
    """Build and validate the spectral data for one frequency."""
    ell, g_minus = stable_left_mode(wave, lam)
    G = limit_G_minus(wave, lam)
    residual = np.linalg.norm(ell @ G - g_minus * ell) / np.linalg.norm(ell)
    if residual > 1e-10:
        raise NumericalDomainError(
            f"left-eigenpair residual {residual:.3e} > 1e-10 at lambda={lam!r}"
        )
    if lam.real > 0.0 and g_minus.real >= 0.0:
        raise NumericalDomainError(f"stable eigenvalue has Re >= 0 at lambda={lam!r}")
    if ell[2] != 1.0:
        raise NumericalDomainError("left mode normalization lost (energy component != 1)")
    return SpectralFrame(wave=wave, lam=lam, ell=ell, g_minus=g_minus, jump=jump_vector(wave, lam))


# ---------------------------------------------------------------------------
# numerical cross-check: eigensolver + Kato continuation


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
