"""Matrix-based reference computations the tests compare the library against.

The library applies the linearized operator only through the closed-form
kernel :func:`zndevans.spectral.rhs_kernel`.  The oracles here build the
same operator the textbook way, from the Jacobian matrices of
:func:`zndevans.spectral.jacobians` and a LAPACK solve, and cross-check the
analytic stable left mode with an eigensolver and a Kato-ODE continuation.
The profile is evaluated term by term from the config, as a reference for
the per-wave constants :func:`zndevans.znd.profile_at` reads.  They lie on
no result path.
"""

from __future__ import annotations

import math

import numpy as np

from zndevans import znd
from zndevans.errors import NumericalDomainError
from zndevans.spectral import jacobians, make_frame, stable_left_mode
from zndevans.znd import (
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


def burned_start_solve(wave: SteadyWave, lam: complex, M: float) -> tuple[np.ndarray, complex]:
    """:func:`zndevans.spectral.burned_start` the textbook way: the factored
    adjoint matrices A = -sigma (G^T - g_minus I) at the burned state and at
    y = -M from :func:`G_at_state`, w from a LAPACK solve of
    (K I - A_inf) w = A(-M) ell, and the tail with :func:`apply_A0`."""
    cfg = wave.config
    frame = make_frame(wave, lam)
    g = frame.g_minus
    eye = np.eye(4)

    def adjoint_matrix(state: StateW) -> tuple[np.ndarray, float]:
        sigma = wave.m / reaction_psi(state, cfg)
        return -sigma * (G_at_state(state, cfg, lam, reacting=True).T - g * eye), sigma

    A_inf, sigma_inf = adjoint_matrix(wave.burned)
    state = profile_at(wave, -M)
    A_M, _ = adjoint_matrix(state)
    zeta = frame.ell + np.linalg.solve(cfg.K * eye - A_inf, A_M @ frame.ell)
    integrand = lam * zeta @ np.array(apply_A0(state, profile_deriv(wave, -M)))
    return zeta, complex(integrand / (cfg.K - g * sigma_inf))


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
