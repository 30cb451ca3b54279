"""Three evaluation algorithms for the detonation stability determinant.

All integrations run in the reaction coordinate y (profile closed-form, no
interpolation error) with the measure factor sigma(y) = dx/dy.  Internally
the adjoint is propagated as the transpose system

    dZ/dy = -sigma(y) * G(lambda, y)^T Z,

whose solution is the componentwise conjugate of the conjugate-transpose
formulation; pairings are then plain bilinear dots.  This keeps every
quantity analytic in lambda, which the winding-number machinery requires.

Methods:

* ``evans_neutral``   forward from y = -M with the asymptotic decay rate
  factored out, so the tracked solution is neutral and error modes are
  damped.  The well-conditioned default.
* ``evans_erpenbeck`` forward without factoring, augmented with a running
  quadrature of the profile-derivative term so one adaptive controller
  governs both the ODE and the quadrature.
* ``evans_lee_stewart`` backward from the boundary jump; error modes grow,
  which is the classical conditioning weakness near roots.

Normalizations are chosen so neutral and Erpenbeck values coincide up to
truncation error; the Lee-Stewart value differs by the recorded analytic
scalar ``kappa_to_neutral``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvansOverflowError,
    MisselectedModeError,
    NonFiniteStateError,
    NumericalDomainError,
    StepSizeUnderflowError,
)
from .numerics import OdeField, SolveStats, integrate_adaptive
from .spectral import SpectralFrame, apply_A0, make_frame, rhs_kernel
from .znd import SteadyWave, fluxes, profile_at, profile_deriv, x_of_y

# Unused here, but perfbench/tracing.py wraps every layer by its name in this
# module, so the binding stays.
from .spectral import jacobians  # noqa: F401

_EXP_GUARD = 690.0  # |exponent| beyond which doubles over/underflow

METHOD_NEUTRAL = "neutral"
METHOD_ERPENBECK = "erpenbeck"
METHOD_LEE_STEWART = "lee_stewart"
METHODS = (METHOD_NEUTRAL, METHOD_ERPENBECK, METHOD_LEE_STEWART)


@dataclass(frozen=True)
class EvansResult:
    """Determinant value at one frequency plus solver accounting.

    ``kappa_to_neutral`` is the analytic scalar with
    ``kappa_to_neutral * D == D_neutral`` up to truncation error.
    """

    lam: complex
    D: complex
    method: str
    M: float
    stats: SolveStats
    kappa_to_neutral: complex = 1.0 + 0j

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "D": [self.D.real, self.D.imag],
            "method": self.method,
            "M": self.M,
            "accepted_steps": self.stats.accepted_steps,
            "rejected_steps": self.stats.rejected_steps,
            "rhs_evaluations": self.stats.rhs_evaluations,
            "kappa_to_neutral": [self.kappa_to_neutral.real, self.kappa_to_neutral.imag],
        }


def _resolve_M(wave: SteadyWave, M: float | None) -> float:
    if M is None:
        return wave.M_y
    M = float(M)
    if not 0.0 < M < math.inf:  # also rejects NaN
        raise ValueError(f"M must be positive and finite, got {M}")
    return M


def _integrate(lam: complex, field: OdeField, span, init, tol: float, abs_tol):
    """``integrate_adaptive``, its failures re-raised carrying ``lam``: every
    integration in this module runs through here, however it is called."""
    try:
        return integrate_adaptive(field, span, init, rel_tol=tol, abs_tol=abs_tol)
    except StepSizeUnderflowError as exc:
        raise StepSizeUnderflowError(exc.x, exc.h, complex(lam)) from exc
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(exc.x, complex(lam)) from exc


# Each RHS below builds its kernel once per solve and evaluates the profile
# through this module's binding of profile_at (and profile_deriv) once per
# call, so a tracer that wraps those bindings counts one of each per RHS call.


def _adjoint_rhs(wave: SteadyWave, lam: complex, shift: complex):
    """dZ/dy = -sigma * ((G - shift I)^T) Z without forming G explicitly."""
    kernel = rhs_kernel(wave, complex(lam), complex(shift))

    def rhs(y: float, z: list) -> list:
        return kernel(profile_at(wave, y), z)

    return rhs


def _forward_rhs(wave: SteadyWave, lam: complex):
    """dZ0/dy = sigma * G Z0 without forming G explicitly."""
    kernel = rhs_kernel(wave, complex(lam), adjoint=False)

    def rhs(y: float, z: list) -> list:
        return kernel(profile_at(wave, y), z)

    return rhs


def evans_neutral(
    wave: SteadyWave,
    lam: complex,
    M: float | None = None,
    tol: float = 1e-5,
) -> EvansResult:
    """Forward adjoint shooting with the asymptotic decay factored out.

    Integrates dZ/dy = -sigma(y) (G(y) - g_minus I)^T Z from y=-M with
    Z(-M) = ell(lambda); the factoring makes the tracked solution neutral at
    the burned end, so the value at y=0 is O(1) and independent of M up to
    truncation error.  Returns D = Z(0) . jump.
    """
    M = _resolve_M(wave, M)
    frame = make_frame(wave, lam)
    field = OdeField(dimension=4, eval=_adjoint_rhs(wave, lam, frame.g_minus))
    z, stats = _integrate(lam, field, (-M, 0.0), frame.ell, tol, tol)
    growth = float(np.linalg.norm(z) / np.linalg.norm(frame.ell))
    if not 1e-6 < growth < 1e6:
        raise MisselectedModeError(
            f"factored adjoint magnitude changed by {growth:.3e}: either the "
            "decay rate g_minus is misselected, or the profile transition "
            "out-scales the absolute-tolerance floor (tighten tol)",
            complex(lam),
        )
    D = complex(z @ frame.jump)
    return EvansResult(lam=complex(lam), D=D, method=METHOD_NEUTRAL, M=M, stats=stats)


def _edge_prefactor(wave: SteadyWave, lam: complex, frame: SpectralFrame, M: float) -> complex:
    """exp(-g_minus * x(-M)): relates unfactored data at y=-M to the neutral
    normalization.  Tiny for large |lambda| M; raises on double-range exit."""
    x_M = float(x_of_y(wave, [-M])[0])
    exponent = -frame.g_minus * x_M
    if abs(exponent.real) > _EXP_GUARD:
        raise EvansOverflowError(
            f"unfactored mode spans e^{abs(exponent.real):.0f} over the domain; "
            "out of double range -- use the neutral method",
            complex(lam),
        )
    return cmath.exp(exponent)


def evans_erpenbeck(
    wave: SteadyWave,
    lam: complex,
    M: float | None = None,
    tol: float = 1e-5,
) -> EvansResult:
    """Forward adjoint shooting without factoring, plus a running quadrature.

    The state is augmented with the integral of lambda * Z . (F0 o profile)'
    so the one adaptive controller bounds ODE and quadrature error together;
    the determinant is that integral plus the pure-jump boundary term.  The
    initial data carry the prefactor exp(-g_minus x(-M)), which makes the
    returned value coincide with the neutral one (kappa = 1).
    """
    M = _resolve_M(wave, M)
    frame = make_frame(wave, lam)
    prefactor = _edge_prefactor(wave, lam, frame, M)
    lam = complex(lam)
    kernel = rhs_kernel(wave, lam)

    # components 0-3 are the adjoint, component 4 the running quadrature
    def rhs(y: float, z: list) -> list:
        state = profile_at(wave, y)
        dz = kernel(state, z[:4])
        d0, d1, d2, d3 = apply_A0(state, profile_deriv(wave, y))  # (F0 o profile)'
        dz.append(lam * (z[0] * d0 + z[1] * d1 + z[2] * d2 + z[3] * d3))
        return dz

    atol = np.full(5, tol)
    atol[:4] *= max(abs(prefactor), 1e-280)  # keep the tiny start under relative control
    init = np.concatenate([prefactor * frame.ell, [0.0]])
    z, stats = _integrate(lam, OdeField(dimension=5, eval=rhs), (-M, 0.0), init, tol, atol)
    jump_F0_only = frame.jump - fluxes(wave.neumann, wave.config)[2]  # lam * [F0], no source term
    D = complex(z[4] + z[:4] @ jump_F0_only)
    return EvansResult(lam=complex(lam), D=D, method=METHOD_ERPENBECK, M=M, stats=stats)


def evans_lee_stewart(
    wave: SteadyWave,
    lam: complex,
    M: float | None = None,
    tol: float = 1e-5,
) -> EvansResult:
    """Backward shooting of the forward eigenvalue system from the jump data.

    Integrates dZ0/dy = sigma(y) G(y) Z0 from Z0(0) = jump down to y=-M and
    pairs with the analytic left mode: D = ell . Z0(-M).  Error modes grow
    along the way, which is this method's classical weakness; the value
    relates to the neutral one through kappa_to_neutral = exp(-g_minus x(-M)).
    """
    M = _resolve_M(wave, M)
    frame = make_frame(wave, lam)
    kappa = _edge_prefactor(wave, lam, frame, M)
    field = OdeField(dimension=4, eval=_forward_rhs(wave, lam))
    z, stats = _integrate(lam, field, (0.0, -M), frame.jump, tol, tol)
    D = complex(frame.ell @ z)
    return EvansResult(
        lam=complex(lam),
        D=D,
        method=METHOD_LEE_STEWART,
        M=M,
        stats=stats,
        kappa_to_neutral=kappa,
    )


_EVALUATORS = {
    METHOD_NEUTRAL: evans_neutral,
    METHOD_ERPENBECK: evans_erpenbeck,
    METHOD_LEE_STEWART: evans_lee_stewart,
}


def evaluate(wave: SteadyWave, lam: complex, method: str = METHOD_NEUTRAL, **kw) -> EvansResult:
    """D(lam) by the named method.

    Every numerical failure carries ``lam``: integrator errors from
    :func:`_integrate`, :class:`MisselectedModeError` and
    :class:`EvansOverflowError` from where they are raised.
    """
    try:
        fn = _EVALUATORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    return fn(wave, lam, **kw)


def duality_check(
    wave: SteadyWave,
    lam: complex,
    M: float | None = None,
    n_grid: int = 9,
    tol: float = 1e-8,
) -> float:
    """Constancy test of the adjoint/forward pairing along the profile.

    The product Z_adjoint(y) . Z0(y) is independent of y in exact arithmetic;
    returns the maximum relative deviation from its median over an n_grid
    point mesh.  Deviation tracks the integration tolerance.
    """
    if complex(lam).real <= 0.0:
        raise NumericalDomainError("duality check needs Re(lambda) > 0")
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    M = _resolve_M(wave, M)
    frame = make_frame(wave, lam)
    prefactor = _edge_prefactor(wave, lam, frame, M)
    grid = np.linspace(-M, 0.0, n_grid)

    adjoint_field = OdeField(dimension=4, eval=_adjoint_rhs(wave, lam, 0.0))
    atol = tol * max(abs(prefactor), 1e-280)
    z_adj = np.empty((n_grid, 4), dtype=complex)
    z = prefactor * frame.ell
    z_adj[0] = z
    for i in range(n_grid - 1):
        z, _ = _integrate(lam, adjoint_field, (grid[i], grid[i + 1]), z, tol, atol)
        z_adj[i + 1] = z

    fwd_field = OdeField(dimension=4, eval=_forward_rhs(wave, lam))
    z_fwd = np.empty((n_grid, 4), dtype=complex)
    z = frame.jump.astype(complex)
    z_fwd[n_grid - 1] = z
    for i in range(n_grid - 1, 0, -1):
        z, _ = _integrate(lam, fwd_field, (grid[i], grid[i - 1]), z, tol, tol)
        z_fwd[i - 1] = z

    products = np.einsum("ij,ij->i", z_adj, z_fwd)
    center = complex(np.median(products.real), np.median(products.imag))
    if center == 0.0:
        raise NumericalDomainError("duality products vanish; lambda sits on a root")
    return float(np.max(np.abs(products - center)) / abs(center))
