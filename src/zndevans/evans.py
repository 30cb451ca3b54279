"""Three evaluation algorithms for the detonation stability determinant.

All integrations run in the reaction coordinate y (profile closed-form, no
interpolation error) with the measure factor sigma(y) = dx/dy.  Internally
the adjoint is propagated as the transpose system

    dZ/dy = -sigma(y) * G(lambda, y)^T Z,

whose solution is the componentwise conjugate of the conjugate-transpose
formulation; pairings are then plain bilinear dots.  This keeps every
quantity analytic in lambda, which the winding-number machinery requires.

:func:`evaluate` runs every method; ``method`` is one of :data:`METHODS`:

* ``"neutral"``      forward from y = -M with the asymptotic decay rate
  factored out, so the tracked solution is neutral and error modes are
  damped.  The well-conditioned default.
* ``"erpenbeck"``    forward without factoring, augmented with a running
  quadrature of the profile-derivative term so one adaptive controller
  governs both the ODE and the quadrature.
* ``"lee_stewart"``  backward from the boundary jump; error modes grow,
  which is the classical conditioning weakness near roots.

Each method is one private solver; the driver checks ``tol``, converts
lambda, builds the spectral frame and wraps the :class:`EvansResult`.

The left end y = -M is where the reactant Y = exp(K y) has fallen to eps.  All
three methods take their burned-end data there from the one
:class:`zndevans.spectral.SpectralFrame` of the solve, built by
:func:`zndevans.spectral.make_frame`: the factored adjoint's start
zeta(-M) = ell + eps w1 + ... + eps^12 w12, the stable left mode plus its
corrections in eps to order 12, from the wave's Taylor coefficients of the
field, which the forward methods integrate from and Lee-Stewart pairs
with; and, for Erpenbeck, the tail of the quadrature over (-inf, -M],
which the running quadrature starts from: the quadrature's integrand is
d/dy of Z . R(profile), so that tail is the start paired with the reaction
source at -M.  The truncation error is of order eps^13 rather than eps.
Unless ``M`` is given, the frame picks eps for each lambda from ``tol``
and the start's first neglected term, so that this error stays below
``tol``, and records the shallower depth M_far the same rule gives without
its cap.  The forward methods run at M.  Lee-Stewart's backward solution at
-M_far is the dual weight of the start's error there, so it checks the
far start's first neglected term against ``tol`` |D| for free and pairs at
M_far where that passes, at M where it does not (:func:`_lee_stewart`).

Normalizations are chosen so neutral and Erpenbeck values coincide, from one
frame, up to integration error: Erpenbeck's quadrature telescopes to the
neutral pairing Z(0) . jump.  The Lee-Stewart value differs by the recorded
analytic scalar ``kappa_to_neutral``.

With ``derivative=True``, :func:`evaluate` also returns d(D
kappa_to_neutral)/d lambda at the solve's own depth, which
:func:`zndevans.stability.count_unstable` refines its contour on.  The
field is linear and affine in lambda, so dZ/dlambda obeys the same field
plus the lambda-coefficient block applied to Z: each method integrates it
in the same RHS call and on the plain solve's mesh, carried outside the
step control, and the start, the jump and kappa are differentiated in
closed form.

The unfactored adjoint of Erpenbeck and of :func:`duality_check` is
integrated at unit scale with the tiny prefactor exp(-g_minus x(-M))
carried analytically: it starts from zeta(-M) (or ell) with absolute
tolerance ``tol``, the field is linear, and the run is the true-size run
divided by the prefactor, step for step.  :func:`_edge_prefactors`'s
double-range check is then the one guard of all three unfactored paths.
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
from .numerics import OdeField, SolveStats, check_rel_tol, integrate_adaptive
from .spectral import (
    _DEPTH_THETA,
    SpectralFrame,
    check_depth,
    jump_vector,
    make_frame,
    rhs_kernel,
    stable_left_mode,
)
from .znd import SteadyWave, profile_at, profile_deriv, x_of_y

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
    ``derivative`` is d(D * kappa_to_neutral)/d lambda at the solve's own
    depth, where :func:`evaluate` was asked for it, else None.
    """

    lam: complex
    D: complex
    method: str
    M: float
    stats: SolveStats
    kappa_to_neutral: complex = 1.0 + 0j
    derivative: complex | None = None

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


def _integrate(lam: complex, field: OdeField, span, init, tol: float, abs_tol):
    """``integrate_adaptive``, its failures re-raised carrying ``lam``: every
    integration in this module runs through here, however it is called."""
    try:
        return integrate_adaptive(field, span, init, rel_tol=tol, abs_tol=abs_tol)
    except StepSizeUnderflowError as exc:
        raise StepSizeUnderflowError(exc.x, exc.h, lam) from exc
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(exc.x, lam) from exc


def _field(wave: SteadyWave, lam: complex, shift: complex = 0.0, adjoint: bool = True,
           dshift: complex | None = None) -> OdeField:
    """dZ/dy = -sigma (G - shift I)^T Z (adjoint) or dZ0/dy = sigma G Z0
    (forward, ``shift`` unused) without forming G.  Each call evaluates the
    profile once through this module's binding of profile_at, so a tracer
    that wraps it counts one evaluation per RHS call.

    Given ``dshift`` (d shift/d lambda; 0 for the forward field), the field
    has eight components: Z and V = dZ/dlambda, by :func:`rhs_kernel`'s
    derivative form, in the same call."""
    if dshift is None:
        kernel = rhs_kernel(wave, lam, shift, adjoint)

        def rhs(y: float, z: list) -> list:
            return kernel(profile_at(wave, y), z)

        return OdeField(dimension=4, eval=rhs)
    kernel = rhs_kernel(wave, lam, shift, adjoint, dshift)

    def rhs_and_derivative(y: float, z: list) -> list:
        return kernel(profile_at(wave, y), z[:4], z[4:])

    return OdeField(dimension=8, eval=rhs_and_derivative)


def _carried(controlled: list) -> list:
    """abs_tol of a derivative solve: the plain solve's ``controlled``
    entries, then +inf for each one's derivative, which
    :func:`zndevans.numerics.integrate_adaptive` carries outside its error
    norm, so the mesh, the plain components and the stats are the plain
    solve's, bit for bit."""
    return controlled + [math.inf] * len(controlled)


def _edge_prefactors(wave: SteadyWave, lam: complex, g_minus: complex, depths: list,
                     advice: str = "use the neutral method") -> list:
    """(exp(-g_minus * x(-M)), x(-M)) for each depth M of the ascending
    ``depths``, from one x_of_y call: the prefactor relates unfactored data
    at y=-M to the neutral normalization; tiny for large |lambda| M, so the
    unit-scale runs carry it analytically.  Its log-derivative in lambda is
    -g_minus' x(-M) = x(-M) / (u- + c-).  Their one guard: it raises, with
    ``advice``, when the deepest is out of double range."""
    xs = x_of_y(wave, [-M for M in depths]).tolist()
    exponents = [-g_minus * x for x in xs]
    if abs(exponents[-1].real) > _EXP_GUARD:
        raise EvansOverflowError(
            f"unfactored mode spans e^{abs(exponents[-1].real):.0f} over the domain; "
            f"out of double range -- {advice}",
            lam,
        )
    return [(cmath.exp(exponent), x) for exponent, x in zip(exponents, xs)]


def _neutral(wave: SteadyWave, lam: complex, frame: SpectralFrame, tol: float):
    """Forward adjoint shooting with the asymptotic decay factored out.

    Integrates dZ/dy = -sigma(y) (G(y) - g_minus I)^T Z from y=-M with
    Z(-M) = zeta(-M), the frame's corrected stable left mode; the factoring
    makes the tracked solution neutral at the burned end, so the value at
    y=0 is O(1) and independent of M up to truncation error.
    D = Z(0) . jump.  With the frame's derivative, V = dZ/dlambda is carried
    from zeta'(-M), and D' = V(0) . jump + Z(0) . [F0].
    """
    zeta = frame.zeta
    # the solution changes by about exp(Re(lam) I), I = wave.acoustic_lag,
    # between the burned end and the shock; where that leaves it under the
    # absolute floor tol, z(0) is integration noise whatever the depth
    size = float(np.linalg.norm(zeta)) * math.exp(lam.real * wave.acoustic_lag)
    if size < tol:
        raise MisselectedModeError(
            f"factored adjoint expected to fall to {size:.3e}, under the absolute "
            f"tolerance {tol:g}, where its value at the shock is noise (tighten tol)",
            lam,
        )
    d = frame.derivative
    if d is None:
        field, init, atol = _field(wave, lam, frame.g_minus), zeta, tol
    else:
        field = _field(wave, lam, frame.g_minus, dshift=d.g_minus)
        init, atol = np.append(zeta, d.zeta), _carried([tol] * 4)
    z, stats = _integrate(lam, field, (-frame.M, 0.0), init, tol, atol)
    z, v = z[:4], z[4:]
    growth = float(np.linalg.norm(z) / np.linalg.norm(zeta))
    if not 1e-6 < growth < 1e6:
        raise MisselectedModeError(
            f"factored adjoint magnitude changed by {growth:.3e}: either the "
            "decay rate g_minus is misselected, or the profile transition "
            "out-scales the absolute-tolerance floor (tighten tol)",
            lam,
        )
    slope = None if d is None else complex(v @ frame.jump + z @ wave.jump_terms[0])
    return complex(z @ frame.jump), stats, 1.0 + 0j, slope


def _erpenbeck(wave: SteadyWave, lam: complex, frame: SpectralFrame, tol: float):
    """Forward adjoint shooting without factoring, plus a running quadrature.

    The state is augmented with the integral of lambda * Z . (F0 o profile)'
    so the one adaptive controller bounds ODE and quadrature error together;
    the determinant is that integral plus the pure-jump boundary term.  All
    of it is integrated at unit scale with the tiny prefactor
    s = exp(-g_minus x(-M)) carried analytically, from zeta(-M) and the
    quadrature's exact tail over (-inf, -M], zeta(-M) . R(-M) (the frame's
    ``zeta`` and ``tail``).  The integrand is d/dy (Z . R), so s times the
    integral plus the pure-jump term is s Z(0) . jump: the neutral value up
    to integration error (kappa = 1).

    With the frame's derivative, ten components: V = dZ/dlambda from
    zeta'(-M) and the quadrature's derivative, of Z . A0 W_y + lambda V .
    A0 W_y, from tail' = zeta' . R(-M), both carried; s'/s = x(-M)/(u- + c-).
    """
    (s, x), = _edge_prefactors(wave, lam, frame.g_minus, [frame.M])
    jump_F0_only = lam * wave.jump_terms[0]  # lam * [F0], no source term
    atol = [tol] * 4 + [tol / abs(s)]  # the quadrature's: tol on D = s z[4] + ...
    kernel = rhs_kernel(wave, lam)
    d = frame.derivative
    if d is None:
        # components 0-3 are the adjoint, component 4 the running quadrature of
        # lam z . (F0 o profile)' = lam z . A0 (profile)', A0 of spectral.jacobians;
        # one call each of this module's profile_at and profile_deriv per RHS call
        def rhs(y: float, z: list) -> list:
            state = profile_at(wave, y)
            rho, u, e, Y = state
            z0, z1, z2, z3, _ = z
            dz = kernel(state, (z0, z1, z2, z3))
            v0, v1, v2, v3 = profile_deriv(wave, y)
            dz.append(lam * (z0 * v0 + z1 * (u * v0 + rho * v1)
                             + z2 * ((e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2)
                             + z3 * (Y * v0 + rho * v3)))
            return dz

        init = np.append(frame.zeta, frame.tail)
        z, stats = _integrate(lam, OdeField(dimension=5, eval=rhs), (-frame.M, 0.0), init, tol, atol)
        return s * complex(z[4] + z[:4] @ jump_F0_only), stats, 1.0 + 0j, None

    # components 0-4 as above, 5-8 V and 9 the quadrature's derivative
    def rhs_and_derivative(y: float, z: list) -> list:
        state = profile_at(wave, y)
        rho, u, e, Y = state
        z0, z1, z2, z3, _, d0, d1, d2, d3, _ = z
        dz = kernel(state, (z0, z1, z2, z3), (d0, d1, d2, d3))
        v0, v1, v2, v3 = profile_deriv(wave, y)
        # A0 W_y
        a1, a2, a3 = u * v0 + rho * v1, (e + 0.5 * u * u) * v0 + rho * u * v1 + rho * v2, Y * v0 + rho * v3
        za = z0 * v0 + z1 * a1 + z2 * a2 + z3 * a3
        dz.insert(4, lam * za)
        dz.append(za + lam * (d0 * v0 + d1 * a1 + d2 * a2 + d3 * a3))
        return dz

    init = np.concatenate([frame.zeta, [frame.tail], d.zeta, [d.tail]])
    z, stats = _integrate(lam, OdeField(dimension=10, eval=rhs_and_derivative), (-frame.M, 0.0),
                          init, tol, _carried(atol))
    plain = complex(z[4] + z[:4] @ jump_F0_only)
    slope = complex(z[9] + z[5:9] @ jump_F0_only + z[:4] @ wave.jump_terms[0])
    return s * plain, stats, 1.0 + 0j, s * (slope - d.g_minus * x * plain)


def _lee_stewart(wave: SteadyWave, lam: complex, frame: SpectralFrame, tol: float):
    """Backward shooting of the forward eigenvalue system from the jump data.

    Integrates dZ0/dy = sigma(y) G(y) Z0 from Z0(0) = jump down to y=-M and
    pairs with the frame's corrected left mode: D = zeta(-M) . Z0(-M).
    Error modes grow along the way, which is this method's classical
    weakness; the value relates to the neutral one through
    kappa_to_neutral = exp(-g_minus x(-M)).

    Where the frame's far depth M_far is shallower than M, the integration
    stops at -M_far first.  D's truncation error from a start off by delta
    is delta . Z0(-M_far), so the first neglected term of the series start
    at eps_far = exp(-K M_far), eps_far^13 w_13 . Z0(-M_far), estimates it
    (within a factor 2.3 of the true error on the waves of
    tests/test_truncation.py).  If that is within 2 theta tol |D|, theta
    of make_frame's rule, the solve pairs with the series start there and
    stops; otherwise the same integration continues to -M and pairs with
    the frame's zeta, the two legs' step counts added over the span
    (0, -M).  Either way one x_of_y call gives kappa at both depths and the
    guard, at M, raises before any integration.

    With the frame's derivative, U = dZ0/dlambda is carried from U(0) =
    [F0], and at the depth paired at D' = zeta' . Z0 + zeta . U, with zeta'
    from the frame's w' there; kappa'/kappa = x(-M)/(u- + c-).
    """
    d = frame.derivative
    if d is None:
        field, init, atol = _field(wave, lam, adjoint=False), frame.jump, tol
    else:
        field = _field(wave, lam, adjoint=False, dshift=0.0)
        init, atol = np.append(frame.jump, wave.jump_terms[0]), _carried([tol] * 4)

    def paired(z, zeta, dzeta, kappa, x):
        """D from the start zeta, and (D kappa)' from its derivative dzeta
        (None on a plain solve), at the depth where kappa and x belong."""
        D = complex(zeta @ z[:4])
        if d is None:
            return D, None
        return D, kappa * complex(dzeta @ z[:4] + zeta @ z[4:] - d.g_minus * x * D)

    M, M_far = frame.M, frame.M_far
    if M_far is None or M_far >= M:
        (kappa, x), = _edge_prefactors(wave, lam, frame.g_minus, [M])
        z, stats = _integrate(lam, field, (0.0, -M), init, tol, atol)
        D, slope = paired(z, frame.zeta, d and d.zeta, kappa, x)
        return D, stats, kappa, slope
    (kappa_far, x_far), (kappa, x) = _edge_prefactors(wave, lam, frame.g_minus, [M_far, M])
    z, near = _integrate(lam, field, (0.0, -M_far), init, tol, atol)
    powers = math.exp(-wave.config.K * M_far) ** np.arange(len(frame.w))
    zeta_far = powers[:-1] @ frame.w[:-1]
    D = complex(zeta_far @ z[:4])
    if abs(powers[-1] * complex(frame.w[-1] @ z[:4])) <= 2.0 * _DEPTH_THETA * tol * abs(D):
        D, slope = paired(z, zeta_far, d and powers[:-1] @ d.w, kappa_far, x_far)
        return D, near, kappa_far, slope
    z, far = _integrate(lam, field, (-M_far, -M), z, tol, atol)
    stats = SolveStats(near.accepted_steps + far.accepted_steps,
                       near.rejected_steps + far.rejected_steps,
                       near.rhs_evaluations + far.rhs_evaluations, (0.0, -M))
    D, slope = paired(z, frame.zeta, d and d.zeta, kappa, x)
    return D, stats, kappa, slope


# method -> solver(wave, lam, frame, tol) -> (D, stats, kappa_to_neutral,
# d(D kappa_to_neutral)/d lambda or None), called with lam complex; the
# derivative comes with the frame's, None without it
_SOLVERS = {METHOD_NEUTRAL: _neutral, METHOD_ERPENBECK: _erpenbeck, METHOD_LEE_STEWART: _lee_stewart}


def evaluate(
    wave: SteadyWave,
    lam: complex,
    method: str = METHOD_NEUTRAL,
    M: float | None = None,
    tol: float = 1e-5,
    derivative: bool = False,
) -> EvansResult:
    """D(lam) by the named method, one of :data:`METHODS`.

    ``tol`` is the relative and absolute integration tolerance and ``M``
    the truncation depth in y; if None, :func:`make_frame` picks it from
    ``tol`` and ``lam`` so that the truncation error stays below ``tol``.
    Every numerical failure carries ``lam``: integrator errors from
    :func:`_integrate`, :class:`MisselectedModeError` and
    :class:`EvansOverflowError` from where they are raised.

    With ``derivative``, the result's ``derivative`` is d(D
    kappa_to_neutral)/d lambda at the solve's own depth (the depth rule
    is not differentiated): the solve integrates dZ/dlambda alongside Z
    with the same kernel call and on the same mesh, carried outside the
    step control, and differentiates the start, the jump and kappa in
    closed form.  ``D``, ``M``, ``kappa_to_neutral`` and ``stats`` are the
    plain solve's, bit for bit.  Its cost is under twice the plain
    solve's: about 1.7-1.8x, one RHS call of twice the width per step.
    """
    try:
        solve = _SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    check_rel_tol(tol)
    lam = complex(lam)
    # a plain solve makes make_frame's plain call, which tests replace by older frames
    frame = make_frame(wave, lam, tol, M, derivative=True) if derivative else make_frame(wave, lam, tol, M)
    D, stats, kappa, slope = solve(wave, lam, frame, tol)
    # every span runs between 0 and minus the depth the solve paired at
    M = -min(stats.span)
    return EvansResult(lam=lam, D=D, method=method, M=M, stats=stats, kappa_to_neutral=kappa,
                       derivative=slope)


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
    point mesh.  Deviation tracks the integration tolerance.  ``M``
    defaults to the fixed depth ``wave.M_y``, and the adjoint starts from
    the uncorrected left mode there at unit scale: the tiny prefactor
    cancels from the relative deviation and is computed only for its guard.
    """
    lam = complex(lam)
    if lam.real <= 0.0:
        raise NumericalDomainError("duality check needs Re(lambda) > 0", lam)
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    # no frame: the check starts from ell itself, and needs no start series
    M = check_depth(wave.M_y if M is None else M)
    ell, g_minus = stable_left_mode(wave, lam)
    _edge_prefactors(wave, lam, g_minus, [M], "lower Re(lambda) or M")  # the guard alone
    grid = np.linspace(-M, 0.0, n_grid)

    adjoint_field = _field(wave, lam)
    z_adj = np.empty((n_grid, 4), dtype=complex)
    z = ell
    z_adj[0] = z
    for i in range(n_grid - 1):
        z, _ = _integrate(lam, adjoint_field, (grid[i], grid[i + 1]), z, tol, tol)
        z_adj[i + 1] = z

    fwd_field = _field(wave, lam, adjoint=False)
    z_fwd = np.empty((n_grid, 4), dtype=complex)
    z = jump_vector(wave, lam)
    z_fwd[n_grid - 1] = z
    for i in range(n_grid - 1, 0, -1):
        z, _ = _integrate(lam, fwd_field, (grid[i], grid[i - 1]), z, tol, tol)
        z_fwd[i - 1] = z

    products = np.einsum("ij,ij->i", z_adj, z_fwd)
    center = complex(np.median(products.real), np.median(products.imag))
    if center == 0.0:
        raise NumericalDomainError("duality products vanish; lambda sits on a root", lam)
    return float(np.max(np.abs(products - center)) / abs(center))
