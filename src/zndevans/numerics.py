"""Complex-valued adaptive Runge-Kutta integration and contour utilities.

The integrator is an embedded Dormand-Prince 5(4) pair with a proportional
step controller and per-step mixed absolute/relative error norm.  Everything
downstream runs through one step loop, ``_integrate``: profile-coordinate
shooting by :func:`integrate_adaptive`, the model benchmark by
:func:`integrate_adaptive_scaled`.  So mesh-point accounting lives here too.

Also here: winding numbers by the argument principle, adaptive contour
refinement, and complex Newton iteration with finite-difference derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourRefinementError,
    ContourThroughRootError,
    DegenerateRootError,
    NewtonError,
    NonFiniteStateError,
    StepSizeUnderflowError,
    UnderSampledContourError,
)

Evaluator = Callable[[complex], complex]

# Dormand-Prince 5(4) tableau.  Fifth-order propagating solution, fourth-order
# embedded error estimate, FSAL: the last row of _A holds the fifth-order
# weights, so the last stage is evaluated at the new state and its slope is
# the first stage of the next step.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b5 - b4: weights of the embedded error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.8
_MAX_FACTOR = 5.0
_HMAX_FRACTION = 0.1
_UNDERFLOW_FRACTION = 1e-14

# Renormalization bounds for linear fields whose solutions outgrow doubles.
_RENORM_LIMIT = 1e200
_RENORM_TARGET = 1e100

# Give-up caps: attempted steps per integration, bisections per contour edge.
_MAX_STEPS = 2_000_000
_MAX_DEPTH = 12


@dataclass(frozen=True)
class OdeField:
    """First-order complex ODE system z' = eval(x, z) of fixed dimension.

    ``eval(x, z)`` takes a list of ``dimension`` Python complex numbers and
    returns a sequence of ``dimension`` complex numbers, best a list: the
    integrator steps on such lists and builds no array.
    """

    dimension: int
    eval: Callable[[float, list], Sequence[complex]]

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("OdeField dimension must be positive")


@dataclass
class SolveStats:
    """Step accounting for one adaptive integration."""

    accepted_steps: int
    rejected_steps: int
    rhs_evaluations: int
    span: tuple[float, float]

    @property
    def mesh_points(self) -> int:
        """Accepted nodes including both endpoints."""
        return self.accepted_steps + 1


def _integrate(
    field: OdeField,
    span: tuple[float, float],
    init: Sequence[complex],
    rel_tol: float,
    abs_tol,
    renormalize: bool,
) -> tuple[np.ndarray, SolveStats, int]:
    x0, x1 = float(span[0]), float(span[1])
    if x0 == x1:
        raise ValueError("integration span endpoints must be distinct")
    if not 0.0 < rel_tol < math.inf:  # also rejects NaN
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    atol = np.asarray(abs_tol, dtype=float)
    if not np.all((0.0 < atol) & (atol < math.inf)):
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol}")
    dimension = field.dimension
    z = np.array(init, dtype=complex)
    if z.shape != (dimension,):
        raise ValueError(f"initial state must have {dimension} entries")
    threshold = np.broadcast_to(atol / rel_tol, z.shape).tolist()
    z = z.tolist()

    width = abs(x1 - x0)
    direction = 1.0 if x1 > x0 else -1.0
    h_floor = _UNDERFLOW_FRACTION * width
    h_max = _HMAX_FRACTION * width

    # the tableau as scalar locals; zero weights are left out of the sums
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _A
    e1, _, e3, e4, e5, e6, e7 = _E
    _, c2, c3, c4, c5, _, _ = _C
    f = field.eval

    x = x0
    accepted = rejected = 0
    pow2 = 0
    k1 = f(x, z)
    nfev = 1
    if len(k1) != dimension:
        raise ValueError(f"field returned {len(k1)} slopes, expected {dimension}")
    if not all(map(cmath.isfinite, k1)):
        raise NonFiniteStateError(x)

    try:
        # max(|z|, threshold): the part of the error weight fixed within a step
        z_scale = [max(abs(v), t) for v, t in zip(z, threshold)]
        # initial step from the scaled size of the first slope
        rh = max([abs(p) / s for p, s in zip(k1, z_scale)])
    except OverflowError:  # a modulus beyond double range
        raise NonFiniteStateError(x) from None
    absh = h_max
    rh /= _SAFETY * rel_tol ** 0.2
    if absh * rh > 1.0:
        absh = max(1.0 / rh, h_floor)

    while True:
        failed_this_step = False
        while True:
            h = direction * absh
            at_end = False
            if direction * (x + h - x1) >= 0.0:
                h = x1 - x
                absh = abs(h)
                at_end = True

            # b_ij = h * a_ij, formed once per attempt
            b21 = h * a21
            b31, b32 = h * a31, h * a32
            b41, b42, b43 = h * a41, h * a42, h * a43
            b51, b52, b53, b54 = h * a51, h * a52, h * a53, h * a54
            b61, b62, b63, b64, b65 = h * a61, h * a62, h * a63, h * a64, h * a65
            b71, b73, b74, b75, b76 = h * a71, h * a73, h * a74, h * a75, h * a76
            k2 = f(x + c2 * h, [v + b21 * p1 for v, p1 in zip(z, k1)])
            k3 = f(x + c3 * h, [v + (b31 * p1 + b32 * p2) for v, p1, p2 in zip(z, k1, k2)])
            k4 = f(x + c4 * h, [
                v + (b41 * p1 + b42 * p2 + b43 * p3) for v, p1, p2, p3 in zip(z, k1, k2, k3)
            ])
            k5 = f(x + c5 * h, [
                v + (b51 * p1 + b52 * p2 + b53 * p3 + b54 * p4)
                for v, p1, p2, p3, p4 in zip(z, k1, k2, k3, k4)
            ])
            k6 = f(x + h, [
                v + (b61 * p1 + b62 * p2 + b63 * p3 + b64 * p4 + b65 * p5)
                for v, p1, p2, p3, p4, p5 in zip(z, k1, k2, k3, k4, k5)
            ])
            z_new = [
                v + (b71 * p1 + b73 * p3 + b74 * p4 + b75 * p5 + b76 * p6)
                for v, p1, p3, p4, p5, p6 in zip(z, k1, k3, k4, k5, k6)
            ]
            k7 = f(x + h, z_new)
            nfev += 6  # FSAL: six new slopes per attempt

            # max_i |err_i| / max(|z_i|, |z_new_i|, threshold_i) in one pass;
            # a NaN ratio must win, so it is not left to max()
            err = 0.0
            abs_new = []
            try:
                for v, s, p1, p3, p4, p5, p6, p7 in zip(z_new, z_scale, k1, k3, k4, k5, k6, k7):
                    m = abs(v)
                    abs_new.append(m)
                    r = abs(h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)) / (
                        s if s >= m else m
                    )
                    if r > err or r != r:
                        err = r
            except OverflowError:  # a modulus beyond double range
                err = math.inf

            if err <= rel_tol:  # False for NaN
                zmax = max(abs_new)
                if zmax < math.inf:
                    break
                err = math.inf  # a component of the new state overflowed
            rejected += 1
            if not math.isfinite(err):
                absh *= 0.5
            elif not failed_this_step:
                absh *= max(0.1, _SAFETY * (rel_tol / err) ** 0.2)
            else:
                absh *= 0.5
            failed_this_step = True
            if absh < h_floor:
                if not math.isfinite(err):
                    raise NonFiniteStateError(x)
                raise StepSizeUnderflowError(x, h)
            if accepted + rejected >= _MAX_STEPS:
                raise StepSizeUnderflowError(x, h)

        accepted += 1
        x = x1 if at_end else x + h
        z = z_new
        k1 = k7
        if renormalize and zmax > _RENORM_LIMIT:
            shift = int(math.ceil(math.log2(zmax / _RENORM_TARGET)))
            factor = math.ldexp(1.0, -shift)
            z = [v * factor for v in z]
            k1 = [p * factor for p in k1]  # valid for linear fields only
            pow2 += shift
            abs_new = [abs(v) for v in z]
        if x == x1:
            return np.array(z), SolveStats(accepted, rejected, nfev, (x0, x1)), pow2
        z_scale = [m if m > t else t for m, t in zip(abs_new, threshold)]
        if not failed_this_step:
            # grow only if this step went through on the first try
            if err == 0.0:
                absh = min(h_max, _MAX_FACTOR * absh)
            else:
                absh = min(
                    h_max, absh * min(_MAX_FACTOR, _SAFETY * (rel_tol / err) ** 0.2)
                )
        if accepted + rejected >= _MAX_STEPS:
            raise StepSizeUnderflowError(x, h)


def integrate_adaptive(
    field: OdeField,
    span: tuple[float, float],
    init: Sequence[complex],
    rel_tol: float = 1e-5,
    abs_tol=1e-5,
) -> tuple[np.ndarray, SolveStats]:
    """Integrate a complex ODE system over ``span`` (either direction).

    ``abs_tol`` may be a scalar or a per-component array.  A step is accepted
    when ``max_i |err_i| / max(|z_i|, |z_new_i|, abs_tol_i/rel_tol) <= rel_tol``
    (the weighting of the solver class the reference mesh counts come from);
    on success the step grows by ``0.8 * (rel_tol/err)**(1/5)`` capped at 5
    and at one tenth of the span, and growth is suppressed entirely after an
    in-step rejection.

    Returns the final state (an array) and step statistics.  Raises
    :class:`StepSizeUnderflowError` on stiffness/blow-up or past ``_MAX_STEPS``
    attempted steps, and :class:`NonFiniteStateError` on a NaN or on a
    modulus beyond double range.
    """
    z, stats, _ = _integrate(field, span, init, rel_tol, abs_tol, False)
    return z, stats


def integrate_adaptive_scaled(
    field: OdeField,
    span: tuple[float, float],
    init: Sequence[complex],
    rel_tol: float = 1e-5,
    abs_tol=1e-5,
) -> tuple[np.ndarray, int, SolveStats]:
    """Like :func:`integrate_adaptive` but for *linear* fields whose solution
    may exceed double range: the state is renormalized by exact powers of two
    on the fly.  Returns ``(mantissa, pow2, stats)`` with the final state equal
    to ``mantissa * 2**pow2``.
    """
    z, stats, pow2 = _integrate(field, span, init, rel_tol, abs_tol, True)
    return z, pow2, stats


# ---------------------------------------------------------------------------
# contours and the argument principle


@dataclass(frozen=True)
class Contour:
    """Closed positively oriented polyline in the complex plane.

    ``nodes[0] == nodes[-1]`` and there are at least 9 nodes, the closing
    one included.  Whether the nodes are distinct is not checked.
    """

    nodes: np.ndarray
    description: str = "polyline"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ValueError("contour needs at least 8 distinct nodes plus closure")
        if nodes[0] != nodes[-1]:
            raise ValueError("contour must be closed (first node == last node)")

    @classmethod
    def circle(cls, center: complex, radius: float, n: int = 32) -> "Contour":
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        theta = np.linspace(0.0, 2.0 * np.pi, n + 1)
        nodes = center + radius * np.exp(1j * theta)
        nodes[-1] = nodes[0]
        return cls(nodes, f"circle(center={center}, radius={radius})")

    @classmethod
    def semicircle(
        cls, radius: float, axis_offset: float, n_arc: int = 32, n_side: int = 16
    ) -> "Contour":
        """Boundary of the right half-disk of given radius, its flat side
        shifted to ``Re = axis_offset`` to stay clear of the imaginary axis.
        Positively oriented: up the arc, down the flat side.  The nodes are
        an exact mirror image about the real axis: with ``n = n_arc +
        n_side`` distinct nodes, ``nodes[(n_arc - j) % n] ==
        nodes[j].conjugate()``, so nodes on the axis are real."""
        if radius <= 0.0 or not 0.0 < axis_offset < radius:
            raise ValueError("need radius > 0 and 0 < axis_offset < radius")
        theta_max = math.acos(axis_offset / radius)
        theta = np.linspace(-theta_max, theta_max, n_arc + 1)
        arc = radius * np.exp(1j * theta)
        side = np.linspace(arc[-1], arc[0], n_side + 1)[1:-1]
        nodes = np.concatenate([arc, side])
        # rounding breaks the mirror symmetry; restore it from the upper half
        mirror = (n_arc - np.arange(nodes.size)) % nodes.size
        lower = nodes.imag < 0.0
        nodes[lower] = nodes[mirror[lower]].conj()
        on_axis = mirror == np.arange(nodes.size)
        nodes[on_axis] = nodes[on_axis].real
        nodes = np.append(nodes, nodes[0])
        return cls(nodes, f"semicircle(radius={radius}, axis_offset={axis_offset})")


def winding_number(samples: Sequence[complex]) -> int:
    """Winding number about the origin of a closed loop of samples.

    The samples are treated cyclically (a duplicated final sample is
    tolerated).  Raises :class:`ContourThroughRootError` on an exactly zero
    sample and :class:`UnderSampledContourError` when any consecutive phase
    difference reaches pi/2, in which case the caller should refine.
    """
    s = np.asarray(samples, dtype=complex)
    if s.size < 3:
        raise ValueError("need at least 3 samples")
    if s[0] == s[-1]:
        s = s[:-1]
    if np.any(s == 0.0) or not np.all(np.isfinite(s)):
        raise ContourThroughRootError("zero or non-finite sample on contour")
    ratio = np.roll(s, -1) / s
    steps = np.angle(ratio)
    worst = float(np.max(np.abs(steps)))
    if worst >= np.pi / 2:
        raise UnderSampledContourError(
            f"phase step {worst:.3f} rad >= pi/2; refine the contour"
        )
    total = float(np.sum(steps)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise UnderSampledContourError(
            f"accumulated argument {total:.3e} turns is not an integer"
        )
    return int(nearest)


def refine_contour(
    evaluator: Evaluator,
    contour: Contour,
    max_phase_step: float = np.pi / 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``evaluator`` on the contour, bisecting edges until every
    consecutive phase difference is below ``max_phase_step``.

    Returns ``(nodes, values)``, both closed (first == last).  ``evaluator``
    is called once per distinct node; the closing value repeats the first.
    Exceeding ``_MAX_DEPTH`` bisections on one original edge means a zero
    sits on or near the contour and raises :class:`ContourRefinementError`.
    """
    if not 0.0 < max_phase_step <= np.pi / 2:
        raise ValueError("max_phase_step must lie in (0, pi/2]")
    nodes = list(contour.nodes)
    values = [evaluator(z) for z in nodes[:-1]]
    values.append(values[0])  # the closing node repeats the first
    depths = [0] * (len(nodes) - 1)

    while True:
        for v in values:
            if v == 0.0 or not np.isfinite(v):
                raise ContourThroughRootError("zero or non-finite value on contour")
        jumps = [
            abs(np.angle(values[i + 1] / values[i])) for i in range(len(nodes) - 1)
        ]
        bad = [i for i, j in enumerate(jumps) if j >= max_phase_step]
        if not bad:
            break
        if any(depths[i] >= _MAX_DEPTH for i in bad):
            raise ContourRefinementError(
                f"refinement depth cap {_MAX_DEPTH} exceeded; "
                "a root lies on or near the contour"
            )
        midpoints = [0.5 * (nodes[i] + nodes[i + 1]) for i in bad]
        midvalues = [evaluator(z) for z in midpoints]
        for i, zm, vm in sorted(zip(bad, midpoints, midvalues), reverse=True):
            nodes.insert(i + 1, zm)
            values.insert(i + 1, vm)
            depths[i : i + 1] = [depths[i] + 1, depths[i] + 1]
    return np.asarray(nodes, dtype=complex), np.asarray(values, dtype=complex)


def newton_root(
    evaluator: Evaluator,
    seed: complex,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> complex:
    """Newton iteration for a zero of an analytic map.

    The derivative is approximated by a centered difference along the real
    direction with step ``1e-6 * max(1, |lambda|)`` (legitimate for analytic
    evaluators).  Convergence means the Newton step dropped below ``tol``.
    """
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lam = complex(seed)
    for _ in range(max_iter):
        f = evaluator(lam)
        if f == 0.0:
            return lam
        h = 1e-6 * max(1.0, abs(lam))
        deriv = (evaluator(lam + h) - evaluator(lam - h)) / (2.0 * h)
        if abs(deriv) < 1e-14:
            raise DegenerateRootError(
                f"|derivative| = {abs(deriv):.3e} at lambda={lam:.6g}; "
                "degenerate or multiple root"
            )
        step = f / deriv
        lam -= step
        if abs(step) < tol:
            return lam
    raise NewtonError(f"no convergence within {max_iter} iterations from seed {seed}")
