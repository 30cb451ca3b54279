"""Stability determination: winding-number mode counts and root continuation.

Unstable normal modes are zeros of the determinant in the closed right half
plane; their number inside a semicircular contour equals the winding number
of the determinant around it (argument principle), computed here on
adaptively refined samples.  Individual roots are followed through parameter
sweeps by Newton continuation with step halving on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ContourThroughRootError, NewtonError, NumericalDomainError
from .evans import METHOD_NEUTRAL, METHODS, EvansResult, evaluate
from .numerics import Contour, SolveStats, newton_root, refine_contour, winding_number
from .znd import GasWaveConfig, SteadyWave, build_wave

Evaluator = Callable[[complex], complex]

# a contour sample under this fraction of max|D| counts as a root on the contour
_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class WindingReport:
    """Mode count over one contour plus the diagnostics that justify it.

    ``samples`` holds the determinant values at the refined contour nodes
    (plot-ready together with ``contour.nodes``).  ``solve_stats`` holds the
    step accounting of each determinant solve actually made, in the order
    they were made; there are fewer solves than samples when samples share
    one (see :func:`count_unstable`).
    """

    contour: Contour
    n_samples: int
    winding: int
    min_abs_D: float
    method: str
    samples: np.ndarray | None = None
    solve_stats: tuple[SolveStats, ...] = ()

    @property
    def n_evaluations(self) -> int:
        """Number of determinant solves the count made."""
        return len(self.solve_stats)

    def to_json_dict(self) -> dict:
        return {
            "description": self.contour.description,
            "n_samples": self.n_samples,
            "n_evaluations": self.n_evaluations,
            "winding": self.winding,
            "min_abs_D": self.min_abs_D,
            "method": self.method,
        }


def count_unstable(
    wave: SteadyWave,
    radius: float,
    method: str = METHOD_NEUTRAL,
    tol: float = 1e-5,
    M: float | None = None,
) -> WindingReport:
    """Count unstable modes inside the offset semicircle of given radius.

    The contour is fixed: its flat side sits at Re = 1e-4 * radius to avoid
    the neutral point at the origin, and it starts from 32 arc and 16 side
    segments.  Samples are refined until every phase step is below pi/4; a
    sample magnitude under ``_FLOOR_REL`` (1e-10) times max|D| aborts with
    :class:`ContourThroughRootError` (perturb the radius and retry).

    Unnormalized methods are rescaled by their recorded analytic factor, so
    every method winds the same function; the factor is entire and
    nonvanishing, hence contributes no winding of its own.

    ``D`` is solved on the closed upper half of the contour only; a node
    below the real axis takes the conjugate of its mirror's value.  That is
    exact, not an approximation: every method integrates a system with real
    coefficients from real-symmetric boundary data, so ``D(conj lambda) =
    conj D(lambda)``; in floating point the two solves take the same steps
    and agree to rounding, bit for bit where tested.  The contour and
    its bisection midpoints are exact mirror images, so each conjugate pair
    costs one solve and ``n_evaluations`` is about half of ``n_samples``.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    contour = Contour.semicircle(radius, 1e-4 * radius)
    solved: dict[complex, EvansResult] = {}  # upper-half lambda -> its solve

    def evaluator(lam: complex) -> complex:
        key = lam if lam.imag >= 0.0 else lam.conjugate()
        r = solved.get(key)
        if r is None:
            r = solved[key] = evaluate(wave, key, method=method, M=M, tol=tol)
        value = r.D * r.kappa_to_neutral
        return value if key == lam else value.conjugate()

    nodes, values = refine_contour(evaluator, contour)
    min_abs = float(np.min(np.abs(values)))
    if min_abs < _FLOOR_REL * float(np.max(np.abs(values))):
        raise ContourThroughRootError(
            f"|D| falls to {min_abs:.3e} on the contour; a root sits on or near "
            "it -- perturb the radius"
        )
    w = winding_number(values)
    refined = Contour(nodes, contour.description)
    return WindingReport(
        contour=refined,
        n_samples=len(nodes) - 1,
        winding=w,
        min_abs_D=min_abs,
        method=method,
        samples=values,
        solve_stats=tuple(r.stats for r in solved.values()),
    )


@dataclass(frozen=True)
class RootTrace:
    """Continuation curve of one root through a parameter sweep.

    ``values`` includes any midpoints inserted by step halving; ``converged``
    flags each entry (a trailing False marks continuation breakdown).
    """

    name: str
    values: np.ndarray
    roots: np.ndarray
    converged: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.name,
            "values": [float(v) for v in self.values],
            "roots": [[z.real, z.imag] for z in self.roots],
            "converged": [bool(c) for c in self.converged],
        }


def continue_roots(
    factory: Callable[[float], Evaluator],
    values: Sequence[float],
    seed: complex,
    tol: float = 1e-10,
    name: str = "parameter",
    max_halvings: int = 8,
    max_root_jump: float | None = None,
) -> RootTrace:
    """Follow a root of ``factory(value)`` across the given parameter values.

    The seed must converge at the first value.  Between requested values the
    parameter step is halved whenever Newton fails or the root moves farther
    than ``max_root_jump``, down to a minimum step of the requested segment
    over ``2**max_halvings``; inserted midpoints are recorded in the trace.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need at least one parameter value")
    root = newton_root(factory(values[0]), seed, tol=tol)
    out_v, out_r, out_c = [values[0]], [root], [True]

    for target in values[1:]:
        prev_v = out_v[-1]
        min_step = abs(target - prev_v) / 2.0**max_halvings
        pending = [target]
        while pending:
            v = pending[-1]
            try:
                candidate = newton_root(factory(v), out_r[-1], tol=tol)
                jump = abs(candidate - out_r[-1])
                limit = max_root_jump if max_root_jump is not None else np.inf
                if jump > limit:
                    raise NewtonError(f"root jumped by {jump:.3g} > {limit:.3g}")
            except (NewtonError, NumericalDomainError):
                if abs(v - prev_v) <= 2.0 * min_step or min_step == 0.0:
                    out_v.append(v)
                    out_r.append(out_r[-1])
                    out_c.append(False)
                    return RootTrace(
                        name=name,
                        values=np.array(out_v),
                        roots=np.array(out_r),
                        converged=np.array(out_c),
                    )
                pending.append(0.5 * (prev_v + v))
                continue
            pending.pop()
            out_v.append(v)
            out_r.append(candidate)
            out_c.append(True)
            prev_v = v
    return RootTrace(
        name=name,
        values=np.array(out_v),
        roots=np.array(out_r),
        converged=np.array(out_c),
    )


# the scalar fields of a configuration; ``upstream`` is a nested state
_SWEEPABLE = tuple(f.name for f in fields(GasWaveConfig) if f.name != "upstream")


@dataclass(frozen=True)
class ParameterSweep:
    """Sweep one scalar field of a configuration (e.g. 'EA' or 'q')."""

    base: GasWaveConfig
    name: str
    values: tuple[float, ...]
    method: str = METHOD_NEUTRAL
    M: float | None = None
    evans_tol: float = 1e-7

    def config_at(self, value: float) -> GasWaveConfig:
        if self.name not in _SWEEPABLE:
            raise ValueError(f"cannot sweep {self.name!r}; choose from {_SWEEPABLE}")
        return replace(self.base, **{self.name: value})


def sweep_roots(sweep: ParameterSweep, seed: complex, tol: float = 1e-8) -> RootTrace:
    """Root continuation across a configuration-parameter sweep."""

    def factory(value: float) -> Evaluator:
        wave = build_wave(sweep.config_at(value))

        def evaluator(lam: complex) -> complex:
            return evaluate(wave, lam, method=sweep.method, M=sweep.M, tol=sweep.evans_tol).D

        return evaluator

    return continue_roots(factory, sweep.values, seed, tol=tol, name=sweep.name)
