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

from .errors import ContourThroughRootError, NumericalDomainError
from .evans import METHOD_NEUTRAL, EvansResult, evaluate
from .numerics import Contour, Evaluator, SolveStats, newton_root, refine_contour, winding_number
from .znd import GasWaveConfig, SteadyWave, build_wave

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
) -> WindingReport:
    """Count unstable modes inside the offset semicircle of given radius.

    The contour is fixed: its flat side sits at Re = 1e-4 * radius to avoid
    the neutral point at the origin, and it starts from 32 arc and 16 side
    segments.  Samples are refined until every phase step is below pi/4; a
    sample magnitude under ``_FLOOR_REL`` (1e-10) times max|D| aborts with
    :class:`ContourThroughRootError` (perturb the radius and retry).
    ``Contour.semicircle`` rejects a radius that is not positive (or NaN).

    Each solve picks its truncation depth from ``tol`` (``make_frame``).
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
    contour = Contour.semicircle(radius, 1e-4 * radius)
    solved: dict[complex, EvansResult] = {}  # upper-half lambda -> its solve

    def evaluator(lam: complex) -> complex:
        key = lam if lam.imag >= 0.0 else lam.conjugate()
        r = solved.get(key)
        if r is None:
            r = solved[key] = evaluate(wave, key, method=method, tol=tol)
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
    flags each entry.  A trace that breaks down ends with one unconverged
    entry, and ``stopped_by`` holds the message of the error that ended it
    (None for a complete trace).  ``solve_stats`` holds the step accounting
    of each determinant solve, in the order they were made (filled by
    :func:`sweep_roots`).
    """

    name: str
    values: np.ndarray
    roots: np.ndarray
    converged: np.ndarray
    stopped_by: str | None = None
    solve_stats: tuple[SolveStats, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.name,
            "values": [float(v) for v in self.values],
            "roots": [[z.real, z.imag] for z in self.roots],
            "converged": [bool(c) for c in self.converged],
        }


# the step between two requested values is halved at most this many times
_MAX_HALVINGS = 8


def continue_roots(
    factory: Callable[[float], Evaluator],
    values: Sequence[float],
    seed: complex,
    tol: float = 1e-10,
    name: str = "parameter",
) -> RootTrace:
    """Follow a root of ``factory(value)`` across the given parameter values.

    Newton starts from ``seed`` at the first value and from the last root
    after that.  Whenever it fails between requested values, the parameter
    step is halved, down to the requested step over ``2**_MAX_HALVINGS``;
    inserted midpoints are recorded in the trace.  A failure that halving
    cannot cure (at the first value there is nothing to halve from) ends
    the trace with that value, the last root (the seed at the first value),
    ``converged`` False and the error's message in ``stopped_by``.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need at least one parameter value")
    points: list[tuple[float, complex, bool]] = []
    root, prev_v, stopped_by = complex(seed), values[0], None
    for target in values:
        min_step = abs(target - prev_v) / 2.0**_MAX_HALVINGS
        pending = [target]
        while pending:
            v = pending[-1]
            try:
                root = newton_root(factory(v), root, tol=tol)
            except NumericalDomainError as exc:
                if abs(v - prev_v) > 2.0 * min_step > 0.0:
                    pending.append(0.5 * (prev_v + v))
                    continue
                points.append((v, root, False))
                stopped_by = str(exc)
                break
            points.append((pending.pop(), root, True))
            prev_v = v
        if stopped_by is not None:
            break
    out_v, out_r, out_c = zip(*points)
    return RootTrace(name, np.array(out_v), np.array(out_r), np.array(out_c), stopped_by)


# the scalar fields of a configuration; ``upstream`` is a nested state
_SWEEPABLE = tuple(f.name for f in fields(GasWaveConfig) if f.name != "upstream")


def sweep_roots(
    base: GasWaveConfig,
    name: str,
    values: Sequence[float],
    seed: complex,
    method: str = METHOD_NEUTRAL,
    evans_tol: float = 1e-7,
    tol: float = 1e-8,
) -> RootTrace:
    """Root continuation across a sweep of one scalar field of ``base`` (e.g. 'EA' or 'q').

    ``D`` is solved by ``method`` at integration tolerance ``evans_tol``
    and rescaled by its recorded analytic factor, as in
    :func:`count_unstable`: each solve picks its depth from ``lambda``, so
    Lee-Stewart's raw value is not analytic in ``lambda`` and Newton's
    real-direction difference would not be its derivative.  ``tol`` is the
    Newton tolerance.  The trace's ``solve_stats`` lists every solve made,
    in order.
    """
    if name not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {name!r}; choose from {_SWEEPABLE}")
    stats: list[SolveStats] = []

    def factory(value: float) -> Evaluator:
        wave = build_wave(replace(base, **{name: value}))

        def evaluator(lam: complex) -> complex:
            r = evaluate(wave, lam, method=method, tol=evans_tol)
            stats.append(r.stats)
            return r.D * r.kappa_to_neutral

        return evaluator

    trace = continue_roots(factory, values, seed, tol=tol, name=name)
    return replace(trace, solve_stats=tuple(stats))
