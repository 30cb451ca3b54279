"""Two-by-two model eigenvalue problem used to benchmark integration strategies.

The test system on ``-M <= x <= 0``, ``M = DOMAIN_LENGTH``, is

    y' = lam * [[1/2, 0], [exp(2x)/c, -1/2]] y          (unfactored)

whose bounded-at-minus-infinity solution behaves like ``exp(lam*x/2) (1,0)``.
Dividing out that growth gives the "neutral" companion system

    yhat' = lam * [[0, 0], [exp(2x)/c, -1]] yhat        (factored)

with ``y = exp(lam*x/2) * yhat``.  The bounded solution of the factored
system has the closed form ``yhat1 == 1`` and ``yhat2(0) = lam/(c*(lam+2))``,
which serves as the oracle for every run.

Four strategies are benchmarked: factored/unfactored x forward/backward.
Forward-factored is the well-conditioned one (tracked mode neutral, error
modes damped); backward runs amplify error modes and must take many more
steps at the same tolerance.  Efficiency is measured in accepted mesh
points against the published reference counts tabulated below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvansOverflowError
from .numerics import OdeField, SolveStats, integrate_adaptive_scaled

LAMBDA_ROWS: tuple[complex, ...] = (
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    0.4,
    0.4 + 1j,
    0.4 + 4j,
    0.4 + 16j,
    0.4 + 64j,
    0.4 + 256j,
)
C_COLUMNS: tuple[float, ...] = (10.0, 100.0, 1000.0)

# Reference mesh-point counts (rows follow LAMBDA_ROWS, columns C_COLUMNS).
_REF_FACTORED_FORWARD = np.array([
    [19, 14, 12],
    [43, 29, 19],
    [107, 76, 51],
    [261, 191, 138],
    [657, 519, 427],
    [14, 12, 11],
    [17, 13, 12],
    [43, 29, 19],
    [111, 77, 51],
    [317, 224, 177],
    [1088, 870, 827],
])
_REF_FACTORED_BACKWARD = np.array([
    [26, 24, 19],
    [94, 92, 88],
    [363, 361, 357],
    [1438, 1436, 1432],
    [3177, 3186, 3192],
    [17, 14, 11],
    [30, 27, 18],
    [100, 97, 73],
    [385, 382, 296],
    [1528, 1523, 1185],
    [6104, 6086, 4738],
])
_REF_UNFACTORED_FORWARD = np.array([
    [23, 19, 15],
    [61, 58, 56],
    [181, 181, 181],
    [719, 719, 719],
    [2868, 2868, 2868],
    [16, 13, 12],
    [20, 17, 15],
    [55, 52, 50],
    [196, 194, 193],
    [765, 765, 765],
    [3055, 3055, 3055],
])
_REF_UNFACTORED_BACKWARD = np.array([
    [19, 17, 15],
    [52, 50, 49],
    [186, 184, 183],
    [723, 721, 721],
    [2873, 2871, 2870],
    [17, 13, 12],
    [20, 17, 15],
    [54, 52, 50],
    [197, 195, 193],
    [775, 771, 765],
    [3084, 3074, 3055],
])

REFERENCE_COUNTS = {
    ("factored", "forward"): _REF_FACTORED_FORWARD,
    ("factored", "backward"): _REF_FACTORED_BACKWARD,
    ("unfactored", "forward"): _REF_UNFACTORED_FORWARD,
    ("unfactored", "backward"): _REF_UNFACTORED_BACKWARD,
}

VARIANTS = ("factored", "unfactored")
DIRECTIONS = ("forward", "backward")
DOMAIN_LENGTH = 5.0  # M: every run integrates over [-M, 0], as the reference counts do

# Absolute tolerance as a fraction of the relative one.  Calibrated once,
# globally, against the reference mesh counts: the reference solver's error
# weighting keeps the small second component under near-relative control,
# which corresponds to an absolute floor about two decades below rel_tol.
_ABS_TOL_FRACTION = 1e-2


@dataclass(frozen=True)
class ModelParams:
    """One benchmark configuration: decay coefficient, frequency, tolerance."""

    c_decay: float
    lam: complex
    tol: float = 1e-5

    def __post_init__(self):
        if self.c_decay == 0.0:
            raise ValueError("c_decay must be nonzero")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class BenchCell:
    """Result of one integration run.

    ``endpoint * 2**scale_pow2 * init_scale`` is the physical final state;
    the factors are kept separate because worst-case backward runs overflow
    double range (``scale_pow2 != 0`` reports that this happened).
    """

    params: ModelParams
    variant: str
    direction: str
    mesh_points: int
    endpoint: np.ndarray
    scale_pow2: int
    init_scale: complex
    stats: SolveStats

    @property
    def overflowed(self) -> bool:
        return self.scale_pow2 != 0

    def endpoint_value(self) -> np.ndarray:
        """Physical final state; may overflow to inf for worst-case runs."""
        with np.errstate(over="ignore"):
            return self.endpoint * (2.0 ** self.scale_pow2) * self.init_scale


def model_field(params: ModelParams, variant: str) -> OdeField:
    """Right-hand side of the chosen variant.

    Solutions are related by ``yhat = y * exp(-lam*x/2)``.
    """
    lam = complex(params.lam)
    c = params.c_decay
    if variant == "factored":
        def rhs(x: float, z: list) -> list:
            return [0j, lam * (math.exp(2.0 * x) / c * z[0] - z[1])]
    elif variant == "unfactored":
        half = 0.5 * lam
        def rhs(x: float, z: list) -> list:
            return [half * z[0], lam * (math.exp(2.0 * x) / c * z[0]) - half * z[1]]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return OdeField(dimension=2, eval=rhs)


def model_oracle(params: ModelParams) -> complex:
    """Closed-form bounded solution value yhat2(0) = lam / (c*(lam+2)).

    The first factored component is identically 1; the second solves
    ``yhat2' + lam*yhat2 = (lam/c) exp(2x)`` and boundedness at minus
    infinity kills the homogeneous mode, leaving ``(lam/c) exp(2x)/(lam+2)``.
    """
    lam = complex(params.lam)
    if lam.real < 0.0:
        raise ValueError("oracle defined for Re(lam) >= 0")
    if lam == -2.0:
        raise ValueError("lam = -2 is a pole of the model solution")
    return lam / (params.c_decay * (lam + 2.0))


def run_cell(params: ModelParams, variant: str, direction: str) -> BenchCell:
    """Integrate one (variant, direction) strategy and count mesh points.

    Forward runs go from ``-M`` to ``0`` starting on the asymptotic mode:
    ``(1, 0)`` for the factored system, ``exp(-lam*M/2) (1, 0)`` for the
    unfactored one.  The unfactored start is integrated at unit scale with
    the tiny prefactor carried analytically in ``init_scale`` so that the
    error control sees the same relative problem the counts are meant to
    measure.  Backward runs start from ``(1, 0)`` at ``x = 0``.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    field = model_field(params, variant)
    lam = complex(params.lam)
    init = np.array([1.0 + 0j, 0.0 + 0j])
    init_scale = 1.0 + 0j
    if direction == "forward":
        span = (-DOMAIN_LENGTH, 0.0)
        if variant == "unfactored":
            exponent = -0.5 * lam * DOMAIN_LENGTH
            if exponent.real < -700.0:
                raise EvansOverflowError(
                    "unfactored forward initial data underflows double range; "
                    "use the factored variant",
                    lam,
                )
            init_scale = cmath.exp(exponent)
    else:
        span = (0.0, -DOMAIN_LENGTH)
    mantissa, pow2, stats = integrate_adaptive_scaled(
        field, span, init,
        rel_tol=params.tol, abs_tol=_ABS_TOL_FRACTION * params.tol,
    )
    return BenchCell(
        params=params,
        variant=variant,
        direction=direction,
        mesh_points=stats.mesh_points,
        endpoint=mantissa,
        scale_pow2=pow2,
        init_scale=init_scale,
        stats=stats,
    )


@dataclass(frozen=True)
class BenchTable:
    """All cells of one benchmark table plus reference counts."""

    which: int
    variant: str
    cells: tuple[BenchCell, ...]  # ordered (lambda row) x (c) x (direction)

    def counts(self, direction: str) -> np.ndarray:
        """Mesh points of one direction's cells, rows LAMBDA_ROWS, columns C_COLUMNS."""
        points = [c.mesh_points for c in self.cells if c.direction == direction]
        return np.array(points).reshape(len(LAMBDA_ROWS), len(C_COLUMNS))

    def reference(self, direction: str) -> np.ndarray:
        return REFERENCE_COUNTS[(self.variant, direction)]

    def trend_failures(self) -> list[str]:
        """Check the acceptance trends for this table; empty list == all good."""
        failures: list[str] = []
        for direction in DIRECTIONS:
            counts = self.counts(direction)
            ref = self.reference(direction)
            ratio = counts / ref
            bad = np.argwhere((ratio < 0.5) | (ratio > 2.0))
            for i, j in bad:
                failures.append(
                    f"table {self.which} {direction} cell lam={LAMBDA_ROWS[i]}, "
                    f"c={C_COLUMNS[j]:g}: {counts[i, j]} vs reference {ref[i, j]} "
                    f"(ratio {ratio[i, j]:.2f} outside [0.5, 2])"
                )
            # counts must not decrease as |lambda| grows, per row block
            for block in (slice(0, 5), slice(5, 11)):
                col = counts[block]
                if np.any(np.diff(col, axis=0) < 0):
                    failures.append(
                        f"table {self.which} {direction}: mesh counts not "
                        f"monotone in |lambda| within rows {block}"
                    )
        counts_f = self.counts("forward")
        counts_b = self.counts("backward")
        if self.which == 1:
            for i in (3, 4):  # lambda = 64, 256 at c = 10
                r = counts_b[i, 0] / counts_f[i, 0]
                if r < 3.0:
                    failures.append(
                        f"table 1 backward/forward ratio at lam={LAMBDA_ROWS[i]} "
                        f"is {r:.2f} < 3"
                    )
        else:
            r = counts_f / counts_b
            bad = np.argwhere((r > 1.5) | (r < 1 / 1.5))
            for i, j in bad:
                failures.append(
                    f"table 2 forward/backward counts differ by more than x1.5 "
                    f"at lam={LAMBDA_ROWS[i]}, c={C_COLUMNS[j]:g}"
                )
        return failures


def reproduce_table(which: int, tol: float = 1e-5) -> BenchTable:
    """Run the full grid for table 1 (factored) or table 2 (unfactored)."""
    if which not in (1, 2):
        raise ValueError("table must be 1 or 2")
    variant = VARIANTS[which - 1]
    cells = []
    for lam in LAMBDA_ROWS:
        for c in C_COLUMNS:
            params = ModelParams(c_decay=c, lam=lam, tol=tol)
            for direction in DIRECTIONS:
                cells.append(run_cell(params, variant, direction))
    return BenchTable(which=which, variant=variant, cells=tuple(cells))
