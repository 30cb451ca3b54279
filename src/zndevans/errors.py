"""Exception hierarchy.

Everything numerical derives from :class:`NumericalDomainError` so the CLI can
map the whole family to one exit code; configuration problems are kept
separate because they are user errors, not math.
"""

from __future__ import annotations


class ZndEvansError(Exception):
    """Base class for all package errors."""


class ConfigError(ZndEvansError):
    """Invalid configuration input (bad field value, malformed JSON)."""


class NumericalDomainError(ZndEvansError):
    """A computation left its domain of validity."""


class StepSizeUnderflowError(NumericalDomainError):
    """Adaptive step fell below the underflow floor (stiffness or blow-up)."""

    def __init__(self, x: float, h: float):
        self.x = x
        self.h = h
        super().__init__(f"step size underflow at x={x:.6g} (|h|={abs(h):.3e})")


class NonFiniteStateError(NumericalDomainError):
    """Integration state stopped being finite (overflow)."""

    def __init__(self, x: float):
        self.x = x
        super().__init__(f"non-finite state encountered at x={x:.6g}")


class UnderSampledContourError(NumericalDomainError):
    """Phase step between consecutive contour samples too large to trust."""


class ContourThroughRootError(NumericalDomainError):
    """|D| dropped below the floor on the contour; a zero sits on or near it."""


class ContourRefinementError(NumericalDomainError):
    """Bisection depth cap exceeded while refining a contour arc."""


class NewtonError(NumericalDomainError):
    """Newton iteration did not converge from the given seed."""


class DegenerateRootError(NumericalDomainError):
    """Derivative vanished during Newton iteration (multiple/degenerate root)."""


class QuadratureError(NumericalDomainError):
    """Composite quadrature did not converge within its panel cap."""


class ChapmanJouguetError(NumericalDomainError):
    """Wave is sonic (Chapman-Jouguet) or beyond; only overdriven waves are handled."""


class InvalidIgnitionWindowError(NumericalDomainError):
    """Profile temperatures violate the ignition cutoff window."""


class InvalidWaveError(NumericalDomainError):
    """Constructed wave violates a structural invariant (frame, sonic checks)."""


class NearCharacteristicError(NumericalDomainError):
    """Flux Jacobian too ill-conditioned to invert (near-sonic or stagnation state)."""


class BranchAmbiguityError(NumericalDomainError):
    """Eigenvalue branches of the limit matrix collide along a continuation path."""

    def __init__(self, lam: complex, message: str = ""):
        self.lam = lam
        msg = message or f"eigenvalue branch ambiguity at lambda={lam:.6g}"
        super().__init__(msg)


class EvansOverflowError(NumericalDomainError):
    """Dynamic range of an unfactored run exceeds double precision.

    The decay-factored forward method does not suffer from this; use it instead.
    """


class MisselectedModeError(NumericalDomainError):
    """Integrated adjoint magnitude wildly off O(1); decay rate likely wrong."""
