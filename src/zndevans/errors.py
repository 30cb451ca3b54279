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
    """A computation left its domain of validity; ``lam`` is the frequency
    of the determinant evaluation it happened in (named in the message), or None."""

    def __init__(self, message: str = "", lam: complex | None = None):
        self.lam = lam
        super().__init__(message if lam is None else f"{message} at lambda={lam!r}")


class StepSizeUnderflowError(NumericalDomainError):
    """Adaptive step fell below the underflow floor (stiffness or blow-up).

    ``x`` is the integration variable where it happened; ``lam`` is the
    frequency of the determinant evaluation, or None outside one.
    """

    def __init__(self, x: float, h: float, lam: complex | None = None):
        self.x = x
        self.h = h
        super().__init__(f"step size underflow at x={x:.6g} (|h|={abs(h):.3e})", lam)


class NonFiniteStateError(NumericalDomainError):
    """Integration state stopped being finite (overflow).

    ``x`` and ``lam`` as for :class:`StepSizeUnderflowError`.
    """

    def __init__(self, x: float, lam: complex | None = None):
        self.x = x
        super().__init__(f"non-finite state encountered at x={x:.6g}", lam)


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


class InvalidWaveError(NumericalDomainError):
    """Wave or state breaks a structural check (rho, e > 0, supersonic upstream);
    the subsonic profile is :class:`zndevans.znd.SteadyWave`'s invariant."""


class EvansOverflowError(NumericalDomainError):
    """Dynamic range of an unfactored run exceeds double precision.

    The decay-factored forward method does not suffer from this; use it
    instead.  ``lam`` is the frequency of the run, or None if not given.
    """


class MisselectedModeError(NumericalDomainError):
    """Integrated adjoint magnitude wildly off O(1); decay rate likely wrong.

    ``lam`` is the frequency of the determinant evaluation, or None if not given.
    """
