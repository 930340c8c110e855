"""Typed failure taxonomy.

Usage errors raise GermSyntaxError (bad grammar) or UsageError (a bad
argument), and a UsageError names the field it rejects. Every other
PencilLabError marks a numerical condition met at runtime, and the command
line maps each of them to exit code 3.
"""

from __future__ import annotations


class UsageError(ValueError):
    """An argument the library rejects; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class PencilLabError(Exception):
    """Base class for all library-specific failures."""


class GermSyntaxError(PencilLabError):
    """Expression rejected by the germ grammar; carries the char position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AxisProximity(PencilLabError):
    """|f(x)| at or below the axis floor; phase quantities undefined."""


class DegenerateGradient(PencilLabError):
    """The phase gradient vanished; the point is near-critical, not tangent."""


class GramSingular(PencilLabError):
    """Constraint Gram matrix unusable and no fallback applies."""


class CompletenessViolation(PencilLabError):
    """Fallback drift bound |<w, grad log|f|>| >= 1 violated."""


class PositivityViolation(PencilLabError):
    """Tube-equivalence field lost its outward radial component."""


class AxisApproach(PencilLabError):
    """Trajectory drove |f| below the axis floor mid-integration."""


class BallExit(PencilLabError):
    """Trajectory left the working ball."""


class KernelOverflow(PencilLabError):
    """A power in the germ kernel overflowed at a lone point."""


class StepCollapse(PencilLabError):
    """Adaptive step fell below the representable floor for the tolerance."""


class ProjectionFailure(PencilLabError):
    """Too many Newton projections failed to converge."""


class DegenerateAfterRetries(PencilLabError):
    """Every retry functional produced a degenerate critical point."""


class Unstable(PencilLabError):
    """Critical-point inventory did not stabilize within budget."""

    def __init__(self, message: str, inventory=None):
        super().__init__(message)
        self.inventory = inventory

