"""Exception taxonomy shared by every module."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed, inconsistent, or non-finite input data."""


class NotInSpanError(InputError):
    """Matrix lies outside the span of the requested basis pair."""

    def __init__(self, residual: float) -> None:
        super().__init__(f"matrix not in basis span (residual {residual:.3e})")
        self.residual = residual


class DegenerateBasisError(InputError):
    """Requested basis pair is linearly dependent."""


class NumericalFailureError(RuntimeError):
    """No certificate or verified witness found within the search budget."""


class MfcqFailedError(RuntimeError):
    """Mangasarian-Fromovitz constraint qualification does not hold."""


class ConeNotCriticalError(InputError):
    """Supplied cone is not contained in the critical cone."""


class EmptyMultiplierSetError(RuntimeError):
    """Multiplier polytope is empty; the candidate point is not KKT."""


class InfeasibleError(RuntimeError):
    """Linear program has no feasible point."""


class UnboundedError(RuntimeError):
    """Linear program is unbounded."""
