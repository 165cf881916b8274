"""Exception types shared across the library."""


class StructuralError(ValueError):
    """Malformed input: shape mismatches, missing table entries, bad group tables."""


class RepresentationError(ValueError):
    """A supplied representation is not a homomorphism or not irreducible."""


class CocycleError(ValueError):
    """A cocycle failed pentagon/hexagon/normalization validation.

    Raised by ``AbelianCocycle.require_valid`` alone, with the full per-axiom
    report on ``self.report``.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class GradingError(ValueError):
    """No grade acts by the required central character scalars on a representation."""


class DomainError(ValueError):
    """Arguments outside the analytic region required by a branch-cut formula."""


class ConsistencyError(ArithmeticError):
    """A quantity that must be an exact integer, or must match an independent
    cross-check, failed to do so beyond tolerance.  Signals an internal
    inconsistency rather than bad user input."""
