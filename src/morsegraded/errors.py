"""Exception types shared across the package.

Exit-code mapping for the CLI: ValidationError subclasses exit 1,
InternalInvariantError subclasses exit 2.
"""


class MorsegradedError(Exception):
    pass


class ValidationError(MorsegradedError):
    """Bad user input: files, configs, presentations."""


class ParseError(ValidationError):
    pass


class InvalidBasis(ValidationError):
    """A supplied Groebner basis fails the S-pair criterion."""


class NotComparable(ValidationError):
    """Interval endpoints are not comparable in the semigroup order."""


class InternalInvariantError(MorsegradedError):
    """A construction produced data that violates a proven invariant.

    Reaching one of these means a bug in this package, not bad input.
    """


class CrossingViolation(InternalInvariantError):
    """A maximal overlap face skipped a disconnected rank set."""


class AcyclicityFailure(InternalInvariantError):
    """A face matching produced a directed cycle."""


class UnmatchedUnsaturatedCell(InternalInvariantError):
    """Quadratic cancellation left an unsaturated critical cell unmatched."""


class PathCapExceeded(MorsegradedError):
    """Gradient-path enumeration between one pair exceeded the configured cap."""

    def __init__(self, cap, tau=None, sigma=None):
        super().__init__(f"more than {cap} gradient paths for one pair")
        self.cap = cap
        self.tau = tau
        self.sigma = sigma


class CollectionEnumerationOverflow(MorsegradedError):
    """The automaton cannot be built: it would exceed the state budget, or
    two collection transitions of a basis of degree > 2 start on the same
    letter (ambiguous overlapping collections are not supported)."""
