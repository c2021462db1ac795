"""Exception types shared across the package."""


class ConstelError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ConstelError, ValueError):
    """Malformed textual input: profiles, firmament files, rays, config."""

    exit_code = 2


class MathDomainError(ConstelError, ValueError):
    """A mathematical precondition was violated by otherwise well-formed input."""

    exit_code = 3


class RayUnsupportedError(MathDomainError):
    """The queried ray lies outside every rational cone of the structure."""


class PointOnBoundaryError(MathDomainError):
    """The point lies on the boundary divisor, where the test is undefined."""


class InfiniteGapsError(MathDomainError):
    """Gap set requested for a rank-one monoid whose complement is infinite."""


class UnsupportedFieldError(MathDomainError):
    """Only the rational field is supported."""


class BoundExceededError(ConstelError, RuntimeError):
    """A search passed the bound its exact pre-check proved.  This signals a
    bug, not a math condition: no valid input can get there."""


class ResourceLimitError(ConstelError):
    """The run would pass a documented cap -- on memory, on the size of an
    exact test, or on the range where a primality test is proven -- and is
    refused instead of run."""

    exit_code = 4
