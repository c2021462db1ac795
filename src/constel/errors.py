"""Exception types shared across the package."""


class ConstelError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ConstelError, ValueError):
    """Malformed textual input: profiles, firmament files, rays, config."""


class MathDomainError(ConstelError, ValueError):
    """A mathematical precondition was violated by otherwise well-formed input."""


class RayUnsupportedError(MathDomainError):
    """The queried ray lies outside every rational cone of the structure."""


class PointOnBoundaryError(MathDomainError):
    """The point lies on the boundary divisor, where the test is undefined."""


class InfiniteGapsError(MathDomainError):
    """Gap set requested for a rank-one monoid whose complement is infinite."""


class UnsupportedFieldError(MathDomainError):
    """Only the rational field is supported."""


class BoundExceededError(ConstelError, RuntimeError):
    """A search hit its safety cap.  This signals a bug, not a math condition:
    the exact cone pre-checks are supposed to make the cap unreachable."""


class ResourceLimitError(ConstelError):
    """The run would need more memory than a documented cap allows, and is
    refused before it starts."""
