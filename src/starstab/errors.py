"""Exception types shared across the package."""


class StarstabError(ValueError):
    """Base class for all library errors."""


class InvalidParameterError(StarstabError):
    """An argument violates an operation's precondition."""


class CapacityExceededError(StarstabError):
    """The request is valid but outside the supported desk-scale envelope."""


class Graph6ParseError(StarstabError):
    """Malformed graph6 input."""


class SchemaMismatchError(StarstabError):
    """Any certificate file the reader refuses: too long, not JSON text, or not the schema."""
