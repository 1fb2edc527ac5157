"""Exception taxonomy shared by all modules."""

__all__ = [
    "OrdlinesError",
    "UsageError",
    "DegenerateInputError",
    "DomainError",
    "GenerationError",
    "InvariantViolationError",
    "ParseError",
]


class OrdlinesError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(OrdlinesError, ValueError):
    """A caller violated an operation's precondition or mixed incompatible inputs."""


class DegenerateInputError(OrdlinesError, ValueError):
    """Geometrically degenerate input: coincident points, collinear spanning triple, etc."""


class DomainError(OrdlinesError, ValueError):
    """A formula was evaluated outside the regime where it is defined."""


class GenerationError(OrdlinesError, RuntimeError):
    """A seeded generator could not satisfy its constraints within its retry budget."""


class InvariantViolationError(OrdlinesError, RuntimeError):
    """An internal guarantee failed; indicates a bug in this package, not bad input."""


class ParseError(OrdlinesError, ValueError):
    """Malformed point-set file. Carries the 1-based line number of the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
