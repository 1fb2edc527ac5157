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


def _digit_limited(cls):
    """Make ``repr`` of cls, and its own ``str`` where it defines one, refuse an
    integer past the interpreter's digit limit (``sys.get_int_max_str_digits``)
    with a UsageError that names cls, not a bare ValueError."""

    def limited(method):
        def text(self):
            try:
                return method(self)
            except ValueError as exc:
                raise UsageError(f"cannot write {cls.__name__}: {exc}") from exc

        return text

    cls.__repr__ = limited(cls.__repr__)
    if "__str__" in cls.__dict__:
        cls.__str__ = limited(cls.__str__)
    return cls


def _require_count(n, what: str = "a number of points") -> None:
    """Refuse a count that is not an int; a bool is not one."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"cannot interpret {n!r} as {what}")
