"""Shared exception types."""


class VktError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidCartanData(VktError):
    pass


class NotTorsionFreePi1(VktError):
    pass


class GroupTooLarge(VktError):
    pass


class Degenerate(VktError):
    pass


class NotEquivariant(VktError):
    pass


class NotPrimitive(VktError):
    pass


class NotATorus(VktError):
    pass


class InvariantError(VktError):
    """A mathematical invariant of the computation failed.  It signals a
    defect in vkt, not bad input; raised in place of `assert`, which
    `python -O` strips."""


class SpecParseError(VktError):
    """Raised on malformed spec text; carries line/column context."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
