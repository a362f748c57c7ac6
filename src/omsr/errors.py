"""Exception hierarchy shared across the package."""


class OmsrError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(OmsrError):
    """The given multiplication table violates a group axiom."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotGenerating(OmsrError):
    """The given elements do not generate the whole group."""


class TooLarge(OmsrError):
    """A closure or search exceeded the configured size cap."""


class UnknownFamily(OmsrError):
    """The requested catalog family name is not recognized."""


class OrderTooSmall(OmsrError):
    """A recipe needs a generator of order at least 3."""


class NotAbelian(OmsrError):
    """The abelian recipe was applied to a non-abelian group."""


class IsAbelian(OmsrError):
    """The non-abelian recipe was applied to an abelian group."""


class InfeasibleSweep(OmsrError):
    """The requested exhaustive sweep exceeds the feasibility guard."""


class ParseError(OmsrError):
    """Input text could not be parsed; carries line and column."""

    def __init__(self, message, line, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
