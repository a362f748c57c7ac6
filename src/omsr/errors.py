"""Exception hierarchy shared across the package, and the one home of the
command line's exit codes: `omsr` ends on an error with its class's
``exit_code``."""


class OmsrError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(OmsrError, ValueError):
    """The caller's input is refused: a bad spec, argument or group."""

    exit_code = 2


class CapExceeded(OmsrError):
    """A size or feasibility cap is exceeded."""

    exit_code = 3


class NotAGroup(InputError):
    """The given multiplication table violates a group axiom."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotGenerating(InputError):
    """The given elements do not generate the whole group."""


class TooLarge(CapExceeded):
    """A closure or search exceeded the configured size cap."""


class UnknownFamily(InputError):
    """The requested catalog family name is not recognized."""


class OrderTooSmall(InputError):
    """A recipe needs a generator of order at least 3."""


class NotAbelian(InputError):
    """The abelian recipe was applied to a non-abelian group."""


class IsAbelian(InputError):
    """The non-abelian recipe was applied to an abelian group."""


class InfeasibleSweep(CapExceeded):
    """The requested exhaustive sweep exceeds the feasibility guard."""


class ParseError(InputError):
    """Input text could not be parsed; carries line and column."""

    def __init__(self, message, line, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
