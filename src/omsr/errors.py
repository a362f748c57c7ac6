"""Exception hierarchy shared across the package, and the one home of the
command line's exit codes: `omsr` ends on an error with its class's
``exit_code``; and the reading shared by every text format (README, "Group specs")."""

import re


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


def content_lines(text: str) -> list:
    """(number, line) for each line that is neither blank nor a ``#``
    comment, numbered from 1 and kept whole, so columns count from its start."""
    return [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.lstrip().startswith("#")]


def tokens(text: str, start: int = 0) -> list:
    """(column, token) for each word of a text found at offset ``start`` of its line."""
    return [(start + match.start() + 1, match.group()) for match in re.finditer(r"\S+", text)]


def read_int(token: str, line: int, col: int, what: str, bound: int | None = None) -> int:
    """The token, an optional ``-`` and ASCII digits, as an int, in
    [0, bound) when a bound is given, or a ParseError at its own position."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ParseError(f"bad {what} {token!r}", line, col)
    value = int(token)
    if bound is not None and not 0 <= value < bound:
        raise ParseError(f"{what} {value} out of range [0,{bound})", line, col)
    return value


def header_int(lines: list, key: str, line: int) -> int:
    """The positive integer of the first (number, line) pair, which must
    read ``<key>: <int>``; ``line`` is reported when there is none."""
    no, text = lines[0] if lines else (line, "")
    name, sep, value = text.partition(":")
    if name.strip() != key or not sep:
        raise ParseError(f"expected '{key}: <int>'", no)
    col = len(name) + 2 + len(value) - len(value.lstrip())
    number = read_int(value.strip(), no, col, f"{key} value")
    if number < 1:
        raise ParseError(f"{key} value {number} is not positive", no, col)
    return number
