"""Exception classes shared by all steinerkit modules.

Every message names the condition that failed, so the class only says what
kind of outcome it is.  A new class is allowed for one of three reasons:
code in the package catches it by type, it carries data a caller reads, or
it names an outcome a CLI user must tell apart from the others.  Otherwise
raise one of the classes below with a message that names the condition.
"""


class SteinerError(Exception):
    """Base class for every error raised by this package; a failed ``require``."""


def require(ok: bool, condition: str) -> None:
    """Raise SteinerError naming ``condition`` unless it holds; a result check
    written this way survives ``python -O``, unlike an assert."""
    if not ok:
        raise SteinerError(f"check failed: {condition}")


class BadParams(SteinerError, ValueError):
    """Arguments or inputs outside a function's preconditions."""


class ParseError(SteinerError):
    """A malformed line of a design, group, TD or net file."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class AxiomViolation(SteinerError):
    """A structure fails an axiom it claims; a failed certificate entry."""


class ActionEscape(SteinerError):
    """A group action mapped a family member outside the family."""


class Unavailable(SteinerError):
    """No construction in the library covers the requested parameters."""


class Budget(SteinerError):
    """A bound (cap, node budget, scan limit, size) stopped the work before an answer."""


class Unsat(SteinerError):
    """An exhaustive search settled that no object with the asked properties exists."""
