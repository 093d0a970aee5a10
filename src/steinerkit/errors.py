"""Exception hierarchy shared by all steinerkit modules."""


class SteinerError(Exception):
    """Base class for every error raised by this package."""


def require(ok: bool, condition: str) -> None:
    """Raise SteinerError naming ``condition`` unless it holds; a result check
    written this way survives ``python -O``, unlike an assert."""
    if not ok:
        raise SteinerError(f"check failed: {condition}")


# -- group machinery ---------------------------------------------------------

class CapExceeded(SteinerError):
    """Group enumeration passed the element cap."""


class ActionEscape(SteinerError):
    """A group action mapped a family member outside the family."""


class NotStabilizing(SteinerError):
    """An element was expected to stabilize a set but moves it."""


class NotSemiregular(SteinerError):
    """A permutation expected to be semiregular has a bad cycle structure."""


class OrderMismatch(SteinerError):
    """Two permutations that should share a cycle structure do not."""


# -- field arithmetic --------------------------------------------------------

class NotDivisor(SteinerError):
    pass


class BadPower(SteinerError):
    pass


class BadDecomposition(SteinerError):
    pass


class TraceZero(SteinerError):
    """The chosen constant lies in the kernel of the trace map."""


class BadParams(SteinerError):
    pass


# -- parameter searches ------------------------------------------------------

class SearchExhausted(SteinerError):
    """A bounded scan ran out without finding a qualifying value."""


class GcdViolation(SteinerError):
    pass


class WindowBelowBound(SteinerError):
    """Requested planning window lies below the guaranteed-coverage bound."""

    def __init__(self, bound: int, message: str = ""):
        self.bound = bound
        super().__init__(message or f"window starts below coverage bound {bound}")


# -- designs -----------------------------------------------------------------

class MalformedBlock(SteinerError):
    pass


class DegreeMismatch(SteinerError):
    pass


class NotAutomorphismGroup(SteinerError):
    pass


class TooLarge(SteinerError):
    pass


class ParseError(SteinerError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# -- base design searches ----------------------------------------------------

class CriterionFailed(SteinerError):
    pass


class Unsat(SteinerError):
    """Exact-cover search exhausted: no design with the prescribed group."""


class Infeasible(SteinerError):
    """Search instance too large; message carries the size report."""


class VariantsExhausted(SteinerError):
    """No cycle support produced pairwise inequivalent relabelings."""


# -- lifting -----------------------------------------------------------------

class ParityViolation(SteinerError):
    pass


class DivisibilityViolation(SteinerError):
    pass


class Budget(SteinerError):
    pass


class AlignmentImpossible(SteinerError):
    pass


class PlantRejected(SteinerError):
    """A planted ingredient design lacks the symmetry a stabilized line needs."""


# -- nets and transversal designs --------------------------------------------

class BadOrder(SteinerError):
    pass


class AxiomViolation(SteinerError):
    pass


class TooFewSlopes(SteinerError):
    pass


class BadCoprimality(SteinerError):
    pass


class Unavailable(SteinerError):
    pass


# -- composition -------------------------------------------------------------

class StabilizerViolation(SteinerError):
    pass


class NotOneBlocked(SteinerError):
    def __init__(self, witness=None, message: str = ""):
        self.witness = witness
        super().__init__(message or f"group is not 1-blocked, witness: {witness}")
