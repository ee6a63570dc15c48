"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError/TypeError from the
offending operation. A ring construction that fails a named check
raises a `RingAxiomError` carrying that name. The int check and the
value formatter live here so that the formulas can load them alone.
"""


class ChowKunnethError(Exception):
    """Base class for all package-specific errors."""


class RingMismatch(ChowKunnethError):
    """Operands live over different rings (or incompatible source/target)."""


class OddRankObstruction(ChowKunnethError):
    """An odd cohomological degree below the middle has nonzero rank, so
    the all-algebraic projector recipe does not apply."""


class NotIdempotent(ChowKunnethError):
    """A correspondence required to be a projector fails p∘p = p."""


class IncompleteInput(ChowKunnethError):
    """A construction needs data (basis, ranks, expressions) that was
    not supplied."""


class NotRingMap(ChowKunnethError):
    """A claimed ring homomorphism is not multiplicative, not unital,
    not degree-preserving, or not surjective where required."""


class UnsupportedAction(ChowKunnethError):
    """An equivariant operation was requested for a group action the
    model machinery does not cover."""


class InvalidSpec(ChowKunnethError, ValueError):
    """An input breaks a rule of what it describes: a space, group,
    model, bound, correspondence or projector set, whether it came from
    a document, a command-line flag or a library call. Each rule is
    checked in one place, the constructor or reader that owns it, and
    the message names the field or flag and the offending value. A
    `ValueError` too, so library callers may catch either."""


class SizeLimitExceeded(ChowKunnethError):
    """A description asks for an object past a documented size limit;
    the size is predicted, and the object never built."""


class RingAxiomError(ChowKunnethError):
    """A ring under construction fails one of its named checks: a graded
    ring axiom, or a hypothesis the construction needs.

    Carries the name of the failed check in ``check``.
    """

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


class DegeneratePairing(RingAxiomError):
    """A Poincare pairing block that must be invertible is singular."""

    check = "pairing_nondegeneracy"

    def __init__(self, message):
        super().__init__(self.check, message)


class NonLefschetzRange(RingAxiomError):
    """The ambient pairing of a complete-intersection model degenerates
    below the middle degree, so the truncation hypotheses fail."""

    check = "lefschetz_range"

    def __init__(self, message):
        super().__init__(self.check, message)


def _shown(value):
    """`value` as an error message names it: its repr, or for an int of
    more than 30 digits only that bound, since Python prints no int of
    over 4300 digits."""
    if isinstance(value, int) and not -10**30 <= value <= 10**30:
        return "more than 10^30" if value > 0 else "less than -10^30"
    return repr(value)


def _require_int(value, where, minimum=None):
    """`value`, checked to be an int (not a bool) of at least `minimum`;
    `where` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int) or (
            minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidSpec(f"{where} must be an integer{bound}, got {_shown(value)}")
    return value
