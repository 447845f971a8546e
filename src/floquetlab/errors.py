"""Exception hierarchy shared by all floquetlab modules."""


class FloquetLabError(Exception):
    """Base class for all library errors."""


class NumericalAssertionError(FloquetLabError):
    """A structural identity that should hold to rounding error failed.

    Signals a bug or ill-conditioned input rather than a bad argument;
    the CLI maps these to exit code 3.
    """


class SearchFailure(FloquetLabError):
    """A randomized or combinatorial search ran out of budget.

    This is a report, not a contract violation: the underlying existence
    results give no effective bounds, so callers may retry with a new
    seed or a larger budget.  The CLI maps these to exit code 4.
    """


class NotInGroup(FloquetLabError):
    """Matrix is not in SU(1,1) within tolerance."""


class NotElliptic(FloquetLabError):
    """Operation requires an elliptic SU(1,1) matrix (trace in (-2,2))."""


class CommutingInput(FloquetLabError):
    """The two generators commute within tolerance, so no hyperbolic
    element of the generated semigroup need exist."""


class WordNotFound(SearchFailure):
    """Semigroup word search exhausted its budget without a hyperbolic word."""


class NonRealTrace(NumericalAssertionError):
    """A batched monodromy failed its rounding check: the determinant
    defect of the product bounds a trace error above tolerance."""


class BandCountExceeded(NumericalAssertionError):
    """A computed band set violates the Floquet band-count bound."""


class NotInBandInterior(FloquetLabError):
    """Density-of-states evaluation requested too close to a band edge."""


class OutOfDisk(FloquetLabError):
    """A Verblunsky coefficient or disk point has modulus >= 1."""


class EmptySet(FloquetLabError):
    """Hausdorff distance is undefined for empty sets."""


class BudgetExhausted(SearchFailure):
    """Gap-opening or cover search failed within its sampling budget."""


class NTooSmall(SearchFailure):
    """Requested period multiplier is below the feasibility threshold."""


class StageInfeasible(SearchFailure):
    """A schedule stage could not be built; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
