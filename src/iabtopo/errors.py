"""Exception hierarchy shared by all iabtopo modules."""


class IabError(Exception):
    """Base class for all library errors."""


# -- graph -------------------------------------------------------------


class DuplicateId(IabError):
    pass


class IllegalEdgeEndpoints(IabError):
    pass


class MissingDonor(IabError):
    pass


class OrphanFrontend(IabError):
    pass


class DisconnectedUe(IabError):
    pass


class ParseError(IabError):
    pass


# -- channel -----------------------------------------------------------


class OutOfModelRange(IabError):
    pass


# -- capacity ----------------------------------------------------------


class NonMonotoneTable(IabError):
    pass


# -- energy ------------------------------------------------------------


class PowerOutOfRange(IabError):
    pass


class InconsistentSolution(IabError):
    pass


class ZeroPower(IabError):
    pass


# -- milp --------------------------------------------------------------


class UnsupportedMode(IabError):
    pass


class EmptyCommodities(IabError):
    pass


class BackendError(IabError):
    pass


class ModelInfeasible(BackendError):
    """HiGHS proved the model has no feasible point."""


class ExtractionMismatch(IabError):
    """Raised when a solver solution fails independent re-validation.

    Signals a big-M or tolerance bug in the model builder; never caught
    and ignored inside the library.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# -- oracle ------------------------------------------------------------


class ZeroCapacityLink(IabError):
    pass


class TooLarge(IabError):
    pass


class NoFeasible(IabError):
    pass


# -- heuristics --------------------------------------------------------


class NoFeasibleStart(IabError):
    pass


class DemandExceedsMaxMin(IabError):
    pass


class NoFeasibleWithinKmax(IabError):
    pass


# -- scenario ----------------------------------------------------------


class BadRange(IabError):
    pass


class DuplicateHour(IabError):
    pass


class MissingHour(IabError):
    pass


class EmptyScenario(IabError):
    pass


# -- cli / reporting ---------------------------------------------------


class EmptyResults(IabError):
    pass
