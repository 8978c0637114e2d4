"""Exception taxonomy shared by every engine layer.

Each class matches one error name from the public operation contracts, so
callers (and the CLI) can switch on type rather than parse messages.
"""


class ParahnError(Exception):
    """Base class for all domain errors."""


class NotPrime(ParahnError):
    pass


class InvalidDegree(ParahnError):
    pass


class FieldMismatch(ParahnError):
    pass


class ShapeMismatch(ParahnError):
    pass


class DegreeBoundViolated(ParahnError):
    pass


class BudgetExceeded(ParahnError):
    def __init__(self, count, cap):
        super().__init__(f"enumeration needs {count} candidates, cap is {cap}")
        self.count = count
        self.cap = cap


class NotInjective(ParahnError):
    pass


class FullRank(ParahnError):
    pass


class InvalidSubbundle(ParahnError):
    pass


class NotNested(ParahnError):
    pass


class EqualRanks(ParahnError):
    pass


class IncompatibleShape(ParahnError):
    pass


class NonUniqueMaximum(ParahnError):
    """Invariant violation: the maximal-slope subbundle is not unique.

    This signals a bug in the enumeration windows, never an expected state.
    """


class LengthMismatch(ParahnError):
    pass


class NoComparableStratum(ParahnError):
    pass


class DegenerateFlagAt(ParahnError):
    def __init__(self, points):
        self.points = list(points)
        shown = ", ".join(str(p) for p in self.points)
        super().__init__(f"flag degenerates at parameter value(s): {shown}")


class BadIndex(ParahnError):
    pass


class BadWeights(ParahnError):
    pass


class MultiplePoints(ParahnError):
    pass


class InvalidFiltration(ParahnError):
    pass


class ParseError(ParahnError):
    pass


class SchemaError(ParahnError):
    pass


class ConsistencyError(ParahnError):
    pass


class UnknownCommand(ParahnError):
    pass
