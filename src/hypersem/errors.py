"""Exception hierarchy shared by all workbench modules."""


class WorkbenchError(Exception):
    """Base class for every error this package raises deliberately."""


class SpaceMismatch(WorkbenchError):
    """Two operands were built over different state spaces."""


class UnknownVariable(WorkbenchError):
    """An assignment mentions a variable the space does not declare."""

    def __init__(self, name):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


class MissingVariable(WorkbenchError):
    """An assignment leaves a declared variable without a value."""

    def __init__(self, name):
        super().__init__(f"missing variable {name!r}")
        self.name = name


class ValueOutOfRange(WorkbenchError):
    """A variable value lies outside its declared range."""


class BadDeclaration(WorkbenchError, ValueError):
    """Variable declarations that define no state space: a duplicate name,
    an empty range, or more states than the size cap."""


class SpaceTooLarge(WorkbenchError):
    """The requested brute-force check exceeds its size precondition."""


class QueryBlowup(WorkbenchError):
    """A family needed an explicit expansion beyond the member cap, or a
    product beyond the pair bound."""


class NonSubsetClosedQuery(WorkbenchError):
    """A strict hyper evaluation was given a query outside its contract."""


class IterationBudgetExceeded(WorkbenchError):
    """A loop's iterates did not stabilize within the step budget.  The
    paper and naive iterates increase, so they stabilize within it; the
    otimes iterates of the definitional evaluator need not, and could
    cycle."""


class ElaborationError(WorkbenchError):
    """An atom or guard could not be elaborated over the given space."""


class UndeclaredVariable(ElaborationError):
    """Program text references a variable that was never declared."""

    def __init__(self, name):
        super().__init__(f"undeclared variable {name!r}")
        self.name = name


class ParseError(WorkbenchError):
    """Syntax error with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
