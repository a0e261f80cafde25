"""Exception types shared across the package."""


class MonosyncError(Exception):
    """Base class for all package errors."""


class CycleError(MonosyncError):
    """The transitive closure of the input relation is not antisymmetric."""


class UnknownElement(MonosyncError):
    """A relation pair or mass line references a name outside the ground set."""


class DuplicateElement(MonosyncError):
    """The same element name was declared twice."""


class NotATree(MonosyncError):
    """The cover graph has a cycle or is disconnected."""


class NotALeaf(MonosyncError):
    """The requested root is not a leaf of the cover graph."""


class SizeLimit(MonosyncError):
    """An enumeration exceeded its configured cap."""


class DomainMismatch(MonosyncError):
    """A measure's domain differs from the poset's ground set."""


class InvalidMeasure(MonosyncError):
    """Masses are negative or do not sum to one."""


class GridMismatch(MonosyncError):
    """Cell permutations or transforms disagree on the grid resolution."""


class InfeasibleInput(MonosyncError):
    """A coupling handed to a constructor fails its marginal equations."""


class NotStochMonotone(MonosyncError):
    """Kernel rows violate stochastic monotonicity.

    Carries the violating pair and up-set as ``args[1:]`` when available.
    """


class NotErgodic(MonosyncError):
    """The kernel is reducible or periodic."""


class NotCoalescing(MonosyncError):
    """No cell sequence merges every state: CFTP would never stop."""


class BudgetExceeded(MonosyncError):
    """Coupling from the past hit the epoch cap without coalescing."""


class ContractViolation(MonosyncError):
    """An exact re-check of a computed object failed.

    ``witness`` names the first failure the check found.
    """

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class ParseError(MonosyncError):
    """A data file is malformed; message carries path and line number."""

    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
