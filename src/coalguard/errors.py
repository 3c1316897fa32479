"""Exception types shared across the package."""


class CoalGuardError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(CoalGuardError):
    """Raised when formula text cannot be parsed.

    Carries the character offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ModalFormulaError(CoalGuardError):
    """A coalition modality appeared where only propositional structure is allowed."""


class UnknownVariableError(CoalGuardError):
    """A formula or request mentions a variable the model does not declare."""


class UnknownAgentError(CoalGuardError):
    """A coalition or request names an agent the model does not declare."""


class BudgetExceededError(CoalGuardError):
    """An exhaustive search would exceed its documented size cap."""


class OwnershipViolationError(CoalGuardError):
    """An agent requested a change to a variable it does not control."""


class QueueOrderError(CoalGuardError):
    """Arrival indices must be unique and strictly increasing."""


class PreconditionError(CoalGuardError, ValueError):
    """An operation was called on inputs outside its stated domain (a ValueError too)."""


class ScenarioError(CoalGuardError):
    """A scenario file is missing, malformed, or inconsistent."""


class InsecureStartError(ScenarioError):
    """The scenario's initial state already satisfies a critical formula."""
