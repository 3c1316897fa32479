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


def require(value, kind, what: str):
    """The value, if an instance of ``kind``, a type or a tuple of types (a bool
    only where ``bool`` is one); else PreconditionError("{what} must be a ...")."""
    kinds = kind if type(kind) is tuple else (kind,)
    if isinstance(value, kinds) and (type(value) is not bool or bool in kinds):
        return value
    names = [k.__name__.lower() if k.__module__ == "collections.abc" else k.__name__ for k in kinds]
    names = ["None" if n == "NoneType" else ("an " if n[0] in "aeiouAEIOU" else "a ") + n
             for n in names]
    raise PreconditionError(f"{what} must be {' or '.join(names)}, not {value!r}")
