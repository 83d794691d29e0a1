"""Exception hierarchy shared by all modules."""


class FairChoresError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FairChoresError):
    """Malformed or inconsistent user input (bad file, bad dimensions, bad flag)."""


class ZeroDisutilityError(FairChoresError):
    """An agent values some chore at exactly zero, which the market solvers reject."""


class InstanceTooLargeError(FairChoresError):
    """The instance exceeds the fixed size cap (a module constant) of an exhaustive procedure."""


class BudgetExhaustedError(FairChoresError):
    """An iterative solver ran out of its fixed budget (rounds or rungs)."""


class InvalidEquilibriumError(FairChoresError):
    """An operation requiring a verified market equilibrium received one that fails."""


class WrongAgentCountError(FairChoresError):
    """The three-agent solver was called on an instance without exactly 3 agents."""


class AlgorithmBugError(FairChoresError):
    """A certificate or invariant the algorithm guarantees failed: a bug.

    The message starts with the stage that failed (``phase 1:``,
    ``certificate:``, ...) and names what broke.
    """
