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


class CertificateFailureError(FairChoresError):
    """A post-hoc certificate check failed on output we just computed (bug guard)."""


class AlgorithmBugError(FairChoresError):
    """An internal state the correctness analysis rules out was reached."""


class EquilibriumNotFoundError(AlgorithmBugError):
    """The exact support search found no verified equilibrium.

    Equal-income equilibria always exist for strictly positive disutilities,
    so this indicates a bug rather than a property of the instance.
    """


class IsolatedChoreError(AlgorithmBugError):
    """An unallocated chore lost its last payment edge during rounding."""


class RedistributionDegreeError(AlgorithmBugError):
    """Edge-deletion fired on a chore with a single neighbor (would divide by zero)."""


class OwnChoreCopyError(AlgorithmBugError):
    """The duplication step would copy a chore into a bundle that already holds it."""


class LoopInvariantError(AlgorithmBugError):
    """An instrumented loop invariant failed mid-run."""


class NonTerminationError(AlgorithmBugError):
    """A loop with a proven iteration bound exceeded it."""
