"""Exception hierarchy shared by all modules; the CLI exits 3 on
``AlgorithmBugError`` and 2 on every other class."""


class FairChoresError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FairChoresError):
    """Malformed, inconsistent or unsupported input: a bad file, dimension or
    flag, a zero disutility, other than 3 agents for ``solve_three``, or an
    outcome passed as an equilibrium that fails verification."""


class InstanceTooLargeError(FairChoresError):
    """The instance exceeds the fixed size cap (a module constant) of an exhaustive procedure."""


class BudgetExhaustedError(FairChoresError):
    """An iterative solver ran out of its fixed budget of rounds."""


class AlgorithmBugError(FairChoresError):
    """A certificate or invariant the algorithm guarantees failed: a bug.

    The message starts with the stage that failed (``phase 1:``,
    ``certificate:``, ...) and names what broke.
    """
