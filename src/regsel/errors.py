"""Exception types shared across the package.

Every failure mode a caller is expected to branch on gets its own class, so
the CLI can map them to stable exit codes and tests can assert on them.
"""


class RegselError(Exception):
    """Base class for all package errors.

    ``field`` names the field of the problem data at fault when the raiser
    knows it (``ControlProblem`` names ``dynamics`` or ``control_set``), so
    a file parser can report the error at that field.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class ShapeError(RegselError, ValueError):
    """Dimension mismatch or malformed array input."""


class ContractError(RegselError, ValueError):
    """A precondition on constants or problem data is violated.

    The message names the offending quantity (e.g. the failing modulus).
    """


class NumericBreakdownError(RegselError, RuntimeError):
    """A dense factorization or residual check failed beyond tolerance."""


class RegularityError(RegselError, RuntimeError):
    """Surjectivity or truncation nonemptiness failed.

    Raised when an operator is numerically non-surjective, when a
    truncated inverse image is empty because the regularity constant was
    chosen too small for the instance, or when the inverse image itself is
    empty (the target has no preimage under the constraint).
    """


class LocalityError(RegselError, RuntimeError):
    """A query point left the certified neighborhood.

    Carries the violated bound in ``bound`` when known.
    """

    def __init__(self, message: str, bound: float | None = None):
        super().__init__(message)
        self.bound = bound


class InfeasibilitySuspectedError(RegselError, RuntimeError):
    """Alternating projections failed to settle within the round budget.

    ``gap`` is the worst distance to a member set at the final iterate.
    """

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class UncontrollableError(RegselError, RuntimeError):
    """The Kalman rank test failed for a steering problem's linearization."""


class ProblemFileError(RegselError, ValueError):
    """A problem file failed to parse or validate.

    The message carries the JSON path of the offending field.
    """
