"""Exception types shared across the package."""


class UnitCommitmentError(Exception):
    """Base class for all errors raised by this package."""


class OutOfBoundsError(UnitCommitmentError, ValueError):
    """A power level lies outside the unit's admissible range."""


class InfeasibleDispatchError(UnitCommitmentError):
    """The committed set cannot meet demand within its generation limits."""


class InfeasibleActionError(UnitCommitmentError):
    """An action violates minimum up/down locks or set generation limits."""


class NoFeasibleActionError(UnitCommitmentError):
    """A state admits no feasible action (catastrophe state).

    ``step`` carries the 0-based hour index when raised during a rollout.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class HourMismatchError(UnitCommitmentError, ValueError):
    """Two states that must share an hour index do not."""


class EmptySliceError(UnitCommitmentError):
    """Nearest-neighbor lookup against an empty value slice."""


class TooLargeError(UnitCommitmentError):
    """Problem size exceeds an oracle's enumeration bound, or a fleet's
    table of all 2^N actions does not fit in memory."""


class NoFeasiblePlanError(UnitCommitmentError):
    """Exhaustive search proved that no feasible schedule exists."""


class InstanceParseError(UnitCommitmentError):
    """Instance file is structurally invalid (missing or mistyped fields)."""


class InstanceValidationError(UnitCommitmentError):
    """Instance violates domain invariants; ``report`` lists the violations,
    all on the message's one line."""

    def __init__(self, report, path):
        super().__init__(f"{path}: instance failed validation: {report.describe()}")
        self.report = report
