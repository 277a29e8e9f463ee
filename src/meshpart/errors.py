"""Exception hierarchy shared across the package."""

from __future__ import annotations


class MeshPartError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MeshPartError):
    """Bad configuration: unknown schedule, malformed flag, unreadable file."""


class ShapeError(MeshPartError):
    """Inconsistent tensor shapes, dims, or sharding metadata."""


class GraphValidationError(MeshPartError):
    """A graph failed validation.

    Building an `ir.Graph` raises it with every `ir.Violation` in
    `violations`; the JSON loader and the mesh check raise it with none.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


class IllegalActionError(MeshPartError):
    """An action failed its legality preconditions for the given state."""


class PlanReplayError(MeshPartError):
    """Replaying a recorded plan failed at a specific action index."""

    def __init__(self, message: str, action_index: int):
        super().__init__(message)
        self.action_index = action_index


class OracleSizeError(ConfigError):
    """The state space exceeds the exhaustive enumeration guard."""
