"""Shared exception types.

This module imports nothing, so the CLI can catch these errors without
running any other layer.
"""


class ResourceLimitError(RuntimeError):
    """The exact oracle needed more rows than its budget
    (:data:`milnortc.slotchain.BUDGET`)."""


class ExprSyntaxError(ValueError):
    """Factor expression failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NoFreeActionError(ValueError):
    """Requested an equivariant bound for a space without the free action."""
