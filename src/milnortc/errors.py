"""Shared exception types, and the default cap on the oracle's slices.

This module imports nothing, so the CLI can read its option table's
defaults and catch these errors without running any other layer.
"""

# a level of kept rows over a d-column slice holds at most d rows of d bits,
# d²/8 bytes, so the default cap bounds a level by 512 MiB.  It refuses cup
# on rh:16,9 at n = 3 (a 168,256-column slice), which would run for minutes
# and take gigabytes, and lets rh:9,2 at n = 4 (37,881 columns) run
DEFAULT_MAX_SLICE = 1 << 16


class ResourceLimitError(RuntimeError):
    """A graded slice exceeded the configured dimension cap."""

    def __init__(self, message, dimension=None, cap=None):
        super().__init__(message)
        self.dimension = dimension
        self.cap = cap


class ExprSyntaxError(ValueError):
    """Factor expression failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NoFreeActionError(ValueError):
    """Requested an equivariant bound for a space without the free action."""
