"""Shared exception types."""


class SizeGuardError(RuntimeError):
    """Raised when an enumeration or search would exceed its configured budget,
    or a dataset's money values exceed the range where the LP is exact.

    Callers must refuse loudly rather than silently downsample.
    """


class LpSolveError(RuntimeError):
    """Raised when an LP solve does not end in a verified optimal solution."""
