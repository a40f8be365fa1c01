"""Exception types raised across the package.

Everything derives from :class:`GraphfillError`, so one except clause
catches the package's failures. Every fault in the input raises
:class:`InvalidInput`, on which every CLI command exits 2; a failed solve
raises :class:`SingularSystem` or :class:`ConvergenceFailure`, on which
``reconstruct`` exits 3 and a Monte-Carlo repetition is recorded as failed.
"""


class GraphfillError(Exception):
    """Base class for all graphfill errors."""


class InvalidInput(GraphfillError):
    """A fault in the input rather than in the computation."""


class SingularSystem(GraphfillError):
    """The reconstruction normal equations have no unique solution."""


class ConvergenceFailure(GraphfillError):
    """The Laplacian eigensolver failed, or CG stopped above its tolerance."""
