"""Exception types raised across the package.

Everything derives from :class:`GraphfillError` so callers can catch the
package's failures with a single except clause. There is one class per
outcome the program acts on: every fault in the input (data, config, graph,
mask or evaluation set) raises :class:`InvalidInput`, on which the CLI exits
2; each failure of the computation has its own class, on which it exits 3.
"""


class GraphfillError(Exception):
    """Base class for all graphfill errors."""


class InvalidInput(GraphfillError):
    """A fault in the input rather than in the computation."""


class ConvergenceFailure(GraphfillError):
    """The Laplacian eigensolver failed, or CG stopped above its tolerance."""


class UnsatisfiableCoverage(GraphfillError):
    """Mask regeneration could not cover every node row."""


class SingularSystem(GraphfillError):
    """The reconstruction normal equations have no unique solution."""


class ProblemTooLarge(GraphfillError):
    """Instance exceeds the dense direct solver's size guard."""


class EmptyColumn(GraphfillError):
    """A time step has zero observed nodes."""
