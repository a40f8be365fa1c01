"""Exception types raised across the package.

Everything derives from :class:`GraphfillError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish individual conditions.
"""


class GraphfillError(Exception):
    """Base class for all graphfill errors."""


class DimensionMismatch(GraphfillError):
    """Operands have incompatible shapes."""


class KTooLarge(GraphfillError):
    """Requested more neighbours than there are other nodes."""


class DuplicateCoordinates(GraphfillError):
    """Two nodes share identical coordinates (zero distance)."""


class ConvergenceFailure(GraphfillError):
    """The Laplacian eigensolver failed, or CG stopped above its tolerance."""


class NegativeBase(GraphfillError):
    """Fractional power requested of a matrix with a negative eigenvalue."""


class HorizonTooShort(GraphfillError):
    """Temporal differences need at least two time steps."""


class DensityTooLow(GraphfillError):
    """Sampling density rounds to zero nodes per snapshot."""


class UnsatisfiableCoverage(GraphfillError):
    """Mask regeneration could not cover every node row."""


class SingularSystem(GraphfillError):
    """The reconstruction normal equations have no unique solution."""


class ProblemTooLarge(GraphfillError):
    """Instance exceeds the dense direct solver's size guard."""


class EmptyEvaluationSet(GraphfillError):
    """No hidden entries to evaluate metrics over."""


class DegenerateRange(GraphfillError):
    """Min-max scaling of a constant matrix is undefined."""


class MalformedCsv(GraphfillError):
    """CSV input violates the documented header/field contract."""


class DuplicateReading(GraphfillError):
    """Two readings for the same (node, time) pair."""


class UnknownNode(GraphfillError):
    """A reading references a node absent from the positions file."""


class EmptyDataset(GraphfillError):
    """No usable nodes or readings remain."""


class EmptyColumn(GraphfillError):
    """A time step has zero observed nodes."""
