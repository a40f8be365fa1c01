"""Exception types raised across the package.

Everything derives from :class:`GraphfillError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish individual conditions. Faults in the input (data, graph or
evaluation set) derive from :class:`InvalidInput`; the CLI exits 2 on those
and 3 on every other GraphfillError.
"""


class GraphfillError(Exception):
    """Base class for all graphfill errors."""


class InvalidInput(GraphfillError):
    """Base class for faults in the input rather than in the computation."""


class DimensionMismatch(InvalidInput):
    """Operands have incompatible shapes."""


class KTooLarge(InvalidInput):
    """Requested more neighbours than there are other nodes."""


class DuplicateCoordinates(InvalidInput):
    """Two nodes share identical coordinates (zero distance)."""


class ConvergenceFailure(GraphfillError):
    """The Laplacian eigensolver failed, or CG stopped above its tolerance."""


class HorizonTooShort(InvalidInput):
    """Temporal differences need at least two time steps."""


class DensityTooLow(InvalidInput):
    """Sampling density rounds to zero nodes per snapshot."""


class UnsatisfiableCoverage(GraphfillError):
    """Mask regeneration could not cover every node row."""


class SingularSystem(GraphfillError):
    """The reconstruction normal equations have no unique solution."""


class ProblemTooLarge(GraphfillError):
    """Instance exceeds the dense direct solver's size guard."""


class EmptyEvaluationSet(InvalidInput):
    """No hidden entries to evaluate metrics over."""


class DegenerateRange(InvalidInput):
    """Min-max scaling of a constant matrix is undefined."""


class MalformedCsv(InvalidInput):
    """CSV input violates the documented header/field contract."""


class DuplicateReading(InvalidInput):
    """Two readings for the same (node, time) pair."""


class UnknownNode(InvalidInput):
    """A reading references a node absent from the positions file."""


class EmptyDataset(InvalidInput):
    """No usable nodes or readings remain."""


class EmptyColumn(GraphfillError):
    """A time step has zero observed nodes."""
