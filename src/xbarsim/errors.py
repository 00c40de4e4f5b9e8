"""Exception hierarchy shared by all xbarsim modules."""


class XbarError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(XbarError):
    """Input data violates a structural invariant."""


class ParseError(XbarError):
    """Input file could not be parsed."""


class IndexOutOfRange(XbarError):
    """Row/column index outside the crossbar."""


class OutOfActiveRegion(XbarError):
    """Cell lies outside the active dimensions of the configuration."""


class StateForbidden(XbarError):
    """Resistance state not permitted by the cell's region."""


class IllegalConfig(XbarError):
    """Configuration not available under the crossbar's control mode."""


class DimensionTooSmall(XbarError):
    """Crossbar dimension below the minimum for the operation."""


class CountExceedsCapacity(XbarError):
    """Cell count larger than the crossbar capacity."""


class InvalidParams(XbarError):
    """Synthetic-workload generation parameters out of range."""


class Infeasible(XbarError):
    """No legal placement found for a cluster.

    Carries the offending cluster id (when known) and a list of violation
    descriptions, one per synapse still violating its region at the final
    seats (for an oversized cluster, its dimensions).
    """

    def __init__(self, message, cluster_id=None, violations=()):
        super().__init__(message)
        self.cluster_id = cluster_id
        self.violations = list(violations)


class CapacityExceeded(XbarError):
    """More clusters than crossbars."""


class TooFewSpikes(XbarError):
    """ISI needs at least two spikes."""


class UnknownNeuron(XbarError):
    """Spike train references a neuron absent from the placement."""


class EmptyPlacement(XbarError):
    """Statistics requested over a placement with no synapses."""


class EmptyCounts(XbarError):
    """m + n must be positive."""


class NegativeActivity(XbarError):
    """Spike/route counts must be non-negative and duration positive."""


class InvalidGrid(XbarError):
    """Sweep grid empty or outside the crossbar dimension."""


class NoFeasibleKnee(XbarError):
    """No sweep point satisfies the knee rule."""
