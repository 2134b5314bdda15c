"""Exception hierarchy shared by all ekstab modules."""


class EkstabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(EkstabError):
    """Operands have inconsistent shapes."""


class SingularSaddle(EkstabError):
    """The assembled saddle-point block matrix is singular or nearly so."""


class RankDeficient(EkstabError):
    """A thin QR hit a diagonal below the rank tolerance."""


class NoConvergence(EkstabError):
    """A dense eigendecomposition backend failed to converge."""


class ParseError(EkstabError):
    """A matrix or manifest file could not be parsed."""


class ValidationError(EkstabError):
    """A descriptor-system invariant is violated; the message names it."""


class InfeasibleSpec(EkstabError):
    """A synthetic-problem request cannot be realized."""


class Breakdown(EkstabError):
    """The block Arnoldi process produced a rank-deficient candidate block.

    The basis built before the failing step remains valid.  The message
    names the step at which the process stopped; the sparse process also
    records it as ``basis.breakdown_at``.
    """


class ModeMismatch(EkstabError):
    """A basis was built in the wrong mode for the requested operation."""


class SingularShift(EkstabError):
    """A transfer-function shift hit the pencil spectrum."""


class NoStabilizingSolution(EkstabError):
    """The dense Riccati solver found no stabilizing solution."""


class SingularCapture(EkstabError):
    """The low-rank capture matrix of a feedback correction is singular."""


class SimulationDiverged(EkstabError):
    """A time-domain simulation produced non-finite or exploding states."""


class InvalidInitialState(EkstabError):
    """The initial state violates the algebraic constraint."""


class SizeCapExceeded(EkstabError):
    """A dense oracle computation was requested above the size cap."""
