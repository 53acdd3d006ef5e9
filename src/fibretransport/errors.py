"""Exception types raised by the library.

Every failure of an operation's stated precondition raises one of these
rather than a bare ValueError, so callers (and the test suite) can tell
contract violations apart from genuine bugs.
"""


class FibreTransportError(Exception):
    """Base class for all library errors."""


# ---- path algebra ----------------------------------------------------------

class DomainNotContained(FibreTransportError):
    """A subinterval reaches outside the domain it must live in."""


class DomainMismatch(FibreTransportError):
    """A remap's target interval does not equal the path's domain."""


class NonCanonicalDomain(FibreTransportError):
    """Operation requires a path parameterized over [0, 1]."""


class EndpointMismatch(FibreTransportError):
    """Concatenation requires the first path to end where the second starts."""


class ScheduleMismatch(FibreTransportError):
    """A concatenation schedule is incompatible with the given paths."""


class ParameterOutOfDomain(FibreTransportError):
    """A path parameter lies outside the path's domain."""


# ---- bundles ---------------------------------------------------------------

class PointNotInBase(FibreTransportError):
    """The base point does not belong to the declared base space."""


class WrongFibreKind(FibreTransportError):
    """Operation needs a different fibre kind (finite / vector / sections)."""


class DimensionMismatch(FibreTransportError):
    """Vector length does not match the fibre dimension."""


class NoSectionThrough(FibreTransportError):
    """No section of the family passes through the given element."""


class SectionUndefinedOnPath(FibreTransportError):
    """A section assignment is missing a point visited by the path."""


# ---- transports ------------------------------------------------------------

class ElementNotOverPoint(FibreTransportError):
    """Fibre element is not attached over the expected base point."""


class EdgeMissing(FibreTransportError):
    """A piecewise path crosses a node pair with no declared edge map."""


class CocycleViolation(FibreTransportError):
    """Point-pair maps fail the composition consistency requirement."""


class ChartDomainError(FibreTransportError):
    """A chart path left the valid coordinate region, or coefficients blew up."""


class PreconditionNotDeclared(FibreTransportError):
    """A law checker requires a property the transport does not declare."""


# ---- factorization ---------------------------------------------------------

class UnknownParameter(FibreTransportError):
    """Requested parameter is not on the factorization grid."""


class GridMismatch(FibreTransportError):
    """Two factorizations are sampled on different grids."""


class DifferentTransports(FibreTransportError):
    """Two factorizations do not induce the same transport."""


class GaugeInconsistent(FibreTransportError):
    """No single fibre map relates the two factorizations at every parameter."""


# ---- liftings --------------------------------------------------------------

class PointNotOnPath(FibreTransportError):
    """The element's projection could not be located on the path."""


class AnchorMismatch(FibreTransportError):
    """The anchor parameter does not sit under the element's base point."""


class LiftInconsistent(FibreTransportError):
    """A lift assignment changes when re-anchored along its own lifting."""


class UniquenessPrereqFailed(FibreTransportError):
    """An operation assumed loop-trivial transports but the check failed."""


# ---- configuration / CLI ---------------------------------------------------

class UnknownInstance(FibreTransportError):
    """No preset with that name."""


class UnknownLaw(FibreTransportError):
    """Law identifier is not in the registry."""


class ConfigError(FibreTransportError):
    """Malformed run configuration, or a path or transport that breaks its
    construction contract."""
