"""Exception and warning types shared across the package."""


class RepspectError(Exception):
    """Base class for all errors raised by this package."""


# -- group construction and sampling --------------------------------------

class ClosureOverflow(RepspectError):
    """Generator closure exceeded the element cap before completing."""


class NonInvertibleGenerator(RepspectError):
    """A matrix generator is singular (or numerically so)."""


# -- representation construction ------------------------------------------

class UnknownName(RepspectError):
    """Representation name is not in the catalog."""


class BadParams(RepspectError):
    """Representation parameters are inconsistent or invalid."""


class SingularGram(RepspectError):
    """The averaged Gram matrix is numerically non-positive."""


class DimensionMismatch(RepspectError):
    """Operands have incompatible dimensions."""


class NotUnitVector(RepspectError):
    """Vector is not normalized to the required tolerance."""


# -- commutant computation -------------------------------------------------

class ThresholdAmbiguity(UserWarning):
    """A singular value sits within a decade of the nullspace cutoff."""


class NonStabilizedDimension(RepspectError):
    """Sampled commutant dimension failed to stabilize."""


class NotReducible(RepspectError):
    """Witness extraction requires a reducible representation."""


class DegenerateSpectrum(RepspectError):
    """Witness matrix has no usable eigenvalue gap."""


class InconsistentDimensions(RepspectError):
    """Commutant dimensions are impossible for an irreducible representation."""


# -- measures and moments ---------------------------------------------------

class BadMeasureSpec(RepspectError):
    """Measure description is invalid for the given representation."""


class NotDiscrete(RepspectError):
    """Operation requires a discrete (finitely supported) measure."""


class TraceNotOne(RepspectError):
    """Second-moment matrix does not have unit trace."""


class NotSumZero(RepspectError):
    """Vector coordinates do not add up to zero."""


class TooLarge(RepspectError):
    """Problem size exceeds a hard enumeration guard."""


# -- config and orchestration ------------------------------------------------

class ParseError(RepspectError):
    """Config text is not well-formed JSON."""


class ValidationError(RepspectError):
    """Config is well-formed but semantically invalid."""


class VerdictConflict(RepspectError):
    """Commutant verdict and moment estimates disagree beyond tolerance."""
