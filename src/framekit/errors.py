"""Exception hierarchy.

Every mathematical precondition failure raises a subclass of FramekitError,
which the CLI maps to exit code 2.  I/O and parse problems are plain
OSError/ValueError territory and map to exit code 1.
"""


class FramekitError(Exception):
    """Base class for all domain errors."""


# numerics
class NonSquare(FramekitError):
    pass


class EigenFailure(FramekitError):
    pass


class NotPsd(FramekitError):
    pass


class SpectrumOnCut(FramekitError):
    pass


class NotDiagonalizable(FramekitError):
    pass


class BadExponent(FramekitError):
    pass


class InconsistentInterval(FramekitError):
    pass


class NumericalOverflow(FramekitError):
    """A product of finite inputs left the floating-point range."""


# frame pairs
class NotAFrame(FramekitError):
    pass


class NotBessel(FramekitError):
    pass


class NotParseval(FramekitError):
    pass


class ShapeMismatch(FramekitError):
    pass


class CountMismatch(FramekitError):
    pass


class DimMismatch(FramekitError):
    pass


class ParamNotAdmissible(FramekitError):
    pass


class NotOrthogonal(FramekitError):
    pass


class BadCoefficients(FramekitError):
    pass


class RangesDiffer(FramekitError):
    pass


class IdempotentNotProjection(FramekitError):
    pass


class LambdaTooSmall(FramekitError):
    pass


class NotSelfPair(FramekitError):
    pass


class HypothesisFails(FramekitError):
    pass


class NotWeightedOnb(FramekitError):
    pass


class WeightTooLarge(FramekitError):
    pass


class NotReal(FramekitError):
    pass


class BadParams(FramekitError):
    pass


# operator-valued pairs
class NotOnb(FramekitError):
    pass


class CodomainNotOneDim(FramekitError):
    pass


# constructors
class NegativeRadius(FramekitError):
    pass


class BadKL(FramekitError):
    pass


class BadGroupTable(FramekitError):
    pass


class NotARepresentation(FramekitError):
    pass


class NotInvariant(FramekitError):
    pass


# p-frames
class NotPFrame(FramekitError):
    pass


class RankDeficient(FramekitError):
    pass


class BaseNotOrthonormal(FramekitError):
    pass


class ZeroDirection(FramekitError):
    pass
