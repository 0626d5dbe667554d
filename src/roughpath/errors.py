"""Exception hierarchy shared by all modules."""


class RoughPathError(Exception):
    """Base class for every library-specific failure."""


class LengthMismatch(RoughPathError):
    """Sample count does not match 2**K + 1 for the declared resolution."""


class NonFinite(RoughPathError):
    """A sample, field value, or iterate is NaN or infinite."""


class ResolutionTooCoarse(RoughPathError):
    """The requested construction needs a finer dyadic grid than K provides."""


class BadExponents(RoughPathError):
    """Exponent parameters violate their admissible range."""


class LevelOutOfRange(RoughPathError):
    """A dyadic level outside what the pyramid resolves was requested."""


class BadInterval(RoughPathError):
    """An interval [a, b] is invalid or holds no usable dyadic cell."""


class QuadratureFailure(RoughPathError):
    """Bisection refinement exceeded its split budget without meeting tolerance."""


class MissingDerivative(RoughPathError):
    """An operation requires the time partial of the field and none was given."""


class WindowUnderflow(RoughPathError):
    """Window halving reached the minimum length without contraction."""


class NonFiniteIterate(RoughPathError):
    """A fixed-point iterate left the finite range."""


class SchemaError(RoughPathError):
    """A CSV/JSON document does not match the expected layout."""


class NonDyadicGrid(RoughPathError):
    """A CSV time column is not the exact dyadic grid."""
