"""Exception hierarchy shared by all glstat modules, and the number
check behind their domain errors."""

import numbers


def is_number(v, integral: bool = False) -> bool:
    """True for a real number (an integer if ``integral``) that is not a
    bool: JSON true and false must not pass as 1 and 0."""
    return (isinstance(v, numbers.Integral if integral else numbers.Real)
            and not isinstance(v, bool))


class GlstatError(Exception):
    """Base class for all library-specific errors."""


class InsufficientDataError(GlstatError):
    """Sample too short for the requested operation."""


class CapacityError(GlstatError):
    """Enumeration beyond glstat.ustat.ENUM_CAP index subsets, or a
    subset count too large to hold exactly."""


class DegenerateDensityError(GlstatError):
    """Density estimate at a U-quantile is zero or non-finite."""


class StationarityError(GlstatError):
    """Process parameters violate the stationarity condition."""


class DegenerateVarianceError(GlstatError):
    """A variance required to be positive is (numerically) zero."""
