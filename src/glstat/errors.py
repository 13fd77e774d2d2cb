"""Exception hierarchy shared by all glstat modules."""


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
