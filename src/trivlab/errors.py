"""Exception types shared across the package."""


class TrivlabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateConditioningError(TrivlabError):
    """Conditioning variance is numerically zero; the conditional law is ill-defined."""


class UnsupportedRegimeError(TrivlabError):
    """The requested quantity does not exist in this parameter regime."""


class IllConditionedCovarianceError(TrivlabError):
    """A covariance matrix could not be factorized within the allowed jitter."""


class SearchFailureError(TrivlabError):
    """An optimization or root search failed to converge from any start."""


class ConfigError(TrivlabError):
    """A run configuration file is malformed or inconsistent."""
