"""The package's one error family: for any bad input it raises a PricingError, a ValueError.

A number is finite when ``-FLOAT_MAX <= value <= FLOAT_MAX``, a rule that refuses
NaN, the infinities and an int too large for a float alike. ``require_finite``,
the only builder of a NonFiniteInput, refuses each as "<name> must be finite, got <value>"."""

import sys

FLOAT_MAX = sys.float_info.max


class PricingError(ValueError):
    """Base class for every bad-input error raised by this package."""


class OutOfDomain(PricingError):
    """A finite input lies outside its allowed range or does not fit the run."""


class NonFiniteInput(PricingError):
    """An input that must be a finite number is NaN or infinite."""


class NonPositivePrice(PricingError):
    """Spot or running average is not strictly positive."""


class NonPositiveStrike(PricingError):
    """Fixed strike is required to be strictly positive."""


class SingularGamma(PricingError):
    """kt or kT is within tolerance of 2, or ln gamma is too large for exp; gamma is singular."""


class BranchError(PricingError):
    """The log ratio (2-kT)/(2-kt) is nonpositive; no real branch exists."""


class DegenerateHorizon(PricingError):
    """T - t is below the horizon tolerance; d-terms and Greeks are undefined."""


class VanishingPrice(PricingError):
    """|B0| is at or below the price floor; M = theta/B0 is not meaningful."""


class SingularIntegral(PricingError):
    """kT is not below 1 - tol, the bound of the closed-form I-integrals."""


class PoleInInterval(PricingError):
    """The integrand pole k*tau = 1 lies inside the quadrature interval."""


class VanishingVega(PricingError):
    """|dC0/dsigma| is below the vega floor; smile inversion is ill-posed."""


class SingularDenominator(PricingError):
    """The maturity-dependent regression denominator is too close to zero."""


class DegenerateDesign(PricingError):
    """The regression design has no x-variance (or too few rows) to fit a slope."""


class UnsupportedContract(PricingError):
    """Contract style/kind combination outside the supported set."""


class MissingColumn(PricingError):
    """Quotes CSV header lacks one or more required columns."""


class UnparseableField(PricingError):
    """A CSV field or a command-line value could not be parsed into its declared type."""


class PDFactorizationFailure(PricingError):
    """Correlation matrix is not positive definite; no Cholesky factor exists."""


def finite_problems(**values: float | None) -> list[str]:
    """One "<name> must be finite, got <value>" per value not finite, in order; None passes."""
    return [f"{name} must be finite, got {value}" for name, value in values.items()
            if value is not None and not -FLOAT_MAX <= value <= FLOAT_MAX]


def require_finite(**values: float | None) -> None:
    """Raise one NonFiniteInput naming each value that is not finite, in order; skip None."""
    if bad := finite_problems(**values):
        raise NonFiniteInput("; ".join(bad))
