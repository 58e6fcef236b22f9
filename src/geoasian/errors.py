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
    """The window touches or crosses k tau = 2, or ln gamma is too large for exp."""


class DegenerateHorizon(PricingError):
    """T - t is below the horizon tolerance; d-terms and Greeks are undefined."""


class VanishingPrice(PricingError):
    """|B0| is at or below the price floor; M = theta/B0 is not meaningful."""


class SingularIntegral(PricingError):
    """The window leaves the I-integrals' domain: kT >= 1 - tol (closed) or a pole in it (quadrature)."""


class VanishingVega(PricingError):
    """|dC0/dsigma| is below the vega floor; smile inversion is ill-posed."""


class SingularDenominator(PricingError):
    """The window of the regressor's D touches or crosses k tau = 2, or |D| is too close to 0."""


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


def shown(value: object) -> str:
    """``f"{value}"``, or an int past ``sys.get_int_max_str_digits`` as its sign and bit length."""
    try:
        return f"{value}"
    except ValueError:  # only an int that long fails to convert
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def finite_problems(**values: float | None) -> list[str]:
    """One "<name> must be finite, got <value>" per value not finite, in order; None passes."""
    return [f"{name} must be finite, got {shown(value)}" for name, value in values.items()
            if value is not None and not -FLOAT_MAX <= value <= FLOAT_MAX]


def require_finite(**values: float | None) -> None:
    """Raise one NonFiniteInput naming each value that is not finite, in order; skip None."""
    if bad := finite_problems(**values):
        raise NonFiniteInput("; ".join(bad))
