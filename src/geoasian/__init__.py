"""Geometric Asian options under two-factor stochastic volatility.

First-order asymptotic prices and Greeks, smile-regression calibration of
the single group parameter, and a Monte Carlo oracle over the full SDE
system. See the module docstrings for the formula conventions. The root
exports what the README quick start, the scripts and the acceptance tests
import; every other name imports from its module.
"""

from .calibration import (
    QuoteRow,
    QuoteStyle,
    calibration_report,
    ingest_quotes,
    ols_fit,
    regression_pairs,
    smile_curve,
    v_from_fit,
)
from .closedform import (
    bs_fixed_call,
    bs_fixed_put,
    bs_floating_call,
    greeks_fixed_call,
    greeks_fixed_put,
    greeks_floating_call,
)
from .errors import PricingError
from .mc import (
    ConstantVol,
    FullModel,
    McConfig,
    price_mc,
    reference_full_model,
    simulate_paths,
    stationary_effective_vol,
)
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    arc_from_ou,
)
from .perturbation import (
    first_order_price,
    i_integrals_closed,
    i_integrals_quadrature,
    modification_factor,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantVol",
    "FullModel",
    "MarketState",
    "McConfig",
    "ModelParams",
    "OptionKind",
    "OptionSpec",
    "PricingError",
    "QuoteRow",
    "QuoteStyle",
    "StrikeStyle",
    "VolArc",
    "arc_from_ou",
    "bs_fixed_call",
    "bs_fixed_put",
    "bs_floating_call",
    "calibration_report",
    "first_order_price",
    "greeks_fixed_call",
    "greeks_fixed_put",
    "greeks_floating_call",
    "i_integrals_closed",
    "i_integrals_quadrature",
    "ingest_quotes",
    "modification_factor",
    "ols_fit",
    "price_mc",
    "reference_full_model",
    "regression_pairs",
    "simulate_paths",
    "smile_curve",
    "stationary_effective_vol",
    "v_from_fit",
]
