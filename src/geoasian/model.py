"""Model parameters, the quadratic volatility arc, and the market state.

The slow volatility factor is an OU process with speed k and long-run level
alpha_prime started at z0. Its mean path is approximated over the contract
life by the quadratic arc

    sigma_bar(t) = P t^2 + Q t + R,

with P = (z0 - alpha_prime) k^2 / 2, Q = -(z0 - alpha_prime) k, R = z0 (the
second-order Taylor expansion of the mean path at t = 0). Everything downstream
consumes the arc through ``effective_vol``, floored at ``sigma_min``.

The log-spot / log-average state is (s, u) = (ln x, t ln(g/x)), which
``MarketState`` computes once when built. Every record here refuses a bad
field when it is built, with a ``PricingError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    FLOAT_MAX,
    NonPositivePrice,
    NonPositiveStrike,
    OutOfDomain,
    PDFactorizationFailure,
    UnsupportedContract,
    require_finite,
)

SIGMA_MIN_DEFAULT = 1e-4


@dataclass(frozen=True)
class ModelParams:
    """Market and model constants.

    r            risk-free rate (1/year)
    k            slow-factor mean-reversion speed (1/year)
    alpha_prime  slow-factor long-run level (volatility units)
    z0           slow-factor initial level (volatility units)
    epsilon      fast time scale (years, > 0)
    nu           fast-factor volatility scale
    beta         slow-factor vol-of-vol (Monte Carlo only)
    rho_xy, rho_xz, rho_yz   Brownian correlations

    A ModelParams that exists is valid. A non-finite field raises
    ``NonFiniteInput``, then a correlation matrix that is not positive
    definite ``PDFactorizationFailure``, then every other broken rule of
    k, epsilon > 0; r, alpha_prime, z0, nu, beta >= 0; z0 != alpha_prime
    (the arc would be flat) and |rho| < 1 one ``OutOfDomain``. A matrix within
    rounding of singular passes, and ``simulate_paths`` may still fail to factor it.
    """

    r: float
    k: float
    alpha_prime: float
    z0: float
    epsilon: float
    nu: float = 0.0
    beta: float = 0.0
    rho_xy: float = 0.0
    rho_xz: float = 0.0
    rho_yz: float = 0.0

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if correlation_pd_margin(self.rho_xy, self.rho_xz, self.rho_yz) <= 0.0:
            raise PDFactorizationFailure("correlation matrix is not positive definite")
        bounds = (
            ("alpha_prime", self.alpha_prime >= 0.0, ">= 0"),
            ("z0", self.z0 >= 0.0, ">= 0"),
            ("r", self.r >= 0.0, ">= 0"),
            ("k", self.k > 0.0, "> 0"),
            ("epsilon", self.epsilon > 0.0, "> 0"),
            ("nu", self.nu >= 0.0, ">= 0"),
            ("beta", self.beta >= 0.0, ">= 0"),
        )
        bad = [f"{name} must be {bound}, got {getattr(self, name)}"
               for name, ok, bound in bounds if not ok]
        if self.z0 == self.alpha_prime:
            bad.append(f"z0 must differ from alpha_prime, got {self.z0}")
        bad += [f"{name} must satisfy |rho| < 1, got {getattr(self, name)}"
                for name in ("rho_xy", "rho_xz", "rho_yz") if not abs(getattr(self, name)) < 1.0]
        if bad:
            raise OutOfDomain("; ".join(bad))


def correlation_pd_margin(rho_xy: float, rho_xz: float, rho_yz: float) -> float:
    """Determinant of the 3x3 correlation matrix; with every |rho| < 1, it is
    positive iff the matrix is positive definite."""
    return (
        1.0
        + 2.0 * rho_xy * rho_xz * rho_yz
        - rho_xy * rho_xy
        - rho_xz * rho_xz
        - rho_yz * rho_yz
    )


@dataclass(frozen=True)
class VolArc:
    """Quadratic-arc coefficients and the positive floor applied to the arc."""

    p_coef: float
    q_coef: float
    r_coef: float
    sigma_min: float = SIGMA_MIN_DEFAULT

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if not self.sigma_min > 0.0:
            raise OutOfDomain(f"sigma_min must be > 0, got {self.sigma_min}")


def arc_from_ou(
    k: float,
    alpha_prime: float,
    z0: float,
    sigma_min: float = SIGMA_MIN_DEFAULT,
) -> VolArc:
    """Build the arc from the OU parameters of the slow factor.

    P = (z0 - alpha_prime) k^2 / 2, Q = -(z0 - alpha_prime) k, R = z0.
    The ranges of k, alpha_prime and z0 are ``ModelParams``' rules; here
    z0 = alpha_prime gives the level arc (0, 0, z0).
    """
    require_finite(k=k, alpha_prime=alpha_prime, z0=z0)
    gap = z0 - alpha_prime
    return VolArc(
        p_coef=gap * k * k / 2.0,
        q_coef=-gap * k,
        r_coef=z0,
        sigma_min=sigma_min,
    )


def effective_vol(arc: VolArc, t: float) -> float:
    """Arc volatility at time t, floored at arc.sigma_min."""
    if not 0.0 <= t <= FLOAT_MAX:
        require_finite(t=t)
        raise OutOfDomain(f"t must be >= 0, got {t}")
    value = (arc.p_coef * t + arc.q_coef) * t + arc.r_coef
    return max(arc.sigma_min, value)


@dataclass(frozen=True, init=False)
class MarketState:
    """Valuation time, spot, and running geometric average.

    ``s`` and ``u`` are the state transform (ln x, t ln(g/x)), computed once
    here; they take no part in the repr or in equality. The empty-window convention sets
    g = x at t = 0, so u = 0 there.
    """

    t: float
    x: float
    g: float
    s: float = field(init=False, repr=False, compare=False)
    u: float = field(init=False, repr=False, compare=False)

    def __init__(self, t: float, x: float, g: float) -> None:
        # one comparison chain for a valid state, and one dict update for all
        # five fields, where a frozen dataclass's __init__ sets each in turn
        if not (0.0 <= t <= FLOAT_MAX and 0.0 < x <= FLOAT_MAX and 0.0 < g <= FLOAT_MAX):
            require_finite(t=t, x=x, g=g)
            if x <= 0.0 or g <= 0.0:
                raise NonPositivePrice(f"spot and average must be > 0, got x={x}, g={g}")
            raise OutOfDomain(f"t must be >= 0, got {t}")
        s = math.log(x)
        self.__dict__.update(t=t, x=x, g=g, s=s, u=t * (math.log(g) - s))


class StrikeStyle(Enum):
    FLOATING = "floating"
    FIXED = "fixed"


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class OptionSpec:
    """Contract description; strike is present iff the style is fixed."""

    style: StrikeStyle
    kind: OptionKind
    maturity: float
    strike: float | None = None

    def __post_init__(self) -> None:
        require_finite(maturity=self.maturity, strike=self.strike)
        if not self.maturity > 0.0:
            raise OutOfDomain(f"maturity must be > 0, got {self.maturity}")
        if self.style is StrikeStyle.FIXED:
            if self.strike is None:
                raise NonPositiveStrike("fixed-strike contract requires K")
            if not self.strike > 0.0:
                raise NonPositiveStrike(f"K must be > 0, got {self.strike}")
        elif self.strike is not None:
            raise UnsupportedContract("floating-strike contract takes no K")
