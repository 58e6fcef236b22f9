"""The asymptotic layer: modification factor, I-integrals, correction, full price.

The zeroth-order price is C0 = gamma(t) B0 where B0 is the closed-form
geometric-Asian Black-Scholes price and

    ln gamma = M [ (2/k) ln((2 - kT)/(2 - kt))
                   + (T - t) ((2 - kt)(2 - kT) + 2) / ((2 - kt)(2 - kT)) ],

with M = (1/B0) dB0/dt. The first-order correction applies the I-weighted
u-derivative combinations

    floating: c1 = v_eps (I1 du1 - 2 I2 du2 + I3 du3)
    fixed:    c1 = v_eps (I4 du2 - I5 du3)

where I_n are time integrals of tau^n / (1 + l(tau)) over [t, T], with

    1 + l(tau) = (2 - k tau)^2 / (2 (1 - k tau)),

and the derivatives are taken of C0 (gamma included). Only the product
v_eps = sqrt(epsilon) * V is identifiable from smile data, so the engine
stores v_eps and the first-order price is

    price_hat = C0 + c1.

One private chain, ``_first_order``, sequences B0 -> theta -> M -> gamma ->
I's -> Greeks -> c1 and is the only code that prices a first-order contract.
``first_order_price`` prices with it, at maturity too, where the closed forms
return the payoff; ``calibration`` calls it at v_eps = 1 for the unit
correction and the vega of each quote. gamma, the I-integrals and the
regressor's D check their window (k, t, T) with one ``_check_window``.

``i_integrals_closed`` depends on the window (k, t, T) alone and remembers
the last 128 windows it was asked, so the quotes of one smile cell share one
evaluation; a remembered result is bit-identical to recomputing it.

``i_integrals_quadrature`` integrates tau^n * 2(1 - k tau)/(2 - k tau)^2
adaptively and serves as the independent oracle for the closed forms.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from scipy.integrate import quad

from .closedform import (
    HORIZON_TOL,
    GreekSet,
    b0_theta,
    bs_fixed_call,
    bs_fixed_put,
    bs_floating_call,
    greeks_fixed_call,
    greeks_fixed_put,
    greeks_floating_call,
)
from .errors import (
    BranchError,
    NonFiniteInput,
    OutOfDomain,
    PoleInInterval,
    PricingError,
    SingularGamma,
    SingularIntegral,
    UnsupportedContract,
    VanishingPrice,
)
from .model import (
    SINGULARITY_TOL,
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    effective_vol,
)

PRICE_FLOOR_FRACTION = 1e-12
QUAD_ABS_TOL = 1e-12

# an Enum member lookup costs about 100 ns, a global name a few; function
# bodies read these
_CALL = OptionKind.CALL
_FLOATING = StrikeStyle.FLOATING


def _check_window(k: float, t: float, T: float, m: float = 0.0) -> bool:
    """Refuse a window [t, T] outside k > 0, 0 <= t <= T; True when it is empty.

    gamma, the I-integrals and D check with it. A NaN or infinite k, t, T or m
    raises NonFiniteInput before any range check.
    """
    if not (0.0 < k < math.inf and 0.0 <= t <= T < math.inf and -math.inf < m < math.inf):
        for name, value in (("k", k), ("t", t), ("T", T), ("m", m)):
            if not math.isfinite(value):
                raise NonFiniteInput(f"{name} must be finite, got {value}")
        if not k > 0.0:
            raise OutOfDomain(f"k must be > 0, got {k}")
        if not t >= 0.0:
            raise OutOfDomain(f"t must be >= 0, got {t}")
        raise OutOfDomain(f"t = {t} exceeds T = {T}")
    return t == T


def modification_factor(k: float, t: float, T: float, m: float) -> float:
    """gamma(t) computed in log space; equals 1 at t = T and at m = 0."""
    _check_window(k, t, T, m)
    wt = 2.0 - k * t
    wT = 2.0 - k * T
    if abs(wt) <= SINGULARITY_TOL or abs(wT) <= SINGULARITY_TOL:
        raise SingularGamma(f"kt = {k * t} or kT = {k * T} within tol of 2")
    ratio = wT / wt
    if ratio <= 0.0:
        raise BranchError(f"(2 - kT)/(2 - kt) = {ratio} is nonpositive")
    ln_gamma = m * ((2.0 / k) * math.log(ratio) + (T - t) * (wt * wT + 2.0) / (wt * wT))
    return math.exp(ln_gamma)


def m_exponent(b0: float, theta_b0: float, price_floor: float = 0.0) -> float:
    """M = theta_b0 / b0; raises VanishingPrice when |b0| <= price_floor."""
    if abs(b0) <= price_floor or b0 == 0.0:
        raise VanishingPrice(f"|b0| = {abs(b0)} at or below floor {price_floor}")
    return theta_b0 / b0


def _check_v_eps(v_eps: float) -> None:
    """Refuse a NaN or infinite group parameter v_eps = sqrt(epsilon) * V."""
    if not -math.inf < v_eps < math.inf:
        raise NonFiniteInput(f"v_eps must be finite, got {v_eps}")


class IIntegrals(NamedTuple):
    i0: float
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float


def _check_closed_domain(k: float, t: float, T: float) -> None:
    kt, kT = k * t, k * T
    if kt >= 1.0 - SINGULARITY_TOL:
        raise SingularIntegral(f"kt = {kt} not below 1 - tol")
    if abs(1.0 - kT) <= SINGULARITY_TOL or abs(2.0 - kT) <= SINGULARITY_TOL:
        raise SingularIntegral(f"kT = {kT} within tol of an excluded point")
    if (2.0 - kT) / (2.0 - kt) <= 0.0:
        raise SingularIntegral(f"ratio (2 - kT)/(2 - kt) nonpositive at kT = {kT}")


@functools.lru_cache(maxsize=128, typed=True)
def i_integrals_closed(k: float, t: float, T: float) -> IIntegrals:
    """Closed-form I0..I5; I4 and I5 via the combination identities.

    I0 = -(2/k) [ ln((2-kT)/(2-kt)) + k (T-t) / ((2-kT)(2-kt)) ] and the
    higher orders add polynomial terms; all are antiderivatives of
    tau^n 2(1 - k tau)/(2 - k tau)^2 and are pinned against
    ``i_integrals_quadrature`` in the tests. The last 128 windows are
    remembered (an int and a float k are kept apart); errors are not.
    """
    if _check_window(k, t, T):
        return IIntegrals(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    _check_closed_domain(k, t, T)
    wt = 2.0 - k * t
    wT = 2.0 - k * T
    log_ratio = math.log(wT / wt)
    pole = (T - t) / (wT * wt)
    d1 = T - t
    d2 = T * T - t * t
    d3 = T ** 3 - t ** 3
    i0 = -(2.0 / k) * log_ratio - 2.0 * pole
    i1 = -4.0 * pole / k - 2.0 * d1 / k - (6.0 / k ** 2) * log_ratio
    i2 = -8.0 * pole / k ** 2 - d2 / k - 6.0 * d1 / k ** 2 - (16.0 / k ** 3) * log_ratio
    i3 = (
        -16.0 * pole / k ** 3
        - (2.0 / 3.0) * d3 / k
        - 3.0 * d2 / k ** 2
        - 16.0 * d1 / k ** 3
        - (40.0 / k ** 4) * log_ratio
    )
    i4 = i2 - 2.0 * T * i1 + T * T * i0
    i5 = -i3 + 3.0 * T * i2 - 3.0 * T * T * i1 + T ** 3 * i0
    return IIntegrals(i0, i1, i2, i3, i4, i5)


def i_integrals_quadrature(k: float, t: float, T: float) -> IIntegrals:
    """Adaptive quadrature of the defining integrals (the oracle route).

    I4 and I5 are integrated in their (T - tau)-weighted form directly, so
    the combination identities of the closed form are independently testable.
    """
    if _check_window(k, t, T):
        return IIntegrals(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    kt, kT = k * t, k * T
    # k*tau = 1 on the boundary is harmless (the integrand vanishes there);
    # only a strict interior crossing flips the sign of 1 + l.
    if kt < 1.0 < kT:
        raise PoleInInterval(f"integrand pole k*tau = 1 inside [{t}, {T}]")
    if (kt < 2.0 < kT) or abs(2.0 - kt) <= SINGULARITY_TOL or abs(2.0 - kT) <= SINGULARITY_TOL:
        raise PoleInInterval(f"double pole k*tau = 2 touches [{t}, {T}]")

    def weight(tau: float) -> float:
        w = 2.0 - k * tau
        return 2.0 * (1.0 - k * tau) / (w * w)

    def integrate(f) -> float:
        value, _ = quad(f, t, T, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=200)
        return value

    i0 = integrate(weight)
    i1 = integrate(lambda tau: tau * weight(tau))
    i2 = integrate(lambda tau: tau * tau * weight(tau))
    i3 = integrate(lambda tau: tau ** 3 * weight(tau))
    i4 = integrate(lambda tau: (T - tau) ** 2 * weight(tau))
    i5 = integrate(lambda tau: (T - tau) ** 3 * weight(tau))
    return IIntegrals(i0=i0, i1=i1, i2=i2, i3=i3, i4=i4, i5=i5)


def c1_floating(ii: IIntegrals, greeks: GreekSet) -> float:
    """Floating-strike unit correction I1 du1 - 2 I2 du2 + I3 du3; the chain
    scales it by v_eps."""
    return ii.i1 * greeks.du1 - 2.0 * ii.i2 * greeks.du2 + ii.i3 * greeks.du3


def c1_fixed(ii: IIntegrals, greeks: GreekSet) -> float:
    """Fixed-strike unit correction I4 du2 - I5 du3; the chain scales it by v_eps."""
    return ii.i4 * greeks.du2 - ii.i5 * greeks.du3


class PriceBreakdown(NamedTuple):
    """Component attribution of the first-order price.

    b0 is the plain closed form, c0 = gamma * b0, c1 the additive correction
    at the stored v_eps scaling, price_hat = c0 + c1, and m_exponent the M
    that built gamma (0.0 when gamma was forced off).
    """

    b0: float
    gamma: float
    c0: float
    c1: float
    price_hat: float
    m_exponent: float


def _first_order(
    style: StrikeStyle,
    kind: OptionKind,
    state: MarketState,
    sigma: float,
    T: float,
    K: float | None,
    model: ModelParams,
    v_eps: float,
    gamma_off: bool = False,
) -> tuple[float, float, float, GreekSet | None, float]:
    """The first-order chain B0 -> theta -> M -> gamma -> I's -> Greeks -> c1.

    Returns (b0, m, gamma, greeks, c1): gamma_off pins gamma = 1 and m = 0
    without computing theta, v_eps = 0 skips the I-integrals and the Greeks
    (greeks None, c1 0), and a non-finite v_eps raises NonFiniteInput after
    them. Calibration passes v_eps = 1 for the unit correction. A floating
    strike is priced as a call: ``first_order_price`` refuses the put first.
    Component errors carry the failing stage in their message.
    """
    if style is _FLOATING:
        b0_fn, greeks_fn, c1_fn, strike = bs_floating_call, greeks_floating_call, c1_floating, ()
    elif kind is _CALL:
        b0_fn, greeks_fn, c1_fn, strike = bs_fixed_call, greeks_fixed_call, c1_fixed, (K,)
    else:
        b0_fn, greeks_fn, c1_fn, strike = bs_fixed_put, greeks_fixed_put, c1_fixed, (K,)
    # the stage that is running, named in the message of any error it raises
    stage = "b0"
    try:
        b0 = b0_fn(state, sigma, T, *strike, model.r)
        if gamma_off:
            gamma = 1.0
            m = 0.0
        else:
            stage = "theta"
            theta = b0_theta(style, state, sigma, T, model.r, K=K, kind=kind)
            stage = "m_exponent"
            m = m_exponent(b0, theta, price_floor=PRICE_FLOOR_FRACTION * state.x)
            stage = "gamma"
            gamma = modification_factor(model.k, state.t, T, m)
        if v_eps == 0.0:
            return b0, m, gamma, None, 0.0
        stage = "i_integrals"
        ii = i_integrals_closed(model.k, state.t, T)
        stage = "greeks"
        greeks = greeks_fn(state, sigma, T, *strike, model.r, gamma_factor=gamma)
    except PricingError as exc:
        raise type(exc)(f"{stage}: {exc}") from None
    _check_v_eps(v_eps)
    return b0, m, gamma, greeks, v_eps * c1_fn(ii, greeks)


def first_order_price(
    option: OptionSpec,
    state: MarketState,
    arc: VolArc,
    model: ModelParams,
    v_eps: float,
    gamma_off: bool = False,
) -> PriceBreakdown:
    """Assemble B0 -> theta -> M -> gamma -> C0 -> I's -> Greeks -> c1 -> price.

    ``gamma_off`` pins gamma = 1 (reported m_exponent is then 0.0), so with
    v_eps = 0 the result reduces to the plain Black-Scholes price. Within
    HORIZON_TOL of maturity both are forced, after v_eps is checked, and every
    price field is the terminal payoff. Component errors propagate with the
    failing stage prepended to the message.
    """
    if option.style is _FLOATING and option.kind is not _CALL:
        raise UnsupportedContract("floating-strike puts are not supported")
    T = option.maturity
    K = option.strike
    sigma = effective_vol(arc, state.t)  # MarketState holds a finite t >= 0
    if T - state.t < HORIZON_TOL:
        # the closed forms return the payoff here, which gamma and c1 leave alone
        _check_v_eps(v_eps)
        v_eps, gamma_off = 0.0, True
    b0, m, gamma, _, c1 = _first_order(
        option.style, option.kind, state, sigma, T, K, model, v_eps, gamma_off
    )
    c0 = gamma * b0
    # by position, as a named tuple built by keyword takes about twice as long
    return PriceBreakdown(
        float(b0), float(gamma), float(c0), float(c1), float(c0 + c1), float(m)
    )
