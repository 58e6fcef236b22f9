"""The asymptotic layer: modification factor, I-integrals, correction, full price.

The zeroth-order price is C0 = gamma(t) B0 where B0 is the closed-form
geometric-Asian Black-Scholes price and

    ln gamma = M (T - t - I0),

with M = (1/B0) dB0/dt and I0 the first of the I-integrals below. The
first-order correction applies the I-weighted u-derivative combinations

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
correction and the vega of each quote. This module alone decides which windows
(k, t, T) it takes: gamma, the I-integrals and the regressor's D = -I0 / (2 (T - t))
check them with one ``_check_window``, take I0 in one form from ``_i0`` (the series
serves only I1..I3), and gamma and D refuse the double pole with one comparison.

``i_integrals_closed`` depends on the window (k, t, T) alone and remembers
the last 128 windows it was asked, so the quotes of one smile cell share one
evaluation; a remembered result is bit-identical to recomputing it. It prices
a nonempty window only when kT < 1 - SINGULARITY_TOL, so that 1 + l(tau) is
positive on all of [t, T]; anything else raises SingularIntegral.

``i_integrals_quadrature`` integrates tau^n * 2(1 - k tau)/(2 - k tau)^2
adaptively and serves as the independent oracle for the closed forms. Its
domain holds the closed route's: it also integrates windows that end at
kT = 1 or lie beyond it, and refuses with SingularIntegral a window that the
pole k tau = 1 crosses or that the double pole k tau = 2 touches.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from scipy.integrate import quad

from .closedform import (
    _MAX_MATURITY,
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
    FLOAT_MAX,
    OutOfDomain,
    PricingError,
    SingularDenominator,
    SingularGamma,
    SingularIntegral,
    UnsupportedContract,
    VanishingPrice,
    require_finite,
)
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    effective_vol,
)

PRICE_FLOOR_FRACTION = 1e-12
DENOMINATOR_TOL = 1e-12
SINGULARITY_TOL = 1e-8
QUAD_ABS_TOL = 1e-12
# below this kT the antiderivatives of the I-integrals cancel to about 11
# digits or fewer (4 at kT = 5e-3, none at 5e-5), while the series, cut after
# SERIES_TERMS terms, leaves out less than x^SERIES_TERMS = 1e-18
# (x = kT / 2 < 0.1)
SERIES_KT = 0.2
SERIES_TERMS = 18
# the largest x whose exp(x) is a finite float
_LN_FLOAT_MAX = math.log(FLOAT_MAX)
# a window is off k tau = 2 when kT < _BELOW_POLE or kt > _ABOVE_POLE: bit for bit |2 - kt|,
# |2 - kT| > tol and 2 not in [kt, kT], as 2 - x is exact on [1, 4] and each bound rounds toward 2
_BELOW_POLE, _ABOVE_POLE = 2.0 - SINGULARITY_TOL, 2.0 + SINGULARITY_TOL

# an Enum member lookup costs about 100 ns, a global name a few; function
# bodies read these
_CALL = OptionKind.CALL
_FLOATING = StrikeStyle.FLOATING


def _check_window(k: float, t: float, T: float, m: float = 0.0) -> bool:
    """Refuse a window outside k > 0, 0 <= t <= T <= _MAX_MATURITY; True if empty.

    gamma, the I-integrals and D check with it. A NaN or infinite k, t, T or m
    raises NonFiniteInput before any range check.
    """
    if not (0.0 < k <= FLOAT_MAX and 0.0 <= t <= T <= _MAX_MATURITY
            and -FLOAT_MAX <= m <= FLOAT_MAX):
        require_finite(k=k, t=t, T=T, m=m)
        if not k > 0.0:
            raise OutOfDomain(f"k must be > 0, got {k}")
        if not t >= 0.0:
            raise OutOfDomain(f"t must be >= 0, got {t}")
        if T > _MAX_MATURITY:
            raise OutOfDomain(f"T must be <= {_MAX_MATURITY:g}, got {T}")
        raise OutOfDomain(f"t = {t} exceeds T = {T}")
    return t == T


def modification_factor(k: float, t: float, T: float, m: float) -> float:
    """gamma(t) = exp(m (T - t - I0)) in log space; equals 1 at t = T and at m = 0.
    A window that touches or crosses k tau = 2, and a log factor too large for a
    float to hold its exponential, raise SingularGamma."""
    _check_window(k, t, T, m)
    if not (k * T < _BELOW_POLE or k * t > _ABOVE_POLE):
        raise SingularGamma(f"the window kt = {k * t}, kT = {k * T} touches or crosses 2")
    ln_gamma = m * ((T - t) - _i0(k, t, T)[0])
    if not ln_gamma <= _LN_FLOAT_MAX:
        raise SingularGamma(f"ln gamma = {ln_gamma} overflows a float")
    return math.exp(ln_gamma)


def regression_denominator(k: float, t: float, T: float) -> float:
    """D = -I0 / (2 (T - t)) of the regressor, for k > 0 and 0 <= t < T; a
    window that touches or crosses k tau = 2 raises SingularDenominator."""
    if _check_window(k, t, T):
        raise OutOfDomain(f"D needs t < T, got the empty window t = T = {T}")
    if not (k * T < _BELOW_POLE or k * t > _ABOVE_POLE):
        raise SingularDenominator(f"the window kt = {k * t}, kT = {k * T} touches or crosses 2")
    d = -_i0(k, t, T)[0] / (2.0 * (T - t))
    if abs(d) < DENOMINATOR_TOL:
        raise SingularDenominator(f"|D| = {abs(d)} below {DENOMINATOR_TOL}")
    return d


def _i0(k: float, t: float, T: float) -> tuple[float, float, float]:
    """(I0, log term, pole) of a window whose ratio (2 - kT)/(2 - kt) the caller
    keeps off 0: the log term (1/k) ln((2 - kT)/(2 - kt)), the pole
    (T - t)/((2 - kT)(2 - kt)) and I0 = -2 (log term + pole), in one form at
    every speed. With a = -(T - t)/(2 - kt) the ratio is 1 + k a, and the log
    term a log1p(k a)/(k a) loses no digit of a small k (T - t) to a rounded
    ratio; a k a that underflows leaves the limit a."""
    wt = 2.0 - k * t
    a = (t - T) / wt
    z = k * a
    log_term = a * (math.log1p(z) / z) if z else a
    pole = (T - t) / ((2.0 - k * T) * wt)
    return -2.0 * (log_term + pole), log_term, pole


def m_exponent(b0: float, theta_b0: float, price_floor: float = 0.0) -> float:
    """M = theta_b0 / b0; raises VanishingPrice when |b0| <= price_floor."""
    if abs(b0) <= price_floor or b0 == 0.0:
        raise VanishingPrice(f"|b0| = {abs(b0)} at or below floor {price_floor}")
    return theta_b0 / b0


def _check_v_eps(v_eps: float) -> None:
    """Refuse a NaN or infinite group parameter v_eps = sqrt(epsilon) * V."""
    if not -FLOAT_MAX <= v_eps <= FLOAT_MAX:
        require_finite(v_eps=v_eps)


class IIntegrals(NamedTuple):
    i0: float
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float


@functools.lru_cache(maxsize=128)
def i_integrals_closed(k: float, t: float, T: float) -> IIntegrals:
    """Closed-form I0..I5; I4 and I5 via the combination identities.

    I0 = -(2/k) [ ln((2-kT)/(2-kt)) + k (T-t) / ((2-kT)(2-kt)) ], in one form at
    every speed, gives ln gamma = M (T - t - I0). I1..I3, antiderivatives of
    tau^n 2(1 - k tau)/(2 - k tau)^2 like it, are summed as a power series in
    kT below SERIES_KT; all are pinned against ``i_integrals_quadrature`` in
    the tests. A nonempty window needs kT < 1 - SINGULARITY_TOL, which t <= T
    extends to all of it, or raises SingularIntegral. The last 128 windows
    are remembered; errors are not.
    """
    if _check_window(k, t, T):
        return IIntegrals(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    kT = k * T
    if kT >= 1.0 - SINGULARITY_TOL:
        raise SingularIntegral(f"kT = {kT} not below 1 - tol")
    i0, log_term, pole = _i0(k, t, T)
    i1, i2, i3 = _i_series(k, t, T) if kT < SERIES_KT else _i_logs(k, t, T, log_term, pole)
    i4 = i2 - 2.0 * T * i1 + T * T * i0
    i5 = -i3 + 3.0 * T * i2 - 3.0 * T * T * i1 + T ** 3 * i0
    return IIntegrals(i0, i1, i2, i3, i4, i5)


def _i_logs(
    k: float, t: float, T: float, log_term: float, pole: float
) -> tuple[float, float, float]:
    """I1..I3 from their antiderivatives and the window's log term and pole
    from ``_i0``, for SERIES_KT <= kT < 1."""
    d1, d2, d3 = T - t, T * T - t * t, T ** 3 - t ** 3
    k2 = float(k) * k  # float products, for an int k too: past the float range inf
    k3 = k2 * k
    i1 = -4.0 * pole / k - 2.0 * d1 / k - 6.0 * log_term / k
    i2 = -8.0 * pole / k2 - d2 / k - 6.0 * d1 / k2 - 16.0 * log_term / k2
    i3 = (-16.0 * pole / k3 - (2.0 / 3.0) * d3 / k - 3.0 * d2 / k2 - 16.0 * d1 / k3
          - 40.0 * log_term / k3)
    return i1, i2, i3


def _i_series(k: float, t: float, T: float) -> tuple[float, float, float]:
    """I1..I3 from the power series of the weight, for kT < SERIES_KT.

    The weight is (1/2) sum_j (1 - j) (k tau / 2)^j, so with x = kT / 2,
    s = t / T and g_m = 1 + s + ... + s^(m-1), for which T^m - t^m =
    (T - t) T^(m-1) g_m,

        I_n = (1/2) (T - t) T^n sum_j (1 - j) x^j g_(n+j+1) / (n + j + 1).

    Every term after the first is below x^2 of it, so none cancels it.
    """
    x = 0.5 * k * T
    s = t / T
    g = list(itertools.accumulate((s ** i for i in range(SERIES_TERMS + 3)), initial=0.0))
    return tuple(
        0.5 * (T - t) * T ** n
        * sum((1 - j) * x ** j * g[n + j + 1] / (n + j + 1) for j in range(SERIES_TERMS))
        for n in range(1, 4)
    )


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
        raise SingularIntegral(f"integrand pole k*tau = 1 inside [{t}, {T}]")
    if not (kT < _BELOW_POLE or kt > _ABOVE_POLE):
        raise SingularIntegral(f"double pole k*tau = 2 touches [{t}, {T}]")

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
) -> tuple[float, float, float, IIntegrals | None, GreekSet | None, float]:
    """The first-order chain B0 -> theta -> M -> gamma -> I's -> Greeks -> c1.

    Returns (b0, m, gamma, ii, greeks, c1): gamma_off pins gamma = 1 and
    m = 0 without computing theta, v_eps = 0 skips the I-integrals and the
    Greeks (ii and greeks None, c1 0), and a non-finite v_eps raises
    NonFiniteInput after them. Calibration passes v_eps = 1 for the unit
    correction and takes D from ii. A floating strike is priced as a call:
    ``first_order_price`` refuses the put first. Component errors carry the
    failing stage in their message.
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
            return b0, m, gamma, None, None, 0.0
        stage = "i_integrals"
        ii = i_integrals_closed(model.k, state.t, T)
        stage = "greeks"
        greeks = greeks_fn(state, sigma, T, *strike, model.r, gamma_factor=gamma)
    except PricingError as exc:
        raise type(exc)(f"{stage}: {exc}") from None
    _check_v_eps(v_eps)
    return b0, m, gamma, ii, greeks, v_eps * c1_fn(ii, greeks)


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
    failing stage prepended to the message, and a price that overflows a
    float raises OutOfDomain.
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
    b0, m, gamma, _, _, c1 = _first_order(
        option.style, option.kind, state, sigma, T, K, model, v_eps, gamma_off
    )
    c0 = gamma * b0
    price_hat = c0 + c1
    if not -math.inf < price_hat < math.inf:
        raise OutOfDomain(f"price_hat = {price_hat} is not finite: c0 = {c0}, c1 = {c1}")
    # by position, as a named tuple built by keyword takes about twice as long
    return PriceBreakdown(
        float(b0), float(gamma), float(c0), float(c1), float(price_hat), float(m)
    )
