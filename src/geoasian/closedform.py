"""Black-Scholes closed forms for continuous geometric Asian options.

This is the B0 layer: prices, u-derivatives, vegas, and theta of the
constant-volatility geometric-average option in the (s, u) state,

    s = ln x,   u = t ln(g / x).

Floating call:  B0 = e^s [N(d1) - e^{u/T - Q} N(d2)]
Fixed call:     B0 = e^{s + u/T - Q} N(d1_hat) - K e^{-r(T-t)} N(d2_hat)
Fixed put:      B0 = K e^{-r(T-t)} N(-d2_hat) - e^{s + u/T - Q} N(-d1_hat)

with the drift adjustment

    Q = (r + sigma^2/2)(T^2 - t^2)/(2T) - sigma^2 (T^3 - t^3)/(6 T^2).

The modification factor gamma multiplies B0 and is independent of (u, sigma),
so Greeks of the modified price are gamma times the B0 Greeks; callers pass
``gamma_factor`` accordingly. Theta is a separate function, ``b0_theta``, at
the plain B0 level: it feeds M = theta/B0, where gamma cancels, and the
pricing chain in ``perturbation`` calls it once per contract.

Every derivative formula here, theta included, is the differentiated closed
form; the test suite holds each one to central finite differences. Every
price, Greek and theta refuses a NaN or infinite float input with
NonFiniteInput, and a sigma outside [1e-100, 1e40] or an exponential that
overflows a float with OutOfDomain.

B0, theta and the Greeks of one contract share its d-terms, E, discount (or
e^s), normal CDFs and density. ``_contract_terms`` computes them under a
one-entry ``functools.lru_cache``, so the chain's three calls per contract
compute them once; every result is bit-identical to recomputing them. Each
public function still runs its own input checks.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from scipy.special import erfc

from .errors import (
    DegenerateHorizon,
    NonPositiveStrike,
    OutOfDomain,
    UnsupportedContract,
    require_finite,
)
from .model import MarketState, OptionKind, StrikeStyle

HORIZON_TOL = 1e-9
# the longest maturity taken; the I-integrals' T^4-sized terms overflow from about 1e77
_MAX_MATURITY = 1e75
# the sigmas taken: above the top, sigma T^3 or sigma^2 T^3 overflows at the
# longest maturity; below the floor, kappa^2 = sigma^2 (T - t)^3 / 3 leaves
# the normal floats within HORIZON_TOL of it
_SIGMA_MIN, _SIGMA_MAX = 1e-100, 1e40

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# an Enum member lookup costs about 100 ns, a global name a few; function
# bodies read these
_CALL = OptionKind.CALL
_PUT = OptionKind.PUT
_FLOATING = StrikeStyle.FLOATING


def _ncdf(x: float) -> float:
    # scipy's erfc, not math.erfc, whose last bits differ; float() keeps numpy
    # scalars out of the outputs, and halving after it is exact
    return 0.5 * float(erfc(-x / _SQRT2))


def _npdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


class GreekSet(NamedTuple):
    """u-derivatives and vega of gamma * B0.

    Every field includes the caller's gamma_factor. Theta is not here: the
    chain needs it at the plain B0 level, from ``b0_theta``.
    """

    du1: float
    du2: float
    du3: float
    vega: float


def _check_contract(t: float, sigma: float, T: float, K: float | None, r: float) -> bool:
    """Refuse inputs no closed form takes; True when T - t is below HORIZON_TOL.

    K None is the floating call. A NaN or infinite sigma, T, K or r raises
    NonFiniteInput before any range check; T = 0 leaves no average to take,
    and a T beyond _MAX_MATURITY or a sigma outside [_SIGMA_MIN, _SIGMA_MAX]
    would overflow the formulas or divide by 0.
    """
    if not (
        _SIGMA_MIN <= sigma <= _SIGMA_MAX
        and t <= T <= _MAX_MATURITY
        and T > 0.0
        and -math.inf < r < math.inf
        and (K is None or 0.0 < K < math.inf)
    ):
        require_finite(sigma=sigma, T=T, K=K, r=r)
        if not sigma > 0.0:
            raise OutOfDomain(f"sigma must be > 0, got {sigma}")
        if not _SIGMA_MIN <= sigma <= _SIGMA_MAX:
            raise OutOfDomain(f"sigma must be in [{_SIGMA_MIN:g}, {_SIGMA_MAX:g}], got {sigma}")
        if K is not None and not K > 0.0:
            raise NonPositiveStrike(f"K must be > 0, got {K}")
        if T > _MAX_MATURITY:
            raise OutOfDomain(f"T must be <= {_MAX_MATURITY:g}, got {T}")
        if t <= T:
            raise OutOfDomain(f"T must be > 0, got {T}")
        raise DegenerateHorizon(f"t = {t} exceeds maturity T = {T}")
    return T - t < HORIZON_TOL


def q_drift_term(sigma: float, t: float, T: float, r: float) -> float:
    """Drift adjustment Q entering e^{s + u/T - Q}."""
    return (r + sigma * sigma / 2.0) * (T * T - t * t) / (2.0 * T) - (
        sigma * sigma / (6.0 * T * T)
    ) * (T ** 3 - t ** 3)


def _d_terms(
    s: float, u: float, t: float, T: float, K: float | None, sigma: float, r: float
) -> tuple[float, float, float, float]:
    """(d1, d2, root, Q) of the floating call (K None) or of the fixed strike K.

    root is the square root in the standard deviation of the d-terms:
    sqrt((T^3 - t^3)/3) floating, sqrt((T - t)^3/3) fixed. The floating
    d-terms do not depend on s.
    """
    if K is None:
        root = math.sqrt((T ** 3 - t ** 3) / 3.0)
        d1 = (-u + (r + sigma * sigma / 2.0) * (T * T - t * t) / 2.0) / (sigma * root)
        d2 = d1 - (sigma / T) * root
    else:
        tau = T - t
        root = math.sqrt(tau ** 3 / 3.0)
        gap = (sigma / T) * root
        d2 = (u / T + s - math.log(K) + (r - sigma * sigma / 2.0) * tau * tau / (2.0 * T)) / gap
        d1 = d2 + gap
    return d1, d2, root, q_drift_term(sigma, t, T, r)


@functools.lru_cache(maxsize=1)
def _contract_terms(
    s: float, u: float, t: float, T: float, K: float | None, sigma: float, r: float, put: bool
) -> tuple[float, float, float, float, float, float, float, float]:
    """(d1, d2, root, E, lead, n1, n2, phi) of the floating call (K None) or of
    the fixed call or put (put True) at K.

    E = e^{s + u/T - Q}. Floating: lead = e^s, n1 = N(d1), n2 = N(d2),
    phi = phi(d2). Fixed: lead = K e^{-r(T-t)}, phi = phi(d1), and n1, n2 are
    N(d1), N(d2) for the call and N(-d1), N(-d2) for the put. The chain asks
    for B0, theta and the Greeks of one contract in a row, so the cache keeps
    one contract's terms and the second and third calls return its bits. An
    E or discount past the float range (r < 0 at a long T) raises OutOfDomain.
    """
    d1, d2, root, q = _d_terms(s, u, t, T, K, sigma, r)
    try:
        E = math.exp(s + u / T - q)
        if K is None:
            return d1, d2, root, E, math.exp(s), _ncdf(d1), _ncdf(d2), _npdf(d2)
        n1, n2 = (_ncdf(-d1), _ncdf(-d2)) if put else (_ncdf(d1), _ncdf(d2))
        return d1, d2, root, E, K * math.exp(-r * (T - t)), n1, n2, _npdf(d1)
    except OverflowError:
        raise OutOfDomain(f"E or K e^(-r (T - t)) overflows a float at T = {T}, r = {r}") from None


# scalar cores: _bs adds the input checks; the tests' finite-difference
# theta probes them in t at fixed s, u, sigma


def _b0_floating_call(s: float, u: float, t: float, T: float, sigma: float, r: float) -> float:
    _, _, _, E, lead, n1, n2, _ = _contract_terms(s, u, t, T, None, sigma, r, False)
    return lead * n1 - E * n2


def _b0_fixed_call(
    s: float, u: float, t: float, T: float, K: float, sigma: float, r: float
) -> float:
    _, _, _, E, lead, n1, n2, _ = _contract_terms(s, u, t, T, K, sigma, r, False)
    return E * n1 - lead * n2


def _b0_fixed_put(
    s: float, u: float, t: float, T: float, K: float, sigma: float, r: float
) -> float:
    _, _, _, E, lead, n1, n2, _ = _contract_terms(s, u, t, T, K, sigma, r, True)
    return lead * n2 - E * n1


def _bs(
    kind: OptionKind, state: MarketState, sigma: float, T: float, K: float | None, r: float
) -> float:
    """B0 of the floating call (K None) or of the fixed call or put; within
    HORIZON_TOL of maturity, the contract's terminal payoff."""
    s, u, t = state.s, state.u, state.t
    if _check_contract(t, sigma, T, K, r):
        x, g = math.exp(s), math.exp(s + u / T)
        if K is None:
            return max(x - g, 0.0)
        return max(g - K, 0.0) if kind is _CALL else max(K - g, 0.0)
    if K is None:
        return _b0_floating_call(s, u, t, T, sigma, r)
    if kind is _CALL:
        return _b0_fixed_call(s, u, t, T, K, sigma, r)
    return _b0_fixed_put(s, u, t, T, K, sigma, r)


def bs_floating_call(state: MarketState, sigma: float, T: float, r: float) -> float:
    """Floating-strike geometric Asian call under constant volatility.

    Within horizon_tol of maturity the terminal payoff
    e^s max(1 - e^{u/T}, 0) is returned instead of the formula.
    """
    return _bs(_CALL, state, sigma, T, None, r)


def bs_fixed_call(state: MarketState, sigma: float, T: float, K: float, r: float) -> float:
    """Fixed-strike geometric Asian call under constant volatility."""
    return _bs(_CALL, state, sigma, T, K, r)


def bs_fixed_put(state: MarketState, sigma: float, T: float, K: float, r: float) -> float:
    """Fixed-strike geometric Asian put by its direct formula.

    Put-call parity gives the same price in exact arithmetic, but out of the
    money its difference of two large terms loses the small put price.
    """
    return _bs(_PUT, state, sigma, T, K, r)


def _greeks(
    state: MarketState,
    sigma: float,
    T: float,
    K: float | None,
    r: float,
    kind: OptionKind,
    gamma_factor: float,
) -> GreekSet:
    """GreekSet of the floating call (K None) or of the fixed call or put.

    The floating call's u-derivatives are the fixed put's at d1 = -d2, to the
    bit. Its vega forms the same dQ/dsigma term in another order of
    operations, which this keeps: the fixed order moves it by up to 2 ULP.
    """
    t, u, s = state.t, state.u, state.s
    if _check_contract(t, sigma, T, K, r):
        raise DegenerateHorizon(f"T - t = {T - t} below {HORIZON_TOL}")
    if not -math.inf < gamma_factor < math.inf:
        require_finite(gamma_factor=gamma_factor)
    put = kind is not _CALL
    d1, d2, root, E, _, n1, n2, pdf = _contract_terms(s, u, t, T, K, sigma, r, put)
    if K is None:
        # floating: d1 = -d2, phi(-d2) = phi(d2) and N(-1.0 * -d2) = N(d2)
        d1, sign, cdf = -d2, -1.0, n2
    else:
        # fixed: N(sign * d1) is the call's N(d1) or the put's N(-d1)
        sign, cdf = (-1.0 if put else 1.0), n1
    tau = T - t
    kappa = sigma * root
    du1 = sign * (E / T) * cdf
    du2 = (du1 + E * pdf / kappa) / T
    du3 = (du2 + E * (pdf / (T * kappa) - d1 * pdf / (kappa * kappa))) / T
    if K is None:
        dq_term = sigma * tau ** 2 * (T + 2.0 * t) * cdf / (6.0 * T * T)
    else:
        dq_term = sigma * tau * tau * (T + 2.0 * t) / (6.0 * T * T) * cdf
    vega = E * (root * pdf / T - sign * dq_term)
    # by position: a named tuple built by keyword takes about twice as long
    return GreekSet(gamma_factor * du1, gamma_factor * du2, gamma_factor * du3,
                    gamma_factor * vega)


def greeks_floating_call(
    state: MarketState,
    sigma: float,
    T: float,
    r: float,
    gamma_factor: float = 1.0,
) -> GreekSet:
    """u-derivatives and vega of gamma * B0 for the floating call.

    du1 = -gamma (e^{s + u/T - Q}/T) N(d2); the higher derivatives follow the
    recursion with divisor kappa = sigma sqrt((T^3 - t^3)/3), and

    vega = gamma e^{s + u/T - Q} [ sqrt((T^3 - t^3)/3) phi(d2)/T
           + sigma (T - t)^2 (T + 2t) N(d2) / (6 T^2) ].
    """
    return _greeks(state, sigma, T, None, r, _CALL, gamma_factor)


def greeks_fixed_put(
    state: MarketState,
    sigma: float,
    T: float,
    K: float,
    r: float,
    gamma_factor: float = 1.0,
) -> GreekSet:
    """u-derivatives and vega of gamma * B0 for the fixed-strike put.

    du1 = -gamma (e^{s + u/T - Q}/T) N(-d1_hat); recursion divisor
    kappa = sigma sqrt((T - t)^3 / 3). The put vega is strictly positive.
    """
    return _greeks(state, sigma, T, K, r, _PUT, gamma_factor)


def greeks_fixed_call(
    state: MarketState,
    sigma: float,
    T: float,
    K: float,
    r: float,
    gamma_factor: float = 1.0,
) -> GreekSet:
    """Fixed-strike call Greeks; the call vega can be negative."""
    return _greeks(state, sigma, T, K, r, _CALL, gamma_factor)


def b0_theta(
    style: StrikeStyle,
    state: MarketState,
    sigma: float,
    T: float,
    r: float,
    K: float | None = None,
    kind: OptionKind = OptionKind.CALL,
) -> float:
    """dB0/dt at fixed (s, u, sigma), by the differentiated closed form.

    With Qdot = dQ/dt and gap_dot the t-derivative of the d-term gap,
    floating call:  E [phi(d2) gap_dot + N(d2) Qdot],
    fixed call:     E [phi(d1) gap_dot - Qdot N(d1)] - r K e^{-r(T-t)} N(d2),
    fixed put:      r K e^{-r(T-t)} N(-d2) + Qdot E N(-d1) + E phi(d1) gap_dot,
    where E = e^{s + u/T - Q}.
    """
    t, s, u = state.t, state.s, state.u
    if style is _FLOATING:
        if kind is not _CALL:
            raise UnsupportedContract("floating-strike puts are not supported")
        K = None
    elif K is None:
        raise NonPositiveStrike(f"fixed style requires K > 0, got {K}")
    if _check_contract(t, sigma, T, K, r):
        raise DegenerateHorizon(f"T - t = {T - t} below {HORIZON_TOL}")
    qdot = -(r + sigma * sigma / 2.0) * t / T + sigma * sigma * t * t / (2.0 * T * T)
    put = kind is not _CALL
    _, _, root, E, lead, n1, n2, phi = _contract_terms(s, u, t, T, K, sigma, r, put)
    if K is None:
        gap_dot = -sigma * t * t / (2.0 * T * root)
        return E * (phi * gap_dot + n2 * qdot)
    tau = T - t
    gap_dot = -(sigma / T) * tau * tau / (2.0 * root)
    if put:
        return r * lead * n2 + qdot * E * n1 + E * phi * gap_dot
    return E * (phi * gap_dot - qdot * n1) - r * lead * n2
