import math

import pytest
from hypothesis import given, settings, strategies as st

from geoasian import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    bs_fixed_call,
    bs_fixed_put,
    first_order_price,
    i_integrals_closed,
    i_integrals_quadrature,
    modification_factor,
)
from geoasian.calibration import regression_denominator
from geoasian.closedform import GreekSet
from geoasian.errors import (
    OutOfDomain,
    PricingError,
    SingularDenominator,
    SingularGamma,
    SingularIntegral,
    UnsupportedContract,
    VanishingPrice,
)
from geoasian.mc import reference_full_model
from geoasian.perturbation import SINGULARITY_TOL, c1_fixed, c1_floating, m_exponent

I_FIELDS = ("i0", "i1", "i2", "i3", "i4", "i5")

k_strategy = st.floats(min_value=0.2, max_value=4.0)
frac_strategy = st.floats(min_value=0.0, max_value=0.9)
m_strategy = st.floats(min_value=-3.0, max_value=3.0)

MODEL = reference_full_model(0.001)
LEVEL_ARC = VolArc(p_coef=0.0, q_coef=0.0, r_coef=0.1834)
ANCHOR = MarketState(t=0.0, x=100.0, g=100.0)
FLOAT_CALL = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL, maturity=0.45)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------- I integrals


@given(k=k_strategy, lo=frac_strategy, hi=frac_strategy)
@settings(max_examples=80, deadline=None)
def test_closed_matches_quadrature_below_pole(k, lo, hi):
    """Both routes agree to 1e-10 relative wherever k*T stays below 1."""
    t, T = sorted((lo, hi))
    t, T = 0.9 * t / k, 0.9 * T / k
    if T - t < 1e-6:
        return
    closed = i_integrals_closed(k, t, T)
    quad = i_integrals_quadrature(k, t, T)
    for f in I_FIELDS:
        a, b = getattr(closed, f), getattr(quad, f)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), f"{f}: {a} vs {b}"


@given(k=st.floats(min_value=0.1, max_value=4.0),
       kt=st.floats(min_value=0.0, max_value=2.5), kT=st.floats(min_value=0.0, max_value=2.5))
@settings(max_examples=200, deadline=None)
def test_closed_domain_lies_inside_the_quadrature_domain(k, kt, kT):
    """Wherever the closed route returns, the quadrature integrates the same
    window and agrees to 1e-10 relative, on both sides of SERIES_KT."""
    t, T = sorted((kt / k, kT / k))
    try:
        closed = i_integrals_closed(k, t, T)
    except PricingError:
        return
    quad = i_integrals_quadrature(k, t, T)
    for f in I_FIELDS:
        a, b = getattr(closed, f), getattr(quad, f)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), f"{f}: {a} vs {b}"


@pytest.mark.parametrize("k", [0.5, 1e-2, 1e-4, 1e-6, 1e-12, 1e-200, 5e-324])
def test_slow_speeds_keep_every_digit_of_the_integrals(k):
    """A slow mean reversion leaves kT small, where the antiderivatives cancel
    (at k = 1e-4 they give I3 = 6.99 for 0.00511, and divide by an underflowed
    k^2 at 1e-200); below SERIES_KT the series keeps the closed route within
    1e-11 of its oracle. gamma and D, functions of I0, keep 1e-13 of the
    values the oracle's I0 gives them: the log of the rounded ratio
    (2 - kT)/(2 - kt) missed by 5e-10 at k = 1e-6 and by 200% at 1e-200. At
    the least float k, k (T - t) underflows to 0 and the log term takes its
    limit."""
    t, T, m = 0.1, 0.45, -0.29
    closed = i_integrals_closed(k, t, T)
    quad = i_integrals_quadrature(k, t, T)
    for f in I_FIELDS:
        assert rel(getattr(closed, f), getattr(quad, f)) < 1e-11, f
    assert rel(math.log(modification_factor(k, t, T, m)), m * (T - t - quad.i0)) < 1e-13
    assert rel(regression_denominator(k, t, T), -quad.i0 / (2.0 * (T - t))) < 1e-13


def test_quadrature_values_at_boundary_pole():
    """k*T = 1 sits on the boundary where the integrand vanishes; the
    quadrature route covers it even though the closed form refuses."""
    ii = i_integrals_quadrature(2.0, 0.0, 0.5)
    assert rel(ii.i0, 0.19314718055994531) < 1e-12
    assert rel(ii.i1, 0.03972077083991796) < 1e-12
    assert rel(ii.i2, 0.011294361119890618) < 1e-12
    assert rel(ii.i3, 0.0037012847331966067) < 1e-12
    assert rel(ii.i4, 0.019860385419958982) < 1e-12
    assert rel(ii.i5, 0.007593076386694012) < 1e-12
    with pytest.raises(SingularIntegral):
        i_integrals_closed(2.0, 0.0, 0.5)


def test_combination_identities_against_direct_quadrature():
    """I4 = I2 - 2T I1 + T^2 I0 and the cubic analogue for I5: the quadrature
    route integrates the (T - tau)-weighted forms directly, so the match is a
    genuine two-route check."""
    k, t, T = 2.0, 0.05, 0.45
    c = i_integrals_closed(k, t, T)
    q = i_integrals_quadrature(k, t, T)
    assert rel(c.i4, q.i4) < 1e-10
    assert rel(c.i5, q.i5) < 1e-10
    assert abs(c.i4 - (c.i2 - 2 * T * c.i1 + T * T * c.i0)) < 1e-15
    assert abs(c.i5 - (-c.i3 + 3 * T * c.i2 - 3 * T * T * c.i1 + T ** 3 * c.i0)) < 1e-15


def test_empty_window_is_zero():
    for fn in (i_integrals_closed, i_integrals_quadrature):
        ii = fn(2.0, 0.3, 0.3)
        assert all(getattr(ii, f) == 0.0 for f in I_FIELDS)


def test_remembered_integrals_have_the_bits_of_a_fresh_evaluation():
    """The window cache shares one entry between an int and a float k, and between
    t = 0.0 and t = -0.0; every entry reads what an uncached call returns, bit for bit."""
    for k in (2, 2.0):
        for t in (0.0, -0.0, 0.1):
            cached = i_integrals_closed(k, t, 0.45)
            fresh = i_integrals_closed.__wrapped__(k, t, 0.45)
            for name in I_FIELDS:
                assert getattr(cached, name).hex() == getattr(fresh, name).hex(), (k, t, name)


def test_integral_domain_guards():
    with pytest.raises(SingularIntegral):
        i_integrals_closed(2.0, 0.55, 0.7)  # kt past 1
    with pytest.raises(SingularIntegral):
        i_integrals_closed(2.0, 0.0, 1.0)  # kT = 2
    with pytest.raises(SingularIntegral, match="kT = 1.4 not below 1 - tol"):
        i_integrals_closed(2.0, 0.1, 0.7)  # crossing k*tau = 1
    with pytest.raises(SingularIntegral):
        i_integrals_quadrature(2.0, 0.1, 0.7)  # the oracle refuses it too
    with pytest.raises(SingularIntegral):
        i_integrals_quadrature(2.0, 0.0, 0.75)  # crossing k*tau = 1
    with pytest.raises(SingularIntegral):
        i_integrals_quadrature(2.0, 0.6, 1.2)  # crossing k*tau = 2
    with pytest.raises(ValueError):
        i_integrals_closed(-1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        i_integrals_quadrature(2.0, 0.5, 0.4)
    # a window that starts before the origin
    for integrals in (i_integrals_closed, i_integrals_quadrature):
        with pytest.raises(OutOfDomain, match="t must be >= 0"):
            integrals(2.0, -0.3, 0.2)


# ------------------------------------------------------ modification factor


def test_gamma_frozen_value():
    assert rel(modification_factor(2.0, 0.0, 0.4, 1.0), 1.2492054504470735) < 1e-14


@given(k=k_strategy, T=st.floats(min_value=0.05, max_value=0.45), m=m_strategy)
def test_gamma_is_one_at_maturity(k, T, m):
    assert modification_factor(k, T, T, m) == 1.0


@given(k=k_strategy, T=st.floats(min_value=0.05, max_value=0.45))
def test_gamma_is_one_at_zero_exponent(k, T):
    assert modification_factor(k, 0.0, T, 0.0) == 1.0


def test_gamma_guards():
    with pytest.raises(SingularGamma):
        modification_factor(2.0, 1.0, 1.2, 0.5)
    with pytest.raises(SingularGamma):
        modification_factor(2.0, 0.9, 1.5, 0.5)
    with pytest.raises(ValueError):
        modification_factor(2.0, 0.6, 0.5, 0.5)
    with pytest.raises(ValueError, match="k must be > 0"):
        modification_factor(-2.0, 0.0, 0.4, 1.0)
    with pytest.raises(OutOfDomain, match="t must be >= 0"):
        modification_factor(2.0, -0.3, 0.2, 1.0)


def three_part_pole_rule(k, t, T):
    """(gamma refuses, D refuses) by the rules the two applied apart: 2 - kt or
    2 - kT within SINGULARITY_TOL of 0, or the ratio (gamma) or the product (D)
    of the two not positive."""
    wt, wT = 2.0 - k * t, 2.0 - k * T
    near = abs(wt) <= SINGULARITY_TOL or abs(wT) <= SINGULARITY_TOL
    return near or wT / wt <= 0.0, wt * wT <= 0.0 or near


def refused(fn, error, *args):
    """True when fn refuses the window as touching or crossing k tau = 2."""
    try:
        fn(*args)
    except error as exc:
        assert "touches or crosses" in str(exc), exc
        return True
    return False


@pytest.mark.parametrize("k", [1e-3, 0.37, 1.0, 2.0, 3.3, 7e5])
def test_gamma_and_d_refuse_the_double_pole_where_the_three_part_rule_does(k):
    """Windows whose kt and kT lie at and within 6 ulps of 2 - tol, 2 and
    2 + tol, crossings included, and a few far from them: gamma and D refuse
    each exactly where their three-part rule does."""
    ends = [0.0, 0.5 / k, 3.0 / k]
    for pole in (2.0 - SINGULARITY_TOL, 2.0, 2.0 + SINGULARITY_TOL):
        tau = pole / k
        for _ in range(6):
            tau = math.nextafter(tau, 0.0)
        for _ in range(13):
            ends.append(tau)
            tau = math.nextafter(tau, math.inf)
    windows = [(t, T) for t in ends for T in ends if t <= T]
    outcomes = set()
    for t, T in windows:
        gamma_rule, d_rule = three_part_pole_rule(k, t, T)
        assert refused(modification_factor, SingularGamma, k, t, T, 0.0) == gamma_rule, (t, T)
        if t < T:
            assert refused(regression_denominator, SingularDenominator, k, t, T) == d_rule, (t, T)
        outcomes.add((gamma_rule, abs(2.0 - k * T) <= 2 * SINGULARITY_TOL))
    # each outcome occurs with kT near the pole and with kT away from it
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_an_int_k_takes_the_bits_of_its_float():
    """The closed integrals form k^2 and k^3 as floats, so an int k gives its
    float's bits; at 10**200, whose square is past the float range, that was
    an OverflowError. The window cache does not key the type of k."""
    assert i_integrals_closed.cache_parameters()["typed"] is False
    for k, t, T in ((10**200, 0.0, 5e-201), (3, 0.0, 0.3), (2, 0.0, 0.05), (1, 0.2, 0.9)):
        as_int = i_integrals_closed.__wrapped__(k, t, T)
        as_float = i_integrals_closed.__wrapped__(float(k), t, T)
        assert [v.hex() for v in as_int] == [v.hex() for v in as_float], k
    assert i_integrals_closed(10**200, 0.0, 5e-201) == i_integrals_closed(1e200, 0.0, 5e-201)


def test_m_exponent():
    assert m_exponent(2.0, 1.0) == 0.5
    with pytest.raises(VanishingPrice):
        m_exponent(0.0, 1.0)
    with pytest.raises(VanishingPrice):
        m_exponent(1e-13, 1.0, price_floor=1e-10)


# ------------------------------------------------------- correction algebra


def test_c1_combinations():
    ii = i_integrals_closed(2.0, 0.0, 0.45)
    g = GreekSet(du1=-100.0, du2=2000.0, du3=12000.0, vega=17.0)
    want_float = -0.016 * (ii.i1 * -100.0 - 2.0 * ii.i2 * 2000.0 + ii.i3 * 12000.0)
    want_fixed = -0.016 * (ii.i4 * 2000.0 - ii.i5 * 12000.0)
    assert -0.016 * c1_floating(ii, g) == want_float
    assert -0.016 * c1_fixed(ii, g) == want_fixed


# ------------------------------------------------------- first-order price


def test_breakdown_frozen_floating():
    br = first_order_price(FLOAT_CALL, ANCHOR, LEVEL_ARC, MODEL, v_eps=-0.016)
    assert rel(br.b0, 3.19621025609878) < 1e-12
    assert abs(br.gamma - 1.0) < 1e-8  # floating theta is 0 at the window start
    assert rel(br.c1, -0.006880328265271829) < 1e-9
    assert rel(br.price_hat, 3.189329927988202) < 1e-9
    assert br.price_hat == br.c0 + br.c1


def test_breakdown_frozen_fixed_put():
    state = MarketState(t=0.1, x=100.0, g=102.0)
    arc = VolArc(p_coef=-0.03, q_coef=0.03, r_coef=0.19)
    opt = OptionSpec(style=StrikeStyle.FIXED, kind=OptionKind.PUT, maturity=0.45, strike=101.0)
    br = first_order_price(opt, state, arc, MODEL, v_eps=-0.016)
    assert rel(br.b0, 2.2027338720639307) < 1e-12
    assert rel(br.gamma, 0.47460442006007) < 1e-9
    assert rel(br.m_exponent, -3.531117300631146) < 1e-9
    assert rel(br.c1, 0.12347963362878858) < 1e-9
    assert rel(br.price_hat, 1.1689068655263628) < 1e-9


def test_zero_v_eps_drops_correction():
    br = first_order_price(FLOAT_CALL, ANCHOR, LEVEL_ARC, MODEL, v_eps=0.0)
    assert br.c1 == 0.0
    assert br.price_hat == br.c0


def test_gamma_off_reduces_to_plain_price():
    state = MarketState(t=0.1, x=100.0, g=102.0)
    br = first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=0.0, gamma_off=True)
    assert br.gamma == 1.0
    assert br.m_exponent == 0.0
    assert br.c0 == br.b0


def test_correction_is_linear_in_v_eps():
    state = MarketState(t=0.1, x=100.0, g=102.0)
    br1 = first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=-0.016)
    br2 = first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=-0.032)
    assert rel(br2.c1, 2.0 * br1.c1) < 1e-12
    assert br1.c0 == br2.c0


def test_terminal_branch_returns_payoff():
    state = MarketState(t=0.45 - 1e-12, x=100.0, g=96.0)
    br = first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=-0.016)
    assert abs(br.price_hat - 4.0) < 1e-6
    assert br.c1 == 0.0 and br.gamma == 1.0 and br.m_exponent == 0.0
    # the fixed call and put at strike 95: each field is the bs_* payoff
    sigma = LEVEL_ARC.r_coef
    for kind, bs, payoff in ((OptionKind.CALL, bs_fixed_call, 1.0),
                             (OptionKind.PUT, bs_fixed_put, 0.0)):
        option = OptionSpec(style=StrikeStyle.FIXED, kind=kind, maturity=0.45, strike=95.0)
        br = first_order_price(option, state, LEVEL_ARC, MODEL, v_eps=-0.016)
        want = bs(state, sigma, 0.45, 95.0, MODEL.r)
        assert abs(want - payoff) < 1e-6
        assert br.b0 == br.c0 == br.price_hat == want
        assert br.c1 == 0.0 and br.gamma == 1.0 and br.m_exponent == 0.0


def test_floating_put_unsupported():
    opt = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.PUT, maturity=0.45)
    with pytest.raises(UnsupportedContract):
        first_order_price(opt, ANCHOR, LEVEL_ARC, MODEL, v_eps=0.0)


def test_past_maturity_rejected():
    state = MarketState(t=0.5, x=100.0, g=100.0)
    with pytest.raises(ValueError):
        first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=0.0)


def test_stage_prefixes_identify_failing_component():
    arc = VolArc(p_coef=0.0, q_coef=0.0, r_coef=0.19)
    with pytest.raises(SingularGamma, match="^gamma:"):
        first_order_price(
            OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL, maturity=1.2),
            MarketState(t=1.0, x=100.0, g=102.0), arc, MODEL, v_eps=0.0,
        )
    with pytest.raises(VanishingPrice, match="^m_exponent:"):
        first_order_price(
            OptionSpec(style=StrikeStyle.FIXED, kind=OptionKind.CALL, maturity=0.45,
                       strike=1e9),
            ANCHOR, arc, MODEL, v_eps=0.0,
        )
    with pytest.raises(SingularIntegral, match="^i_integrals:"):
        first_order_price(
            OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL, maturity=0.7),
            MarketState(t=0.55, x=100.0, g=101.0), arc, MODEL, v_eps=-0.01,
        )


@given(
    mon=st.floats(min_value=0.97, max_value=1.03),
    t=st.floats(min_value=0.0, max_value=0.15),
)
@settings(max_examples=40, deadline=None)
def test_price_hat_reduces_smoothly(mon, t):
    """Inside the near-the-money early-window region where the expansion is
    designed to live, the correction stays a modest fraction of C0. Far from
    the money the u-derivatives outgrow the price and the bound fails, which
    is a property of the asymptotics, not of the code."""
    state = MarketState(t=t, x=100.0, g=100.0 * mon)
    br = first_order_price(FLOAT_CALL, state, LEVEL_ARC, MODEL, v_eps=-0.016)
    assert math.isfinite(br.price_hat)
    assert abs(br.c1) < 0.35 * max(abs(br.c0), 1e-2)


def test_model_params_reused_for_rate_and_k():
    """Only r and k enter the expansion; the slow-path fields do not."""
    other = ModelParams(
        r=MODEL.r, k=MODEL.k, alpha_prime=0.5, z0=0.3, epsilon=0.05,
        nu=0.1, beta=0.4, rho_xy=-0.1, rho_xz=0.1, rho_yz=0.05,
    )
    a = first_order_price(FLOAT_CALL, ANCHOR, LEVEL_ARC, MODEL, v_eps=-0.016)
    b = first_order_price(FLOAT_CALL, ANCHOR, LEVEL_ARC, other, v_eps=-0.016)
    assert a == b
