"""The first-order chain: one sequence of the public pieces for pricing and calibration."""

import dataclasses
import hashlib
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import geoasian
from geoasian import (
    ConstantVol,
    MarketState,
    McConfig,
    OptionKind,
    OptionSpec,
    QuoteRow,
    QuoteStyle,
    StrikeStyle,
    arc_from_ou,
    bs_fixed_call,
    bs_fixed_put,
    bs_floating_call,
    calibration,
    closedform,
    first_order_price,
    greeks_fixed_call,
    greeks_fixed_put,
    greeks_floating_call,
    i_integrals_closed,
    i_integrals_quadrature,
    modification_factor,
    perturbation,
    reference_full_model,
    simulate_paths,
)
from geoasian.calibration import (
    RegressionFit,
    ols_fit,
    regression_denominator,
    regression_row,
    v_from_fit,
)
from geoasian.closedform import GreekSet, b0_theta
from geoasian.errors import NonFiniteInput, PricingError
from geoasian.model import ModelParams, VolArc
from geoasian.model import effective_vol
from geoasian.perturbation import (
    IIntegrals,
    PriceBreakdown,
    c1_fixed,
    c1_floating,
    m_exponent,
)
from perfbench.tracing import Stats, Tracer
from perfbench.workloads import book_ops, make_book

MODEL = reference_full_model(0.001)
ARC = arc_from_ou(MODEL.k, 0.20, 0.1834)
STATE = MarketState(t=0.12, x=100.0, g=101.3)
T = 0.41
K = 101.0
V_EPS = -0.016

# style, kind, strike, and the contract's B0, Greeks and c1 functions
CONTRACTS = [
    (StrikeStyle.FLOATING, OptionKind.CALL, None,
     bs_floating_call, greeks_floating_call, c1_floating),
    (StrikeStyle.FIXED, OptionKind.CALL, K, bs_fixed_call, greeks_fixed_call, c1_fixed),
    (StrikeStyle.FIXED, OptionKind.PUT, K, bs_fixed_put, greeks_fixed_put, c1_fixed),
]


def by_hand(style, kind, strike, bs, greeks_fn, c1_fn, state, maturity, v_eps):
    """The chain written out from the public pieces: (b0, m, gamma, greeks, c1)."""
    sigma = effective_vol(ARC, state.t)
    args = () if strike is None else (strike,)
    b0 = bs(state, sigma, maturity, *args, MODEL.r)
    theta = b0_theta(style, state, sigma, maturity, MODEL.r, K=strike, kind=kind)
    m = m_exponent(b0, theta)
    gamma = modification_factor(MODEL.k, state.t, maturity, m)
    ii = i_integrals_closed(MODEL.k, state.t, maturity)
    greeks = greeks_fn(state, sigma, maturity, *args, MODEL.r, gamma_factor=gamma)
    return b0, m, gamma, greeks, v_eps * c1_fn(ii, greeks)


@pytest.fixture
def theta_calls(monkeypatch):
    """Counts b0_theta calls through every module that holds the function."""
    calls = []
    original = closedform.b0_theta

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (closedform, perturbation, calibration):
        if getattr(module, "b0_theta", None) is original:
            monkeypatch.setattr(module, "b0_theta", counted)
    return calls


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: f"{c[0].value}-{c[1].value}")
def test_first_order_price_is_the_chain(contract):
    style, kind, strike, *_ = contract
    b0, m, gamma, _, c1 = by_hand(*contract, STATE, T, V_EPS)
    option = OptionSpec(style, kind, T, strike)
    want = PriceBreakdown(b0=b0, gamma=gamma, c0=gamma * b0, c1=c1,
                          price_hat=gamma * b0 + c1, m_exponent=m)
    assert first_order_price(option, STATE, ARC, MODEL, V_EPS) == want


@pytest.mark.parametrize("style", list(QuoteStyle))
def test_regression_row_is_the_chain(style):
    floating = style is QuoteStyle.FLOATING_CALL
    contract = CONTRACTS[0] if floating else CONTRACTS[2]
    strike = None if floating else K
    quote = QuoteRow(t=STATE.t, T=T, spot=STATE.x, avg=STATE.g, strike=strike, style=style,
                     implied_vol=0.19)
    *_, greeks, c1_unit = by_hand(*contract, STATE, T, 1.0)
    sigma = effective_vol(ARC, STATE.t)
    x = MODEL.r * sigma * c1_unit / regression_denominator(MODEL.k, STATE.t, T)
    y = (quote.implied_vol - sigma) * greeks.vega
    assert regression_row(quote, ARC, MODEL) == (x, y)


@pytest.mark.parametrize("k", [2.5, 2.0, 1.0, 0.5, 1e-2, 1e-6, 1e-12, 1e-200])
def test_window_terms_agree_across_modules(k):
    """gamma and D are functions of I0: D = -I0 / (2 (T - t)) and
    ln gamma = m (T - t - I0). Both hold within 1e-13 relative of these with
    I0 from the quadrature oracle, at the slow speeds too, where the log of
    the rounded ratio (2 - kT)/(2 - kt) lost their digits (at k = 1e-200, D
    came out +0.25 for -0.25)."""
    if k >= 0.5:
        windows = [(kt / k, kT / k) for kt in (0.0, 0.3, 0.6, 0.9)
                   for kT in (0.1, 0.35, 0.62, 0.8, 0.97) if kT > kt]
    else:
        windows = [(0.0, 0.45), (0.1, 0.45), (0.3, 0.31), (2.0, 40.0)]
    for t, T in windows:
        i0 = i_integrals_quadrature(k, t, T).i0
        assert regression_denominator(k, t, T) == pytest.approx(-i0 / (2.0 * (T - t)),
                                                                rel=1e-13, abs=0.0), (t, T)
        for m in (-3.0, -0.4, 0.7, 2.5):
            ln_gamma = math.log(modification_factor(k, t, T, m))
            assert ln_gamma == pytest.approx(m * (T - t - i0), rel=1e-13, abs=0.0), (t, T, m)


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: f"{c[0].value}-{c[1].value}")
def test_one_theta_per_price(theta_calls, contract):
    style, kind, strike, *_ = contract
    first_order_price(OptionSpec(style, kind, T, strike), STATE, ARC, MODEL, V_EPS)
    assert theta_calls == [style]


def test_one_theta_per_regression_row(theta_calls):
    quote = QuoteRow(t=STATE.t, T=T, spot=STATE.x, avg=STATE.g, strike=K,
                     style=QuoteStyle.FIXED_PUT, implied_vol=0.19)
    regression_row(quote, ARC, MODEL)
    assert theta_calls == [StrikeStyle.FIXED]


def test_traced_chain_records_every_layer_span():
    """The traced benchmark replaces the module attributes the chain calls, so
    every layer it times must be reached through them."""
    tracer = Tracer()
    with tracer.install():
        for style, kind, strike, *_ in CONTRACTS:
            perturbation.first_order_price(OptionSpec(style, kind, T, strike), STATE, ARC, MODEL,
                                           V_EPS)
        quote = QuoteRow(t=STATE.t, T=T, spot=STATE.x, avg=STATE.g, strike=K,
                         style=QuoteStyle.FIXED_PUT, implied_vol=0.19)
        calibration.regression_row(quote, ARC, MODEL)
    stats = Stats(tracer.spans)
    for name in ("closedform.b0", "closedform.b0_theta", "closedform.greeks",
                 "perturbation.i_integrals_closed", "perturbation.modification_factor"):
        assert stats.count.get(name, 0) == len(CONTRACTS) + 1, name
    assert stats.nested("closedform.b0_theta", "perturbation.first_order_price") == len(CONTRACTS)


# each analytic function, its other arguments, and its float arguments at a
# finite point that it prices
SIGMA = effective_vol(ARC, STATE.t)
ANALYTIC = [
    (bs_floating_call, dict(state=STATE), dict(sigma=SIGMA, T=T, r=MODEL.r)),
    (bs_fixed_call, dict(state=STATE), dict(sigma=SIGMA, T=T, K=K, r=MODEL.r)),
    (bs_fixed_put, dict(state=STATE), dict(sigma=SIGMA, T=T, K=K, r=MODEL.r)),
    (greeks_floating_call, dict(state=STATE),
     dict(sigma=SIGMA, T=T, r=MODEL.r, gamma_factor=0.9)),
    (greeks_fixed_call, dict(state=STATE),
     dict(sigma=SIGMA, T=T, K=K, r=MODEL.r, gamma_factor=0.9)),
    (greeks_fixed_put, dict(state=STATE),
     dict(sigma=SIGMA, T=T, K=K, r=MODEL.r, gamma_factor=0.9)),
    (b0_theta, dict(style=StrikeStyle.FIXED, state=STATE, kind=OptionKind.PUT),
     dict(sigma=SIGMA, T=T, r=MODEL.r, K=K)),
    (modification_factor, {}, dict(k=MODEL.k, t=STATE.t, T=T, m=-0.3)),
    (i_integrals_closed, {}, dict(k=MODEL.k, t=STATE.t, T=T)),
    (i_integrals_quadrature, {}, dict(k=MODEL.k, t=STATE.t, T=T)),
]
# each record and Monte Carlo entry point the chain and the oracle build, its
# other arguments, and its float arguments at a finite point that it takes
ENTRY_POINTS = [
    (MarketState, {}, dict(t=STATE.t, x=STATE.x, g=STATE.g)),
    (OptionSpec, dict(style=StrikeStyle.FIXED, kind=OptionKind.PUT), dict(maturity=T, strike=K)),
    (VolArc, {}, dict(p_coef=ARC.p_coef, q_coef=ARC.q_coef, r_coef=ARC.r_coef,
                      sigma_min=ARC.sigma_min)),
    (arc_from_ou, {}, dict(k=MODEL.k, alpha_prime=0.20, z0=0.1834, sigma_min=1e-4)),
    (ConstantVol, {}, dict(sigma=SIGMA)),
    (simulate_paths, dict(model=MODEL, vol=ConstantVol(SIGMA), cfg=McConfig(8, 8, seed=0)),
     dict(t=STATE.t, T=T, x0=STATE.x, g0=STATE.g)),
    (v_from_fit, dict(fit=RegressionFit(a_eps=-0.01, d_eps=0.0, r_squared=1.0, n=3, se_a_eps=0.0)),
     dict(epsilon=MODEL.epsilon, r=MODEL.r, sigma=SIGMA, k=MODEL.k, t=STATE.t, T=T)),
]


# the values that are not finite: NaN, the infinities, an int too large for a
# float, on which math.isfinite raised OverflowError, and one too long for
# Python to write in decimal, on which a message raised ValueError
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "10**400": 10**400, "-10**400": -10**400,
              "10**5000": 10**5000, "-10**5000": -10**5000}


def non_finite_cases(table):
    """Each entry of ``table`` with one float swapped for a value that is not finite."""
    return [
        pytest.param(fn, fixed, {**floats, name: value}, id=f"{fn.__name__}-{name}-{label}")
        for fn, fixed, floats in table
        for name in floats
        for label, value in NON_FINITE.items()
    ]


def refuses_by_name(fn, fixed, floats):
    """fn raises NonFiniteInput whose message names the one non-finite float first."""
    name = next(name for name, value in floats.items()
                if any(value is bad for bad in NON_FINITE.values()))
    with pytest.raises(NonFiniteInput, match=f"^{re.escape(name)} must be finite, got "):
        fn(**fixed, **floats)


@pytest.mark.parametrize("fn, fixed, floats", non_finite_cases(ANALYTIC))
def test_analytic_functions_reject_a_non_finite_float(fn, fixed, floats):
    refuses_by_name(fn, fixed, floats)


@pytest.mark.parametrize("fn, fixed, floats", non_finite_cases(ENTRY_POINTS))
def test_records_and_mc_entry_points_reject_a_non_finite_float(fn, fixed, floats):
    refuses_by_name(fn, fixed, floats)


def test_the_entry_point_table_takes_its_finite_points():
    for fn, fixed, floats in ENTRY_POINTS:
        fn(**fixed, **floats)  # so only the swapped value can raise


def test_non_finite_table_covers_every_exported_analytic_function():
    """first_order_price is left out: its OptionSpec, MarketState and
    ModelParams refuse a non-finite field when built, and it refuses a
    non-finite v_eps itself (test_first_order_price_refuses_a_non_finite_v_eps)."""
    exported = {name for name in geoasian.__all__
                if getattr(geoasian, name).__module__ in (closedform.__name__, perturbation.__name__)}
    assert exported - {"first_order_price"} <= {fn.__name__ for fn, *_ in ANALYTIC}
    for fn, fixed, floats in ANALYTIC:
        fn(**fixed, **floats)  # the finite point prices, so only the swapped value can raise


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: f"{c[0].value}-{c[1].value}")
@pytest.mark.parametrize("v_eps", [math.nan, math.inf, -math.inf])
def test_first_order_price_refuses_a_non_finite_v_eps(contract, v_eps):
    style, kind, strike, *_ = contract
    for state in (STATE, MarketState(t=T, x=100.0, g=101.3)):  # before and at maturity
        with pytest.raises(NonFiniteInput, match="v_eps must be finite"):
            first_order_price(OptionSpec(style, kind, T, strike), state, ARC, MODEL, v_eps)


def priced_or_refused(fn, *args):
    """fn's result, or None when it raises a PricingError; any other error fails."""
    try:
        return fn(*args)
    except PricingError:
        return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    contract=st.sampled_from(CONTRACTS),
    k=st.floats(min_value=1e-300, max_value=1e6),
    t=st.floats(min_value=0.0, max_value=20.0),
    life=st.floats(min_value=0.0, max_value=20.0),
    v_eps=st.floats(min_value=-1e308, max_value=1e308),
    moneyness=st.floats(min_value=1e-3, max_value=1e3),
    strike=st.floats(min_value=1e-3, max_value=1e3),
)
# the price of a fixed put with ln gamma = 6.2e4, then one whose c1 overflows
@example(contract=CONTRACTS[2], k=4.444442222222222, t=0.0, life=0.45, v_eps=0.0,
         moneyness=1.0, strike=120.0)
@example(contract=CONTRACTS[2], k=2.0, t=0.1, life=0.35, v_eps=1e308, moneyness=1.0,
         strike=100.0)
def test_extreme_finite_inputs_price_finite_or_raise_a_pricing_error(
        contract, k, t, life, v_eps, moneyness, strike):
    """The chain either returns finite numbers or refuses with a PricingError,
    without a numpy warning, on finite inputs up to the float limits (maturities
    within 40 years); a smile point that cannot be priced is flagged."""
    style, kind, contract_strike, *_ = contract
    model = ModelParams(r=0.0264, k=k, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    arc = arc_from_ou(k, 0.2, 0.1834)
    state = MarketState(t=t, x=100.0, g=100.0 * moneyness)
    option = priced_or_refused(OptionSpec, style, kind, t + life,
                               None if contract_strike is None else strike)
    if option is not None:  # a maturity of 0 is refused
        breakdown = priced_or_refused(first_order_price, option, state, arc, model, v_eps)
        assert breakdown is None or all(map(math.isfinite, breakdown)), breakdown
    for quote_style in QuoteStyle:
        (point,) = calibration.smile_curve(arc, model, v_eps, quote_style,
                                           [(t, t + life, moneyness)])
        assert point.implied_vol is None or math.isfinite(point.implied_vol), point


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    contract=st.sampled_from(CONTRACTS),
    log_k=st.floats(min_value=-300.0, max_value=300.0),
    kT=st.floats(min_value=0.0, max_value=2.5),
    share=st.floats(min_value=0.0, max_value=1.0),
    m=st.floats(min_value=-1e3, max_value=1e3),
    log_sigma=st.floats(min_value=-320.0, max_value=308.0),
)
# the fixed call at T = 1e103, the closed integrals at T = 6.6e194, then a
# speed whose k^3 is past the float range
@example(contract=CONTRACTS[1], log_k=0.0, kT=1e103, share=0.0, m=1.0, log_sigma=-0.7)
@example(contract=CONTRACTS[1], log_k=math.log10(7.56e-196), kT=7.56e-196 * 6.6e194,
         share=0.0, m=1.0, log_sigma=-0.7)
@example(contract=CONTRACTS[0], log_k=103.0, kT=0.5, share=0.0, m=1.0, log_sigma=-0.7)
# a sigma^2 past the float range made Q inf - inf, and a price NaN; at
# T = 1e75 prices went NaN from sigma 1e118 and theta from 1e82; a kappa^2
# that underflows to 0 made the Greeks divide by it, at sigma 1e-162 and
# at the 1e-170 of a z0 of 1e-170; a sigma of 1e160 made gamma's m NaN
@example(contract=CONTRACTS[0], log_k=0.0, kT=0.5, share=0.0, m=1.0, log_sigma=155.0)
@example(contract=CONTRACTS[0], log_k=-75.0, kT=1.0, share=0.0, m=1.0, log_sigma=118.0)
@example(contract=CONTRACTS[2], log_k=-75.0, kT=1.0, share=0.5, m=1.0, log_sigma=82.0)
@example(contract=CONTRACTS[1], log_k=0.0, kT=0.5, share=0.0, m=1.0, log_sigma=-162.0)
@example(contract=CONTRACTS[0], log_k=math.log10(2.0), kT=0.8, share=0.0, m=1.0,
         log_sigma=-170.0)
@example(contract=CONTRACTS[0], log_k=math.log10(2.0), kT=0.8, share=0.0, m=1.0,
         log_sigma=160.0)
def test_long_maturities_and_slow_speeds_give_finite_values_or_a_pricing_error(
        contract, log_k, kT, share, m, log_sigma):
    """Each analytic function returns finite numbers or raises a PricingError,
    with no numpy warning, for maturities up to 1e300, speeds from 1e-300
    to 1e300 and, on a level arc and in the closed forms, sigmas from 1e-320
    to 1e308; a maturity of about 1e77 and more raised an OverflowError."""
    k = 10.0 ** log_k
    T = kT / k
    if not 0.0 < T <= 1e300:
        return
    t = share * T
    style, kind, strike, bs, greeks_fn, _ = contract
    model = ModelParams(r=0.0264, k=k, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    arc = priced_or_refused(arc_from_ou, k, 0.2, 0.1834)  # its k^2 overflows past 1e154
    sigma = 10.0 ** log_sigma
    level = VolArc(p_coef=0.0, q_coef=0.0, r_coef=sigma, sigma_min=sigma)
    state = MarketState(t=t, x=100.0, g=100.0)
    option = OptionSpec(style, kind, T, strike)
    strikes = () if strike is None else (strike,)
    results = [
        priced_or_refused(i_integrals_closed, k, t, T),
        priced_or_refused(modification_factor, k, t, T, m),
        priced_or_refused(regression_denominator, k, t, T),
        arc and priced_or_refused(first_order_price, option, state, arc, model, V_EPS),
        priced_or_refused(first_order_price, option, state, level, model, V_EPS),
        priced_or_refused(bs, state, sigma, T, *strikes, model.r),
        priced_or_refused(greeks_fn, state, sigma, T, *strikes, model.r),
        priced_or_refused(b0_theta, style, state, sigma, T, model.r, strike, kind),
    ]
    for result in results:
        assert result is None or all(map(math.isfinite, result if isinstance(result, tuple)
                                         else (result,))), result


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.floats(min_value=-1e308, max_value=1e308),
                                 st.floats(min_value=-1e308, max_value=1e308)),
                       min_size=2, max_size=6))
@example(points=[(0.0, 0.0), (1e-11, 1e150), (2e-11, 0.0)])  # the slope's SE overflows
def test_ols_fit_on_extreme_points_is_finite_or_a_pricing_error(points):
    fit = priced_or_refused(ols_fit, points)
    assert fit is None or all(map(math.isfinite, (fit.a_eps, fit.d_eps, fit.r_squared)))
    assert fit is None or fit.n == 2 or math.isfinite(fit.se_a_eps)


def test_book_breakdowns_are_pinned():
    """Digest of the repr of every PriceBreakdown of the benchmark's seed-1
    book, so a speed change that should keep every bit cannot drift them."""
    book = make_book(1)
    options, price = book_ops(book)
    text = "\n".join(repr(price(option, c)) for option, c in zip(options, book))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6999e2b7a9124624e4e82251804f9541368aef323e3885e8dc8ccc2ece6cc84c")


# one record of each kind the chain builds, and its repr
RECORDS = [
    (STATE, "MarketState(t=0.12, x=100.0, g=101.3)"),
    (GreekSet(du1=-1.0, du2=2.5, du3=3.0, vega=0.25),
     "GreekSet(du1=-1.0, du2=2.5, du3=3.0, vega=0.25)"),
    (IIntegrals(i0=0.5, i1=0.0, i2=1.0, i3=2.0, i4=3.0, i5=-4.0),
     "IIntegrals(i0=0.5, i1=0.0, i2=1.0, i3=2.0, i4=3.0, i5=-4.0)"),
    (PriceBreakdown(b0=2.0, gamma=0.5, c0=1.0, c1=-0.25, price_hat=0.75, m_exponent=-3.0),
     "PriceBreakdown(b0=2.0, gamma=0.5, c0=1.0, c1=-0.25, price_hat=0.75, m_exponent=-3.0)"),
    (QuoteRow(t=0.1, T=0.45, spot=100.0, avg=101.0, strike=None,
              style=QuoteStyle.FLOATING_CALL, implied_vol=0.2),
     "QuoteRow(t=0.1, T=0.45, spot=100.0, avg=101.0, strike=None, "
     "style=<QuoteStyle.FLOATING_CALL: 'floating_call'>, implied_vol=0.2, line=None)"),
]


def field_names(record):
    if dataclasses.is_dataclass(record):
        return [f.name for f in dataclasses.fields(record)]
    return record._fields


RECORD_FIELDS = [
    pytest.param(record, name, id=f"{type(record).__name__}.{name}")
    for record, _ in RECORDS for name in field_names(record)
]


@pytest.mark.parametrize("record, name", RECORD_FIELDS)
def test_records_refuse_assignment(record, name):
    # FrozenInstanceError is an AttributeError
    error = dataclasses.FrozenInstanceError if type(record) is MarketState else AttributeError
    with pytest.raises(error):
        setattr(record, name, 1.0)


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_reprs_are_unchanged(record, text):
    assert repr(record) == text


def test_market_state_equality_hash_and_repr_ignore_s_and_u():
    moved = MarketState(t=STATE.t, x=STATE.x, g=STATE.g)
    object.__setattr__(moved, "s", STATE.s + 1.0)
    object.__setattr__(moved, "u", STATE.u - 1.0)
    assert moved == STATE
    assert hash(moved) == hash(STATE)
    assert repr(moved) == repr(STATE)
