"""The first-order chain: one sequence of the public pieces for pricing and calibration."""

import dataclasses
import hashlib
import math

import pytest

import geoasian
from geoasian import (
    MarketState,
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
)
from geoasian.calibration import regression_denominator, regression_row
from geoasian.closedform import GreekSet, b0_theta
from geoasian.errors import NonFiniteInput
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


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 2.5])
def test_window_terms_agree_across_modules(k):
    """The window's log-ratio and pole term are written three times: in I0,
    in ln gamma and in D. With I0 = -(2/k) ln((2 - kT)/(2 - kt)) - 2 pole,
    D = -I0 / (2 (T - t)) and ln gamma = m (T - t - I0)."""
    windows = [(kt / k, kT / k) for kt in (0.0, 0.3, 0.6, 0.9)
               for kT in (0.1, 0.35, 0.62, 0.8, 0.97) if kT > kt]
    for t, T in windows:
        i0 = i_integrals_closed(k, t, T).i0
        assert regression_denominator(k, t, T) == pytest.approx(-i0 / (2.0 * (T - t)),
                                                                rel=1e-13, abs=0.0), (t, T)
        for m in (-3.0, -0.4, 0.7, 2.5):
            ln_gamma = math.log(modification_factor(k, t, T, m))
            assert abs(ln_gamma - m * (T - t - i0)) <= 1e-12 * abs(m) * (T - t), (t, T, m)


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
NON_FINITE_CASES = [
    pytest.param(fn, fixed, {**floats, name: value}, id=f"{fn.__name__}-{name}-{value}")
    for fn, fixed, floats in ANALYTIC
    for name in floats
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("fn, fixed, floats", NON_FINITE_CASES)
def test_analytic_functions_reject_a_non_finite_float(fn, fixed, floats):
    with pytest.raises(NonFiniteInput):
        fn(**fixed, **floats)


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


def test_book_breakdowns_are_pinned():
    """Digest of the repr of every PriceBreakdown of the benchmark's seed-1
    book, so a speed change that should keep every bit cannot drift them."""
    book = make_book(1)
    options, price = book_ops(book)
    text = "\n".join(repr(price(option, c)) for option, c in zip(options, book))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f6de85c79adbf8644558c6f2d8a1dec7b1569bc3cc0ac003e912bbe9989db296")


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
