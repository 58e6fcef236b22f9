import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from geoasian import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    arc_from_ou,
    first_order_price,
)
from geoasian.errors import (
    NonFiniteInput,
    NonPositivePrice,
    NonPositiveStrike,
    OutOfDomain,
    PDFactorizationFailure,
    PricingError,
    UnsupportedContract,
)
from geoasian.model import correlation_pd_margin, effective_vol

price_strategy = st.floats(min_value=1e-3, max_value=1e6)
level_strategy = st.floats(min_value=0.01, max_value=1.0)


REFERENCE = dict(r=0.0264, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001)


def test_params_reference_set_valid():
    """The reference parameter set must build verbatim."""
    p = ModelParams(**REFERENCE)
    assert (p.r, p.k, p.alpha_prime, p.z0, p.epsilon) == (0.0264, 2.0, 0.20, 0.1834, 0.001)


def test_params_violations_are_collected():
    """Every broken range rule is named, in rule order, in one OutOfDomain."""
    with pytest.raises(OutOfDomain) as info:
        ModelParams(r=-0.01, k=0.0, alpha_prime=0.2, z0=0.2, epsilon=0.0, nu=-1.0,
                    beta=-0.5, rho_xy=2.0, rho_xz=4.0, rho_yz=2.0)
    assert str(info.value).split("; ") == [
        "r must be >= 0, got -0.01",
        "k must be > 0, got 0.0",
        "epsilon must be > 0, got 0.0",
        "nu must be >= 0, got -1.0",
        "beta must be >= 0, got -0.5",
        "DegenerateArc: z0 must differ from alpha_prime",
        "rho_xy must satisfy |rho| < 1, got 2.0",
        "rho_xz must satisfy |rho| < 1, got 4.0",
        "rho_yz must satisfy |rho| < 1, got 2.0",
    ]


@pytest.mark.parametrize("fields, error, message", [
    ({"alpha_prime": -0.2}, OutOfDomain, "alpha_prime must be >= 0, got -0.2"),
    ({"z0": -0.1834}, OutOfDomain, "z0 must be >= 0, got -0.1834"),
    ({"r": -0.01}, OutOfDomain, "r must be >= 0, got -0.01"),
    ({"k": 0.0}, OutOfDomain, "k must be > 0, got 0.0"),
    ({"k": -2.0}, OutOfDomain, "k must be > 0, got -2.0"),
    ({"epsilon": 0.0}, OutOfDomain, "epsilon must be > 0, got 0.0"),
    ({"nu": -0.3}, OutOfDomain, "nu must be >= 0, got -0.3"),
    ({"beta": -0.1}, OutOfDomain, "beta must be >= 0, got -0.1"),
    ({"z0": 0.2}, OutOfDomain, "DegenerateArc: z0 must differ from alpha_prime"),
    # the determinant is 9 > 0, yet no |rho| may reach 1
    ({"rho_xy": 2.0, "rho_xz": 4.0, "rho_yz": 2.0}, OutOfDomain,
     "rho_xy must satisfy |rho| < 1, got 2.0; rho_xz must satisfy |rho| < 1, got 4.0; "
     "rho_yz must satisfy |rho| < 1, got 2.0"),
    ({"rho_xy": 0.9, "rho_xz": -0.9, "rho_yz": 0.9}, PDFactorizationFailure,
     "correlation matrix is not positive definite"),
    ({"rho_yz": 1.0}, PDFactorizationFailure, "correlation matrix is not positive definite"),
    # a non-finite field comes first, then the correlation, then the ranges
    ({"r": math.nan, "k": -1.0, "rho_xy": 1.0}, NonFiniteInput, "r must be finite, got nan"),
    ({"k": -1.0, "rho_xy": 1.0}, PDFactorizationFailure,
     "correlation matrix is not positive definite"),
], ids=["alpha_prime", "z0", "r", "k-zero", "k-negative", "epsilon", "nu", "beta", "degenerate-arc",
        "rho-at-least-1", "not-pd", "rho-1-not-pd", "non-finite-first", "pd-before-ranges"])
def test_params_each_rule_refused_when_built(fields, error, message):
    with pytest.raises(error) as info:
        ModelParams(**{**REFERENCE, **fields})
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("field, value", [
    ("z0", math.nan), ("alpha_prime", math.inf), ("r", math.inf), ("k", math.nan),
    ("epsilon", math.inf), ("rho_xy", math.nan), ("r", math.nan),
])
def test_params_non_finite_rejected(field, value):
    base = dict(r=0.0264, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001)
    with pytest.raises(NonFiniteInput, match=f"{field} must be finite"):
        ModelParams(**{**base, field: value})


def test_params_non_finite_reported_once():
    """Each non-finite field is named exactly once, in field order."""
    with pytest.raises(NonFiniteInput) as info:
        ModelParams(r=math.nan, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001,
                    rho_xy=math.nan)
    assert str(info.value) == "r must be finite, got nan; rho_xy must be finite, got nan"


def test_params_pd_margin_rejected():
    assert correlation_pd_margin(0.9, -0.9, 0.9) <= 0.0


def test_pd_margin_identity_matrix():
    assert correlation_pd_margin(0.0, 0.0, 0.0) == 1.0


def test_model_params_frozen():
    p = ModelParams(r=0.0264, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.r = 0.05


def test_arc_from_ou_reference_coefficients():
    arc = arc_from_ou(2.0, 0.20, 0.1834)
    assert math.isclose(arc.p_coef, -0.0332, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(arc.q_coef, 0.0332, rel_tol=0, abs_tol=1e-15)
    assert arc.r_coef == 0.1834
    # arc value at the reference horizon
    assert abs(effective_vol(arc, 0.5) - 0.1917) < 1e-15


@pytest.mark.parametrize("style, kind, strike", [
    (StrikeStyle.FLOATING, OptionKind.CALL, None),
    (StrikeStyle.FIXED, OptionKind.CALL, 101.0),
    (StrikeStyle.FIXED, OptionKind.PUT, 101.0),
])
def test_arc_from_ou_at_the_long_run_level_is_the_level_arc(style, kind, strike):
    """z0 = alpha_prime is ModelParams' rule; the arc itself is then flat."""
    arc = arc_from_ou(2.0, 0.2, 0.2)
    level = VolArc(0.0, 0.0, 0.2)
    assert arc == level
    option = OptionSpec(style, kind, maturity=0.45, strike=strike)
    state = MarketState(t=0.1, x=100.0, g=101.0)
    model = ModelParams(**REFERENCE)
    assert (first_order_price(option, state, arc, model, -0.016)
            == first_order_price(option, state, level, model, -0.016))


@pytest.mark.parametrize("k, alpha_prime, z0", [
    (2.0, 0.2, math.inf), (2.0, 0.2, math.nan), (2.0, -math.inf, 0.1834), (math.inf, 0.2, 0.1834),
])
def test_arc_from_ou_rejects_non_finite(k, alpha_prime, z0):
    with pytest.raises(NonFiniteInput):
        arc_from_ou(k, alpha_prime, z0)


def test_vol_arc_requires_positive_floor():
    with pytest.raises(ValueError):
        VolArc(p_coef=0.0, q_coef=0.0, r_coef=0.2, sigma_min=0.0)


@pytest.mark.parametrize("field", ["p_coef", "q_coef", "r_coef", "sigma_min"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_vol_arc_rejects_non_finite(field, value):
    fields = dict(p_coef=-0.0332, q_coef=0.0332, r_coef=0.1834, sigma_min=1e-4)
    with pytest.raises(NonFiniteInput):
        VolArc(**{**fields, field: value})


def test_effective_vol_floor_applies():
    # arc dips negative well inside the horizon
    arc = VolArc(p_coef=0.0, q_coef=-1.0, r_coef=0.05, sigma_min=1e-4)
    assert effective_vol(arc, 0.5) == 1e-4


def test_effective_vol_rejects_negative_time():
    arc = arc_from_ou(2.0, 0.20, 0.1834)
    with pytest.raises(ValueError):
        effective_vol(arc, -0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_effective_vol_rejects_non_finite_time(t):
    # a NaN t used to fall through both the t < 0 check and the floor
    arc = arc_from_ou(2.0, 0.20, 0.1834)
    with pytest.raises(NonFiniteInput):
        effective_vol(arc, t)


@given(
    p=st.floats(min_value=-1.0, max_value=1.0),
    q=st.floats(min_value=-1.0, max_value=1.0),
    r=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=2.0),
)
def test_effective_vol_never_below_floor(p, q, r, t):
    arc = VolArc(p_coef=p, q_coef=q, r_coef=r, sigma_min=1e-4)
    assert effective_vol(arc, t) >= 1e-4


@given(
    p=st.floats(min_value=-1.0, max_value=1.0),
    q=st.floats(min_value=-1.0, max_value=1.0),
    r=st.floats(min_value=0.05, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=2.0),
    h=st.floats(min_value=1e-9, max_value=1e-6),
)
def test_effective_vol_continuous(p, q, r, t, h):
    """A Lipschitz bound from the coefficients controls small steps."""
    arc = VolArc(p_coef=p, q_coef=q, r_coef=r, sigma_min=1e-4)
    lip = abs(q) + 2.0 * abs(p) * (t + h)
    gap = abs(effective_vol(arc, t + h) - effective_vol(arc, t))
    assert gap <= lip * h + 1e-12


@given(x=price_strategy, t=st.floats(min_value=0.0, max_value=3.0))
def test_state_transform_u_zero_when_g_equals_x(x, t):
    state = MarketState(t=t, x=x, g=x)
    assert state.u == 0.0
    assert state.s == math.log(x)


@given(x=price_strategy, g=price_strategy, t=st.floats(min_value=0.0, max_value=3.0))
def test_state_transform_matches_market_state(x, g, t):
    """MarketState holds (s, u) = (ln x, t ln(g/x)), with ln(g/x) as ln g - ln x."""
    st_ = MarketState(t=t, x=x, g=g)
    assert st_.s == math.log(x)
    assert st_.u == t * (math.log(g) - math.log(x))


finite_or_not = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6), st.sampled_from([math.nan, math.inf, -math.inf])
)


@given(t=st.one_of(st.floats(min_value=0.0, max_value=3.0), st.just(math.nan), st.just(math.inf)),
       x=finite_or_not, g=finite_or_not)
def test_market_state_rejects_non_finite_fields(t, x, g):
    if all(map(math.isfinite, (t, x, g))):
        MarketState(t=t, x=x, g=g)
    else:
        with pytest.raises(PricingError):
            MarketState(t=t, x=x, g=g)


def test_state_transform_rejects_nonpositive():
    with pytest.raises(NonPositivePrice, match="spot and average must be > 0"):
        MarketState(t=0.1, x=0.0, g=100.0)
    with pytest.raises(NonPositivePrice):
        MarketState(t=0.1, x=100.0, g=-1.0)
    with pytest.raises(OutOfDomain, match="t must be >= 0, got -0.1"):
        MarketState(t=-0.1, x=100.0, g=100.0)
    with pytest.raises(NonPositivePrice):
        MarketState(t=0.1, x=-5.0, g=100.0)


def test_option_spec_contracts():
    spec = OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=0.5, strike=95.0)
    assert spec.strike == 95.0
    with pytest.raises(NonPositiveStrike):
        OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.5)
    with pytest.raises(NonPositiveStrike):
        OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.5, strike=0.0)
    with pytest.raises(UnsupportedContract):
        OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=0.5, strike=100.0)
    with pytest.raises(ValueError):
        OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=0.0)
    with pytest.raises(NonFiniteInput):
        OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=math.inf)
    with pytest.raises(NonFiniteInput):
        OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.5, strike=math.inf)
