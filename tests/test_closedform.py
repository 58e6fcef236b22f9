import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from geoasian import (
    MarketState,
    OptionKind,
    StrikeStyle,
    bs_fixed_call,
    bs_fixed_put,
    bs_floating_call,
    greeks_fixed_call,
    greeks_fixed_put,
    greeks_floating_call,
)
from geoasian.closedform import (
    _b0_fixed_call,
    _b0_fixed_put,
    _b0_floating_call,
    _d_terms,
    b0_theta,
    q_drift_term,
)
from geoasian.errors import DegenerateHorizon, NonPositiveStrike, UnsupportedContract

sigma_strategy = st.floats(min_value=0.05, max_value=0.6)
t_strategy = st.floats(min_value=0.01, max_value=0.35)
mon_strategy = st.floats(min_value=0.85, max_value=1.15)
rate_strategy = st.floats(min_value=0.0, max_value=0.1)

# Reference valuation point: at the money with an empty averaging window.
ANCHOR = MarketState(t=0.0, x=100.0, g=100.0)
A_SIG, A_T, A_R = 0.1834, 0.5, 0.0264

# Interior point with a seasoned average.
INTERIOR = MarketState(t=0.2, x=100.0, g=110.0)
I_SIG, I_T, I_K, I_R = 0.21, 0.5, 104.0, 0.045


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def richardson(fun, h):
    return (4.0 * fun(h / 2.0) - fun(h)) / 3.0


def fd_first(f, h):
    return richardson(lambda hh: (f(hh) - f(-hh)) / (2.0 * hh), h)


# ---------------------------------------------------------------- d terms


# _d_terms(s, u, t, T, K, sigma, r) -> (d1, d2, root, Q); K None is the
# floating call, whose d-terms do not depend on s


def test_d_terms_floating_anchor():
    d1, d2, _, q = _d_terms(ANCHOR.s, 0.0, 0.0, A_T, None, A_SIG, A_R)
    assert rel(d1, 0.14430412870209921) < 1e-12
    assert rel(d2, 0.06943139223102673) < 1e-12
    assert rel(q, 0.0080014816666666667) < 1e-12


def test_d_terms_fixed_anchor():
    d1_hat, d2_hat, _, _ = _d_terms(ANCHOR.s, 0.0, 0.0, A_T, 100.0, A_SIG, A_R)
    assert rel(d1_hat, 0.10686776046656297) < 1e-12
    assert rel(d2_hat, 0.031995023995490492) < 1e-12


def test_d_terms_interior():
    d1, d2, _, _ = _d_terms(INTERIOR.s, INTERIOR.u, 0.2, I_T, None, I_SIG, I_R)
    assert rel(d1, -0.2898794263148024) < 1e-12
    assert rel(d2, -0.37282278047895469) < 1e-12
    d1_hat, d2_hat, _, _ = _d_terms(INTERIOR.s, INTERIOR.u, 0.2, I_T, I_K, I_SIG, I_R)
    assert rel(d1_hat, 0.064160575020688305) < 1e-12
    assert rel(d2_hat, 0.024315876502566726) < 1e-12


@given(sigma=sigma_strategy, t=t_strategy, mon=mon_strategy, r=rate_strategy)
def test_d_gap_invariants(sigma, t, mon, r):
    """d2 = d1 - sigma sqrt((T^3-t^3)/3)/T; the hatted gap replaces the full
    window moment by the remaining one, (T-t)^3/3."""
    T = 0.5
    state = MarketState(t=t, x=100.0, g=100.0 * mon)
    gap = (sigma / T) * math.sqrt((T ** 3 - t ** 3) / 3.0)
    d1, d2, _, _ = _d_terms(state.s, state.u, t, T, None, sigma, r)
    assert abs((d1 - d2) - gap) < 1e-12
    gap_hat = (sigma / T) * math.sqrt((T - t) ** 3 / 3.0)
    d1_hat, d2_hat, _, _ = _d_terms(state.s, state.u, t, T, 100.0, sigma, r)
    assert abs((d1_hat - d2_hat) - gap_hat) < 1e-12


# ------------------------------------------------------------------ prices


def test_prices_anchor():
    assert rel(bs_floating_call(ANCHOR, A_SIG, A_T, A_R), 3.3898311730778935) < 1e-12
    assert rel(bs_fixed_call(ANCHOR, A_SIG, A_T, 100.0, A_R), 3.2191140454824982) < 1e-12
    assert rel(bs_fixed_put(ANCHOR, A_SIG, A_T, 100.0, A_R), 2.7047433410946093) < 1e-12


def test_prices_interior():
    assert rel(bs_floating_call(INTERIOR, I_SIG, I_T, I_R), 2.143218787996794) < 1e-12
    assert rel(bs_fixed_call(INTERIOR, I_SIG, I_T, I_K, I_R), 1.7244252105979457) < 1e-12
    assert rel(bs_fixed_put(INTERIOR, I_SIG, I_T, I_K, I_R), 1.5434073523016857) < 1e-12


def test_q_drift_anchor():
    assert rel(q_drift_term(A_SIG, 0.0, A_T, A_R), 0.0080014816666666667) < 1e-12


@given(sigma=sigma_strategy, t=t_strategy, mon=mon_strategy)
def test_prices_nonnegative(sigma, t, mon):
    state = MarketState(t=t, x=100.0, g=100.0 * mon)
    assert bs_floating_call(state, sigma, 0.5, 0.03) >= 0.0
    assert bs_fixed_call(state, sigma, 0.5, 100.0, 0.03) >= 0.0
    assert bs_fixed_put(state, sigma, 0.5, 100.0, 0.03) >= 0.0


@given(sigma=sigma_strategy, t=t_strategy, mon=mon_strategy)
@settings(max_examples=40)
def test_vol_monotonicity_of_vega_positive_contracts(sigma, t, mon):
    """Floating calls and fixed puts gain value with volatility."""
    state = MarketState(t=t, x=100.0, g=100.0 * mon)
    bump = 0.02
    assert bs_floating_call(state, sigma + bump, 0.5, 0.03) >= bs_floating_call(
        state, sigma, 0.5, 0.03
    )
    assert bs_fixed_put(state, sigma + bump, 0.5, 100.0, 0.03) >= bs_fixed_put(
        state, sigma, 0.5, 100.0, 0.03
    )


def test_put_call_parity_on_strike_grid():
    """C(K) - P(K) = discounted forward - K e^{-r tau}, spot-normalized 1e-10.

    The discounted forward is recovered from a vanishing strike, where the
    call price degenerates to the forward itself.
    """
    tau = I_T - INTERIOR.t
    tiny = 1e-9
    fwd_disc = bs_fixed_call(INTERIOR, I_SIG, I_T, tiny, I_R) + tiny * math.exp(-I_R * tau)
    for K in (60.0, 85.0, 100.0, 104.0, 120.0, 150.0):
        c = bs_fixed_call(INTERIOR, I_SIG, I_T, K, I_R)
        p = bs_fixed_put(INTERIOR, I_SIG, I_T, K, I_R)
        gap = (c - p) - (fwd_disc - K * math.exp(-I_R * tau))
        assert abs(gap) / INTERIOR.x < 1e-10, f"parity off by {gap} at K={K}"


def _fixed_put_mpmath(state, sigma, T, K, r):
    """e^{-r tau} E[(K - G_T)^+] from the lognormal law of G_T, in mpmath:
    ln G_T ~ N(ln x + u/T + (r - sigma^2/2) tau^2/(2T), sigma^2 tau^3/(3T^2))."""
    with mp.workdps(50):
        t, T, K, sigma, r = (mp.mpf(v) for v in (state.t, T, K, sigma, r))
        tau = T - t
        u = t * mp.log(mp.mpf(state.g) / state.x)
        mean = mp.log(state.x) + u / T + (r - sigma ** 2 / 2) * tau ** 2 / (2 * T)
        sd = sigma * mp.sqrt(tau ** 3 / 3) / T
        d = (mean - mp.log(K)) / sd
        value = K * mp.ncdf(-d) - mp.exp(mean + sd ** 2 / 2) * mp.ncdf(-d - sd)
        return float(mp.exp(-r * tau) * value)


@pytest.mark.parametrize(
    "g, K", [(104.5, 100.0), (104.5, 99.8), (104.5, 99.6), (104.5, 99.0), (110.0, 100.0)]
)
def test_fixed_put_out_of_the_money_keeps_its_digits(g, K):
    """Put-call parity lost these prices to cancellation (2.6e-2 relative at
    K = 99, and 0.0 at g = 110); the direct formula keeps them."""
    state = MarketState(t=0.3, x=100.0, g=g)
    got = bs_fixed_put(state, 0.1834, 0.38, K, 0.0264)
    want = _fixed_put_mpmath(state, 0.1834, 0.38, K, 0.0264)
    assert want > 0.0
    assert rel(got, want) < 1e-10


def test_fixed_call_forward_limit():
    # K -> 0 collapses the call onto the discounted forward of the average
    tau = A_T
    fwd_disc = math.exp(ANCHOR.s + 0.0 / A_T - q_drift_term(A_SIG, 0.0, A_T, A_R))
    c = bs_fixed_call(ANCHOR, A_SIG, A_T, 1e-10, A_R)
    assert rel(c, fwd_disc) < 1e-10


# ------------------------------------------------- derivative identities


def test_floating_homogeneity_in_s():
    """dB/ds = B for the floating call (both terms scale with e^s)."""
    h = 1e-5
    for mon in (0.95, 1.0, 1.05):
        state = MarketState(t=0.2, x=100.0, g=100.0 * mon)
        b = bs_floating_call(state, I_SIG, I_T, I_R)

        def shifted(ds):
            scaled = MarketState(t=0.2, x=100.0 * math.exp(ds), g=100.0 * mon * math.exp(ds))
            return bs_floating_call(scaled, I_SIG, I_T, I_R)

        assert rel(fd_first(shifted, h), b) < 1e-7


def test_fixed_s_u_derivative_relation():
    """dB/ds = T dB/du for fixed-strike prices (s and u enter through u/T + s)."""
    h = 1e-5
    t = 0.2
    for K, mon in ((100.0, 0.97), (104.0, 1.05)):
        state = MarketState(t=t, x=100.0, g=100.0 * mon)

        def in_s(ds):
            scaled = MarketState(t=t, x=state.x * math.exp(ds), g=state.g * math.exp(ds))
            return bs_fixed_call(scaled, I_SIG, I_T, K, I_R)

        def in_u(du):
            bumped = MarketState(t=t, x=state.x, g=state.g * math.exp(du / t))
            return bs_fixed_call(bumped, I_SIG, I_T, K, I_R)

        ds_val = fd_first(in_s, h)
        du_val = fd_first(in_u, h)
        assert rel(ds_val, I_T * du_val) < 1e-6, f"{ds_val} vs T*{du_val}"


# ------------------------------------------------------------------ greeks


def test_greeks_floating_anchor():
    g = greeks_floating_call(ANCHOR, A_SIG, A_T, A_R)
    assert rel(g.du1, -104.69430583382335) < 1e-9
    assert rel(g.du2, 1899.8443326918218) < 1e-9
    assert rel(g.du3, 11930.045230704371) < 1e-9
    assert rel(g.vega, 16.918094070227072) < 1e-9


def test_greeks_fixed_put_anchor():
    g = greeks_fixed_put(ANCHOR, A_SIG, A_T, 100.0, A_R)
    assert rel(g.du1, -90.760259290555198) < 1e-9
    assert rel(g.du2, 1920.7634292125187) < 1e-9
    assert rel(g.du3, 2044.8080920158798) < 1e-9
    assert rel(g.vega, 16.758512815801642) < 1e-9


def test_greeks_fixed_call_anchor():
    g = greeks_fixed_call(ANCHOR, A_SIG, A_T, 100.0, A_R)
    assert rel(g.du1, 107.64582970495062) < 1e-9
    assert rel(g.du2, 2317.5756072035303) < 1e-9
    assert rel(g.du3, 2838.432447997903) < 1e-9
    assert rel(g.vega, 15.242359619060985) < 1e-9


def test_greeks_interior():
    gp = greeks_fixed_put(INTERIOR, I_SIG, I_T, I_K, I_R)
    assert rel(gp.du1, -97.528140980568291) < 1e-9
    assert rel(gp.du2, 3913.0482417216701) < 1e-9
    assert rel(gp.du3, 2812.0210368905023) < 1e-9
    assert rel(gp.vega, 8.3173021091203269) < 1e-9
    gc = greeks_fixed_call(INTERIOR, I_SIG, I_T, I_K, I_R)
    assert rel(gc.du1, 108.04476373011262) < 1e-9
    assert rel(gc.du2, 4324.1940511430319) < 1e-9
    assert rel(gc.du3, 3634.3126557332259) < 1e-9
    assert rel(gc.vega, 7.1517037394107661) < 1e-9


def test_gamma_factor_scales_derivatives_only():
    """The modification factor multiplies du1-du3 and vega."""
    base = greeks_floating_call(INTERIOR, I_SIG, I_T, I_R)
    scaled = greeks_floating_call(INTERIOR, I_SIG, I_T, I_R, gamma_factor=2.0)
    assert rel(scaled.du1, 2.0 * base.du1) < 1e-14
    assert rel(scaled.du2, 2.0 * base.du2) < 1e-14
    assert rel(scaled.du3, 2.0 * base.du3) < 1e-14
    assert rel(scaled.vega, 2.0 * base.vega) < 1e-14


def test_greeks_vs_finite_differences_spot_check():
    """Full-grid FD coverage lives in the acceptance suite; one point here."""
    h = 1e-3
    t = INTERIOR.t
    g = greeks_floating_call(INTERIOR, I_SIG, I_T, I_R)

    def in_u(du):
        bumped = MarketState(t=t, x=INTERIOR.x, g=INTERIOR.g * math.exp(du / t))
        return bs_floating_call(bumped, I_SIG, I_T, I_R)

    fd1 = fd_first(in_u, h)
    fd2 = richardson(
        lambda hh: (in_u(hh) - 2.0 * in_u(0.0) + in_u(-hh)) / hh ** 2, h
    )
    fd3 = richardson(
        lambda hh: (in_u(2 * hh) - 2 * in_u(hh) + 2 * in_u(-hh) - in_u(-2 * hh))
        / (2 * hh ** 3),
        h,
    )
    assert rel(fd1, g.du1) < 1e-6
    assert rel(fd2, g.du2) < 1e-6
    assert rel(fd3, g.du3) < 1e-6

    fd_vega = fd_first(lambda ds: bs_floating_call(INTERIOR, I_SIG + ds, I_T, I_R), 1e-5)
    assert rel(fd_vega, g.vega) < 1e-7


@given(sigma=sigma_strategy, t=t_strategy, mon=st.floats(min_value=0.92, max_value=1.08))
@settings(max_examples=60)
def test_vegas_positive_for_calibratable_contracts(sigma, t, mon):
    state = MarketState(t=t, x=100.0, g=100.0 * mon)
    assert greeks_floating_call(state, sigma, 0.5, 0.03).vega > 0.0
    assert greeks_fixed_put(state, sigma, 0.5, 100.0, 0.03).vega > 0.0


def test_fixed_call_vega_can_go_negative():
    # the dq/dsigma term dominates once the call is deep in the money
    state = MarketState(t=0.3, x=100.0, g=100.0)
    g = greeks_fixed_call(state, 0.2, 0.5, 20.0, 0.03)
    assert g.vega < 0.0


# ------------------------------------------------------------------- theta


def test_theta_frozen_values():
    fl = b0_theta(StrikeStyle.FLOATING, INTERIOR, I_SIG, I_T, I_R)
    fc = b0_theta(StrikeStyle.FIXED, INTERIOR, I_SIG, I_T, I_R, K=I_K, kind=OptionKind.CALL)
    fp = b0_theta(StrikeStyle.FIXED, INTERIOR, I_SIG, I_T, I_R, K=I_K, kind=OptionKind.PUT)
    assert rel(fl, -2.4761294156912679) < 1e-9
    assert rel(fc, -9.2476521582982647) < 1e-9
    assert rel(fp, -7.0245096541918658) < 1e-9


def test_theta_fd_matches_analytic():
    """Richardson central differences of the B0 cores in t, at fixed (s, u)."""
    s, u = INTERIOR.s, INTERIOR.u
    h = 1e-5
    for style, K, kind, core in (
        (StrikeStyle.FLOATING, None, OptionKind.CALL,
         lambda tt: _b0_floating_call(s, u, tt, I_T, I_SIG, I_R)),
        (StrikeStyle.FIXED, I_K, OptionKind.CALL,
         lambda tt: _b0_fixed_call(s, u, tt, I_T, I_K, I_SIG, I_R)),
        (StrikeStyle.FIXED, I_K, OptionKind.PUT,
         lambda tt: _b0_fixed_put(s, u, tt, I_T, I_K, I_SIG, I_R)),
    ):
        fd = fd_first(lambda dt: core(INTERIOR.t + dt), h)
        an = b0_theta(style, INTERIOR, I_SIG, I_T, I_R, K=K, kind=kind)
        assert rel(fd, an) < 1e-7, f"{style}/{kind}: fd={fd} analytic={an}"


def _b0_mpmath(style, kind, s, u, t, T, K, sigma, r):
    """B0 at (s, u, t) in mpmath, from the closed forms in the module docstring."""
    tau = T - t
    q = (r + sigma ** 2 / 2) * (T ** 2 - t ** 2) / (2 * T)
    q -= sigma ** 2 * (T ** 3 - t ** 3) / (6 * T ** 2)
    E = mp.exp(s + u / T - q)
    if style is StrikeStyle.FLOATING:
        root = mp.sqrt((T ** 3 - t ** 3) / 3)
        d1 = (-u + (r + sigma ** 2 / 2) * (T ** 2 - t ** 2) / 2) / (sigma * root)
        d2 = d1 - sigma / T * root
        return mp.exp(s) * mp.ncdf(d1) - E * mp.ncdf(d2)
    gap = sigma / T * mp.sqrt(tau ** 3 / 3)
    d2 = (u / T + s - mp.log(K) + (r - sigma ** 2 / 2) * tau ** 2 / (2 * T)) / gap
    d1 = d2 + gap
    disc = K * mp.exp(-r * tau)
    if kind is OptionKind.CALL:
        return E * mp.ncdf(d1) - disc * mp.ncdf(d2)
    return disc * mp.ncdf(-d2) - E * mp.ncdf(-d1)


OTM = MarketState(t=0.25, x=100.0, g=103.0)
O_SIG, O_T, O_R = 0.18, 0.4, 0.0264


@pytest.mark.parametrize(
    "style, kind, state, sigma, T, K, r",
    [
        (StrikeStyle.FLOATING, OptionKind.CALL, INTERIOR, I_SIG, I_T, None, I_R),
        (StrikeStyle.FIXED, OptionKind.CALL, INTERIOR, I_SIG, I_T, I_K, I_R),
        (StrikeStyle.FIXED, OptionKind.PUT, INTERIOR, I_SIG, I_T, I_K, I_R),
        (StrikeStyle.FIXED, OptionKind.PUT, OTM, O_SIG, O_T, 97.5, O_R),
        (StrikeStyle.FIXED, OptionKind.CALL, OTM, O_SIG, O_T, 105.0, O_R),
    ],
)
def test_theta_matches_mpmath_derivative(style, kind, state, sigma, T, K, r):
    """b0_theta against mp.diff of B0 in t at fixed (s, u), 50 digits."""
    with mp.workdps(50):
        s = mp.log(mp.mpf(state.x))
        u = mp.mpf(state.t) * mp.log(mp.mpf(state.g) / mp.mpf(state.x))
        args = [mp.mpf(v) if v is not None else None for v in (T, K, sigma, r)]
        want = mp.diff(lambda tt: _b0_mpmath(style, kind, s, u, tt, *args), mp.mpf(state.t))
    got = b0_theta(style, state, sigma, T, r, K=K, kind=kind)
    assert rel(got, float(want)) < 1e-12


def test_theta_vanishes_at_window_start_floating():
    # every term of the floating theta carries a factor of t
    th = b0_theta(StrikeStyle.FLOATING, ANCHOR, A_SIG, A_T, A_R)
    assert th == 0.0


def test_theta_near_maturity_uses_analytic_form():
    state = MarketState(t=0.5 - 5e-9, x=100.0, g=103.0)
    value = b0_theta(StrikeStyle.FLOATING, state, A_SIG, 0.5, A_R)
    assert math.isfinite(value)


def test_theta_rejects_unknown_method():
    with pytest.raises(NonPositiveStrike):
        b0_theta(StrikeStyle.FIXED, INTERIOR, I_SIG, I_T, I_R)
    with pytest.raises(UnsupportedContract):
        b0_theta(StrikeStyle.FLOATING, INTERIOR, I_SIG, I_T, I_R, kind=OptionKind.PUT)


# ------------------------------------------------ the last contract's terms

# bs_*, b0_theta and greeks_* (gamma_factor 0.9) of the fixed call and put at
# INTERIOR and I_K as float.hex, computed before the closed forms shared terms
FIXED_BITS = {
    OptionKind.CALL: ["0x1.b973ee3bea8a0p+0", "-0x1.27ecc4381598cp+3", "0x1.84f60de391957p+6",
                      "0x1.e678c9e677ebep+11", "0x1.98dc345921fb9p+11", "0x1.9bf029a41386fp+2"],
    OptionKind.PUT: ["0x1.8b1cbe868aa60p+0", "-0x1.c19190f0cc2efp+2", "-0x1.5f19ef4a505fap+6",
                     "0x1.b837ca1399cc8p+11", "0x1.3c5a34b365bcep+11", "0x1.df139c27aa51dp+2"],
}


def fixed_bits(kind):
    bs, greeks = (bs_fixed_call, greeks_fixed_call) if kind is OptionKind.CALL else (
        bs_fixed_put, greeks_fixed_put)
    g = greeks(INTERIOR, I_SIG, I_T, I_K, I_R, gamma_factor=0.9)
    theta = b0_theta(StrikeStyle.FIXED, INTERIOR, I_SIG, I_T, I_R, K=I_K, kind=kind)
    return [v.hex() for v in (bs(INTERIOR, I_SIG, I_T, I_K, I_R), theta, g.du1, g.du2, g.du3,
                              g.vega)]


@pytest.mark.parametrize("first, other", [(OptionKind.CALL, OptionKind.PUT),
                                          (OptionKind.PUT, OptionKind.CALL)])
def test_pricing_another_contract_between_leaves_the_bits(first, other):
    """A, then B at the same strike, then A again: the remembered terms of the
    last contract never leak into another's, and a repeat reads the same bits."""
    assert fixed_bits(first) == FIXED_BITS[first]
    assert fixed_bits(other) == FIXED_BITS[other]
    assert fixed_bits(first) == FIXED_BITS[first]


# ------------------------------------------------------- horizon handling


def test_terminal_payoff_branches():
    state_itm = MarketState(t=0.5 - 1e-12, x=100.0, g=90.0)
    state_otm = MarketState(t=0.5 - 1e-12, x=100.0, g=110.0)
    assert rel(bs_floating_call(state_itm, A_SIG, 0.5, A_R), 10.0) < 1e-6
    assert bs_floating_call(state_otm, A_SIG, 0.5, A_R) == 0.0
    assert rel(bs_fixed_call(state_otm, A_SIG, 0.5, 100.0, A_R), 10.0) < 1e-6
    assert rel(bs_fixed_put(state_itm, A_SIG, 0.5, 100.0, A_R), 10.0) < 1e-6


def test_past_maturity_raises():
    state = MarketState(t=0.6, x=100.0, g=100.0)
    with pytest.raises(DegenerateHorizon):
        bs_floating_call(state, A_SIG, 0.5, A_R)
    with pytest.raises(DegenerateHorizon):
        bs_fixed_put(state, A_SIG, 0.5, 100.0, A_R)


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValueError):
        bs_floating_call(ANCHOR, 0.0, A_T, A_R)
    with pytest.raises(NonPositiveStrike):
        bs_fixed_call(ANCHOR, A_SIG, A_T, -5.0, A_R)
