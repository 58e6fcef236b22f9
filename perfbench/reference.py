"""Reference prices in mpmath, made apart from the package.

B0 comes from the joint log-normal law of (ln X_T, ln G_T) under constant
volatility, derived here rather than taken from the package:

    ln X_T ~ N(s + (r - sigma^2/2) tau, sigma^2 tau)
    ln G_T ~ N(m, v),  m = s + u/T + (r - sigma^2/2) tau^2 / (2T),
                       v = sigma^2 tau^3 / (3 T^2)
    cov(ln X_T, ln G_T) = sigma^2 tau^2 / (2T),   tau = T - t,

and the fixed put is priced directly, not by parity. theta and the
u-derivatives are taken by ``mpmath.diff``, the I-integrals by ``mpmath.quad``,
and gamma and the correction follow the paper's formulas. The first-order
smile vol is ``sigma + v_eps * c1_unit / vega``, with vega = dB0/dsigma by
``mpmath.diff``; gamma scales both c1_unit and vega and drops out.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def b0(style: str, kind: str, s, u, t, T, sigma, r, K=None):
    """Constant-volatility geometric-Asian price at (s, u, t)."""
    s, u, t, T, sigma, r = (mp.mpf(v) for v in (s, u, t, T, sigma, r))
    tau = T - t
    var_x = sigma ** 2 * tau
    mean_g = s + u / T + (r - sigma ** 2 / 2) * tau ** 2 / (2 * T)
    var_g = sigma ** 2 * tau ** 3 / (3 * T ** 2)
    fwd_g = mp.exp(-r * tau + mean_g + var_g / 2)
    if style == "floating":
        cov = sigma ** 2 * tau ** 2 / (2 * T)
        mean_a = s + (r - sigma ** 2 / 2) * tau - mean_g
        sd_a = mp.sqrt(var_x + var_g - 2 * cov)
        return (mp.exp(s) * mp.ncdf((mean_a + var_x - cov) / sd_a)
                - fwd_g * mp.ncdf((mean_a + cov - var_g) / sd_a))
    K = mp.mpf(K)
    d2 = (mean_g - mp.log(K)) / mp.sqrt(var_g)
    d1 = d2 + mp.sqrt(var_g)
    disc = K * mp.exp(-r * tau)
    if kind == "call":
        return fwd_g * mp.ncdf(d1) - disc * mp.ncdf(d2)
    return disc * mp.ncdf(-d2) - fwd_g * mp.ncdf(-d1)


def i_integrals(k, t, T):
    """I0..I5: integrals over [t, T] of tau^n w and (T - tau)^n w, w = 2(1 - k tau)/(2 - k tau)^2."""
    k, t, T = mp.mpf(k), mp.mpf(t), mp.mpf(T)

    def w(tau):
        return 2 * (1 - k * tau) / (2 - k * tau) ** 2

    powers = [mp.quad(lambda tau, n=n: tau ** n * w(tau), [t, T]) for n in range(4)]
    i4 = mp.quad(lambda tau: (T - tau) ** 2 * w(tau), [t, T])
    i5 = mp.quad(lambda tau: (T - tau) ** 3 * w(tau), [t, T])
    return (*powers, i4, i5)


def first_order_price(style, kind, t, T, x, g, K, sigma, k, r, v_eps):
    """(gamma B0 + c1, gamma B0) at one contract, in mpmath."""
    with mp.workdps(DPS):
        s = mp.log(x)
        u = mp.mpf(t) * (mp.log(g) - mp.log(x))
        t, T, k = mp.mpf(t), mp.mpf(T), mp.mpf(k)
        base = b0(style, kind, s, u, t, T, sigma, r, K)
        theta = mp.diff(lambda tt: b0(style, kind, s, u, tt, T, sigma, r, K), t)
        wt, wT = 2 - k * t, 2 - k * T
        gamma = mp.exp(theta / base * ((2 / k) * mp.log(wT / wt) + (T - t) * (wt * wT + 2) / (wt * wT)))
        du = [gamma * mp.diff(lambda uu: b0(style, kind, s, uu, t, T, sigma, r, K), u, n)
              for n in (1, 2, 3)]
        c0 = gamma * base
        if v_eps == 0:
            return c0, c0
        _, i1, i2, i3, i4, i5 = i_integrals(k, t, T)
        if style == "floating":
            c1 = v_eps * (i1 * du[0] - 2 * i2 * du[1] + i3 * du[2])
        else:
            c1 = v_eps * (i4 * du[1] - i5 * du[2])
        return c0 + c1, c0


def smile_vol(style, kind, t, T, x, g, K, sigma, k, r, v_eps):
    """First-order implied vol sigma + v_eps c1_unit / vega at one quote, in mpmath."""
    with mp.workdps(DPS):
        s = mp.log(x)
        u = mp.mpf(t) * (mp.log(g) - mp.log(x))
        sigma = mp.mpf(sigma)
        du = [mp.diff(lambda uu: b0(style, kind, s, uu, t, T, sigma, r, K), u, n) for n in (1, 2, 3)]
        vega = mp.diff(lambda vol: b0(style, kind, s, u, t, T, vol, r, K), sigma)
        _, i1, i2, i3, i4, i5 = i_integrals(k, t, T)
        if style == "floating":
            c1_unit = i1 * du[0] - 2 * i2 * du[1] + i3 * du[2]
        else:
            c1_unit = i4 * du[1] - i5 * du[2]
        return sigma + v_eps * c1_unit / vega
