#!/usr/bin/env python3
"""Discretization and sampling error of the Monte Carlo oracle.

Prices an at-the-money floating-strike call under constant volatility, where
the closed form is exact, and tabulates the bias against it: first over a
step-count sweep at fixed paths (trapezoid bias, O(dt^2)), then over a path
sweep at fixed steps (standard error, O(n^-1/2)). With default sizes the
bias is already inside the noise band from ~50 steps on.
"""

import argparse
import sys
import time

from geoasian import (
    ConstantVol,
    MarketState,
    McConfig,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    bs_floating_call,
    price_mc,
    reference_full_model,
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sigma", type=float, default=0.1834)
    p.add_argument("--maturity", type=float, default=0.5)
    p.add_argument("--paths", type=int, default=200_000)
    p.add_argument("--steps", type=int, nargs="+", default=[25, 50, 100, 200])
    p.add_argument("--path-sweep", type=int, nargs="+",
                   default=[10_000, 40_000, 160_000])
    p.add_argument("--sweep-steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=880)
    p.add_argument("--antithetic", action="store_true")
    return p.parse_args(argv)


def row(cfg, est, closed, elapsed):
    bias = est.price - closed
    z = bias / est.std_error
    return (f"{cfg.n_paths:>9} {cfg.n_steps:>6} {est.price:>12.6f} "
            f"{bias:>+10.6f} {est.std_error:>9.6f} {z:>+7.2f} {elapsed:>7.2f}s")


def main(argv=None):
    args = parse_args(argv)
    model = reference_full_model(0.001)
    state = MarketState(t=0.0, x=100.0, g=100.0)
    spec = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL,
                      maturity=args.maturity)
    closed = float(bs_floating_call(state, args.sigma, args.maturity, model.r))
    print(f"closed form: {closed:.6f}  (sigma={args.sigma}, T={args.maturity}, r={model.r})")

    header = f"{'paths':>9} {'steps':>6} {'price':>12} {'bias':>10} {'se':>9} {'z':>7} {'wall':>8}"
    print("\nstep sweep at fixed paths")
    print(header)
    for steps in args.steps:
        cfg = McConfig(n_paths=args.paths, n_steps=steps, seed=args.seed,
                       antithetic=args.antithetic)
        start = time.perf_counter()
        est = price_mc(spec, model, ConstantVol(args.sigma), state, cfg)
        print(row(cfg, est, closed, time.perf_counter() - start))

    print("\npath sweep at fixed steps")
    print(header)
    for paths in args.path_sweep:
        cfg = McConfig(n_paths=paths, n_steps=args.sweep_steps, seed=args.seed,
                       antithetic=args.antithetic)
        start = time.perf_counter()
        est = price_mc(spec, model, ConstantVol(args.sigma), state, cfg)
        print(row(cfg, est, closed, time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
