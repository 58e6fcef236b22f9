#!/usr/bin/env python3
"""Round-trip calibration experiment on synthetic quote files.

Generates implied-vol quotes from the engine at a known group parameter
v_eps across several window points, perturbs the vols with Gaussian noise,
writes them in the quote-CSV format the calibrate command ingests, then runs
the calibration report on that file and compares the recovered per-cell
v_eps against the truth. With --noise 0 and a single window point
(--times 0.1) the recovery is exact to rounding. Over several window points
it is not: one slope is pooled over cells whose regressors carry different
denominators, so each cell's v_eps misses by up to about 1e-3 (6% of the
default v_eps) even without noise.
"""

import argparse
import sys

import numpy as np

from geoasian import (
    QuoteStyle,
    arc_from_ou,
    calibration_report,
    ingest_quotes,
    reference_full_model,
    smile_curve,
)

SPOT = 100.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--v-eps", type=float, default=-0.016)
    p.add_argument("--times", type=float, nargs="+", default=[0.05, 0.1, 0.15])
    p.add_argument("--maturity", type=float, default=0.45)
    p.add_argument("--per-cell", type=int, default=15)
    p.add_argument("--noise", type=float, default=2e-4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="synthetic_quotes.csv")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    model = reference_full_model(0.001)
    arc = arc_from_ou(model.k, 0.20, 0.1834)
    rng = np.random.default_rng(args.seed)
    mons = np.linspace(0.95, 1.05, args.per_cell)

    lines = ["t,T,spot,avg,strike,style,implied_vol"]
    for style in QuoteStyle:
        for t in args.times:
            grid = [(t, args.maturity, float(m)) for m in mons]
            for point in smile_curve(arc, model, args.v_eps, style, grid):
                if point.implied_vol is None:
                    print(f"skipped {style.value} at t={t}: {point.note}",
                          file=sys.stderr)
                    continue
                vol = float(point.implied_vol + rng.normal(0.0, args.noise))
                if vol <= 0.0:
                    print(f"dropped {style.value} at t={t}, mon={point.moneyness:.3f}: "
                          f"first-order vol {vol:.4f} <= 0", file=sys.stderr)
                    continue
                avg = point.moneyness * SPOT
                strike = "" if style is QuoteStyle.FLOATING_CALL else f"{SPOT}"
                lines.append(f"{point.t},{point.maturity},{SPOT},{avg},"
                             f"{strike},{style.value},{vol!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    report = calibration_report(ingest_quotes(args.out), arc, model)
    print(f"wrote {len(lines) - 1} quotes to {args.out}  (true v_eps {args.v_eps})")
    print(f"pooled slope a_eps = {report['a_eps']:.6f}, r^2 = {report['r_squared']:.6f}, "
          f"n = {report['n']}, rejects = {len(report['rejects'])}")
    print(f"{'t':>6} {'T':>6} {'quotes':>7} {'v_eps':>10} {'error':>10}")
    for cell in report["v_eps_by_cell"]:
        print(f"{cell['t']:>6.2f} {cell['T']:>6.2f} {cell['n']:>7} "
              f"{cell['v_eps']:>10.6f} {cell['v_eps'] - args.v_eps:>+10.2e}")
    lo, hi = report["v_eps_range"]
    print(f"cell range [{lo:.6f}, {hi:.6f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
