"""Command-line front end: price, calibrate, validate, smile.

``main`` builds every command's run report and prints it as JSON: the echoed
command, the inputs (every parsed flag but ``--json``, with its default filled
in) with their digest, the outputs, warnings, and wall time. ``smile --out -``
streams its CSV instead. Volatilities are decimals (0.1834, not percent),
times are in years. Exit codes: 0 ok, 2 validation failure, 3 data failure,
4 oracle comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from .calibration import (
    QuoteStyle,
    calibration_report,
    ingest_quotes,
    regression_pairs,
    smile_curve,
)
from .closedform import bs_fixed_call, bs_floating_call
from .errors import DegenerateDesign, PricingError
from .mc import (
    ConstantVol,
    FullModel,
    McConfig,
    mean_and_se,
    price_mc,
    reference_full_model,
    simulate_paths,
    stationary_effective_vol,
)
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    arc_from_ou,
    effective_vol,
    validate_params,
)
from .perturbation import first_order_price

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_COMPARISON = 4

# DegenerateDesign is a PricingError, so main catches it first
_DATA_ERRORS = (DegenerateDesign,)
_VALIDATION_ERRORS = (ValueError, OSError, PricingError)


def _digest(inputs: dict) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _emit(args, outputs, warnings: list[str], t0: float) -> None:
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "json")}
    report = {
        "command": args.command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "outputs": outputs,
        "warnings": warnings,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    # a NaN or infinity would print as invalid JSON; json raises ValueError
    # instead, which main reports as a validation failure
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False))
    else:
        print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


def _add_model_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--k", type=float, required=required, default=None if required else 2.0,
                        help="slow-factor mean-reversion speed (1/year)")
    parser.add_argument("--r", type=float, required=required, default=None if required else 0.0264,
                        help="risk-free rate (1/year)")
    parser.add_argument("--z0", type=float, required=required, default=None if required else 0.1834,
                        help="slow-factor initial level (vol units)")
    parser.add_argument("--alpha-prime", dest="alpha_prime", type=float,
                        required=required, default=None if required else 0.20,
                        help="slow-factor long-run level (vol units)")
    parser.add_argument("--epsilon", type=float, default=0.001, help="fast time scale (years)")
    parser.add_argument("--sigma-min", dest="sigma_min", type=float, default=1e-4,
                        help="floor applied to the effective volatility")
    parser.add_argument("--nu", type=float, default=0.0, help="fast-factor volatility scale")
    parser.add_argument("--alpha", type=float, default=0.0, help="fast-factor long-run mean")
    parser.add_argument("--beta", type=float, default=0.0, help="slow-factor vol-of-vol (MC only)")
    parser.add_argument("--rho-xy", dest="rho_xy", type=float, default=0.0)
    parser.add_argument("--rho-xz", dest="rho_xz", type=float, default=0.0)
    parser.add_argument("--rho-yz", dest="rho_yz", type=float, default=0.0)


def _model_from_args(args) -> ModelParams:
    model = ModelParams(**{f.name: getattr(args, f.name) for f in fields(ModelParams)})
    problems = validate_params(model)
    if problems:
        raise ValueError("; ".join(problems))
    return model


def cmd_price(args, model: ModelParams, arc: VolArc):
    option = OptionSpec(
        style=StrikeStyle(args.style),
        kind=OptionKind(args.kind),
        maturity=args.T,
        strike=args.strike,
    )
    if args.avg is None:
        args.avg = args.spot  # the report echoes the average priced with
    state = MarketState(t=args.t, x=args.spot, g=args.avg)
    breakdown = first_order_price(
        option, state, arc, model, v_eps=args.v_eps, gamma_off=args.gamma_off
    )
    outputs = {
        "b0": breakdown.b0,
        "gamma": breakdown.gamma,
        "c0": breakdown.c0,
        "c1": breakdown.c1,
        "price_hat": breakdown.price_hat,
        "m_exponent": breakdown.m_exponent,
        "sigma_bar": effective_vol(arc, args.t),
    }
    return outputs, _domain_warnings(breakdown), EXIT_OK


def _domain_warnings(breakdown) -> list[str]:
    """One ``domain:`` warning naming each sign that the first-order price
    lies outside the expansion's reliable domain, or none."""
    signs = []
    if breakdown.price_hat <= 0.0:
        signs.append(f"price_hat {breakdown.price_hat:.4g} <= 0")
    if abs(breakdown.c1) > breakdown.c0:
        signs.append(f"|c1| {abs(breakdown.c1):.4g} > c0 {breakdown.c0:.4g}")
    if not 0.5 <= breakdown.gamma <= 2.0:
        signs.append(f"gamma {breakdown.gamma:.4g} outside [0.5, 2]")
    return [f"domain: {'; '.join(signs)}"] if signs else []


def cmd_calibrate(args, model: ModelParams, arc: VolArc):
    ingest = ingest_quotes(args.quotes)
    regression = regression_pairs(ingest.rows, arc, model)
    if args.scatter_out:
        with open(args.scatter_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            writer.writerows(regression[0])
    report = calibration_report(ingest, arc, model, regression)
    warnings = list(report.pop("warnings"))
    if report["rejects"]:
        warnings.append(f"{len(report['rejects'])} quote(s) rejected; see rejects[]")
    return report, warnings, EXIT_OK


def cmd_validate(args, model: ModelParams, arc: VolArc):
    cfg = McConfig(
        n_paths=args.paths, n_steps=args.steps, seed=args.seed, antithetic=True
    )
    warnings: list[str] = []
    if args.paths < 1000:
        warnings.append("underpowered: n_paths < 1000, standard errors will be wide")

    sigma = args.sigma
    T = args.T
    spot = args.spot
    state = MarketState(t=0.0, x=spot, g=spot)
    vol = ConstantVol(sigma)

    # one seeded path set serves the martingale check and every payoff
    batch = simulate_paths(model, vol, 0.0, T, spot, spot, cfg)
    mart, mart_se = mean_and_se(np.exp(batch.ln_x), cfg.antithetic, scale=math.exp(-model.r * T))
    comparisons = [("martingale e^{-rT} E[X_T]", spot, mart, mart_se)]

    tiny = 1e-6 * spot
    for name, spec, closed in (
        ("floating ATM call", OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=T),
         bs_floating_call(state, sigma, T, model.r)),
        ("fixed ATM call", OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=spot),
         bs_fixed_call(state, sigma, T, spot, model.r)),
        ("fixed call, K near 0", OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=tiny),
         bs_fixed_call(state, sigma, T, tiny, model.r)),
    ):
        est = price_mc(spec, model, vol, state, cfg, paths=batch)
        comparisons.append((name, closed, est.price, est.std_error))

    rows = []
    all_pass = True
    for name, closed, mc, se in comparisons:
        closed, mc, se = float(closed), float(mc), float(se)
        z = (mc - closed) / se if se > 0 else 0.0
        ok = abs(z) < 3.0
        all_pass &= ok
        rows.append(
            {"name": name, "closed": closed, "mc": mc, "se": se, "z": z, "pass": ok}
        )

    outputs = {"comparisons": rows, "mode": args.mode}
    if args.mode == "full":
        direction = _epsilon_direction(args, cfg)
        outputs["epsilon_direction"] = direction
        all_pass &= direction["pass"]
    return outputs, warnings, EXIT_OK if all_pass else EXIT_COMPARISON


def _epsilon_direction(args, cfg: McConfig) -> dict:
    """|MC - C0| at the money should be weakly smaller for smaller epsilon.

    The C0 target uses the stationary averaged volatility of the reference
    volatility function on a level arc; a sloped arc would add an
    epsilon-independent gap (the zeroth order freezes the arc at the pricing
    time) that drowns the effect being checked.
    """
    state = MarketState(t=0.0, x=args.spot, g=args.spot)
    T = args.T
    option = OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=T)
    results = {}
    for label, eps in (("big", 0.1), ("small", 0.001)):
        model = reference_full_model(eps)
        sig_hom = stationary_effective_vol(model.z0, model.nu)
        flat = VolArc(p_coef=0.0, q_coef=0.0, r_coef=sig_hom, sigma_min=args.sigma_min)
        c0 = float(first_order_price(option, state, flat, model, v_eps=0.0).c0)
        est = price_mc(option, model, FullModel(), state, cfg)
        results[label] = {
            "epsilon": eps,
            "c0": c0,
            "mc": est.price,
            "se": est.std_error,
            "se_plain": est.std_error_plain,
            "abs_dev": abs(est.price - c0),
        }
    slack = 3.0 * (results["big"]["se"] + results["small"]["se"])
    ok = results["small"]["abs_dev"] <= results["big"]["abs_dev"] + slack
    return {"big": results["big"], "small": results["small"], "slack": slack, "pass": ok}


def cmd_smile(args, model: ModelParams, arc: VolArc):
    try:
        lo, hi, count = args.grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise ValueError(f'--grid must look like "lo:hi:n", got {args.grid!r}') from None
    points = smile_curve(
        arc,
        model,
        args.v_eps,
        QuoteStyle(args.style),
        [(args.t, args.T, float(m)) for m in grid],
        spot=args.spot,
    )
    skipped = [p for p in points if p.implied_vol is None]
    warnings = [
        f"moneyness {p.moneyness:g} skipped: {p.note}" for p in skipped
    ]

    def write_rows(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["maturity", "moneyness", "implied_vol"])
        for p in points:
            writer.writerow(
                [p.maturity, p.moneyness, "" if p.implied_vol is None else p.implied_vol]
            )

    if args.out == "-":
        write_rows(sys.stdout)
        for line in warnings:
            print(line, file=sys.stderr)
        return None, warnings, EXIT_OK
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        write_rows(handle)
    outputs = {"csv": args.out, "points": len(points), "skipped": len(skipped)}
    return outputs, warnings, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoasian",
        description="Geometric Asian option pricing under two-factor stochastic volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="first-order price with component breakdown")
    _add_model_flags(p, required=True)
    p.add_argument("--style", choices=["floating", "fixed"], required=True)
    p.add_argument("--kind", choices=["call", "put"], required=True)
    p.add_argument("--spot", type=float, required=True, help="spot price")
    p.add_argument("--avg", type=float, default=None,
                   help="running geometric average (defaults to spot)")
    p.add_argument("--strike", type=float, default=None, help="fixed strike K")
    p.add_argument("--t", type=float, required=True, help="valuation time (years)")
    p.add_argument("--T", type=float, required=True, help="maturity (years)")
    p.add_argument("--v-eps", dest="v_eps", type=float, default=0.0,
                   help="calibrated group parameter sqrt(eps)*V")
    p.add_argument("--gamma-off", dest="gamma_off", action="store_true",
                   help="pin the modification factor at 1")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("calibrate", help="regress quotes into a_eps and v_eps per cell")
    _add_model_flags(p, required=True)
    p.add_argument("--quotes", required=True, help="quotes CSV path")
    p.add_argument("--scatter-out", dest="scatter_out", default=None,
                   help="write regression (x,y) pairs to this CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="Monte Carlo vs closed-form oracle suite")
    _add_model_flags(p, required=False)
    p.add_argument("--paths", type=int, default=200000)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--mode", choices=["constant", "full"], default="constant",
                   help="constant: closed-form comparisons; full: adds the epsilon sweep")
    p.add_argument("--sigma", type=float, default=0.1834, help="constant-mode volatility")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("smile", help="first-order implied-vol curve export")
    _add_model_flags(p, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--grid", default="0.8:1.2:17", help='moneyness grid "lo:hi:n"')
    p.add_argument("--style", choices=[s.value for s in QuoteStyle],
                   default=QuoteStyle.FLOATING_CALL.value)
    p.add_argument("--v-eps", dest="v_eps", type=float, default=0.0)
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--out", default="-", help="smile CSV path ('-' for stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_smile)

    return parser


def _fail(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and print its run report; returns the exit code.

    Each ``cmd_*`` returns ``(outputs, warnings, exit_code)``; outputs of
    None mean the command printed its own result and there is no report.
    """
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        model = _model_from_args(args)
        arc = arc_from_ou(model.k, model.alpha_prime, model.z0, sigma_min=args.sigma_min)
        outputs, warnings, code = args.func(args, model, arc)
        if outputs is not None:
            _emit(args, outputs, warnings, t0)
        return code
    except _DATA_ERRORS as exc:
        _fail(exc)
        return EXIT_DATA
    except _VALIDATION_ERRORS as exc:
        _fail(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
