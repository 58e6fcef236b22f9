"""Command-line front end: price, calibrate, validate, smile.

``main`` builds every command's run report and prints it as JSON: the echoed
command, the inputs (every parsed flag but ``--json``, with its default filled
in) with their digest, the outputs, warnings, and wall time. ``smile --out -``
streams its CSV instead. Volatilities are decimals (0.1834, not percent),
times are in years. Each command takes only the flags that move its outputs:
``price``, ``calibrate`` and ``smile`` see the fast factor only through
the group v_eps = sqrt(eps) V, so their model's eps is fixed, and ``smile``
prices at spot 100, since its curve depends on moneyness alone. No command
re-checks a flag that a record checks when built: ``ModelParams`` refuses a
bad model flag with its ``PricingError`` class. Exit codes: 0 ok, 2
validation failure, 3 data failure, 4 oracle comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .calibration import (
    QuoteStyle,
    calibration_report,
    ingest_quotes,
    regression_pairs,
    smile_curve,
)
from .closedform import HORIZON_TOL, bs_fixed_call, bs_floating_call
from .errors import (
    DegenerateDesign,
    DegenerateHorizon,
    OutOfDomain,
    UnparseableField,
    require_finite,
)
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
    SIGMA_MIN_DEFAULT,
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    VolArc,
    arc_from_ou,
    effective_vol,
)
from .perturbation import first_order_price

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_COMPARISON = 4

_VALIDATION_ERRORS = (ValueError, OSError)

# validate's floor under a row's SE, in units in the last place of the spot:
# the gaps from rounding alone reach about 7 such units at --sigma 1e-9
_SE_FLOOR_ULPS = 64

# the model eps of price, calibrate and smile, which moves none of their
# outputs (it cancels in calibrate's v_eps = sqrt(eps) V)
_EPSILON = 0.001


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


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=float, required=True,
                        help="slow-factor mean-reversion speed (1/year)")
    parser.add_argument("--r", type=float, required=True, help="risk-free rate (1/year)")
    parser.add_argument("--z0", type=float, required=True,
                        help="slow-factor initial level (vol units)")
    parser.add_argument("--alpha-prime", dest="alpha_prime", type=float, required=True,
                        help="slow-factor long-run level (vol units)")
    parser.add_argument("--sigma-min", dest="sigma_min", type=float, default=SIGMA_MIN_DEFAULT,
                        help="floor applied to the effective volatility")


def _model_and_arc(args) -> tuple[ModelParams, VolArc]:
    model = ModelParams(r=args.r, k=args.k, alpha_prime=args.alpha_prime, z0=args.z0,
                        epsilon=_EPSILON)
    return model, arc_from_ou(model.k, model.alpha_prime, model.z0, sigma_min=args.sigma_min)


def cmd_price(args):
    model, arc = _model_and_arc(args)
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


def cmd_calibrate(args):
    model, arc = _model_and_arc(args)
    ingest = ingest_quotes(args.quotes)
    regression = regression_pairs(ingest.rows, arc, model)
    if args.scatter_out:
        with open(args.scatter_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            writer.writerows(regression[0])
    report = calibration_report(ingest, arc, model, regression)
    warnings = []
    if report["rejects"]:
        warnings.append(f"{len(report['rejects'])} quote(s) rejected; see rejects[]")
    return report, warnings, EXIT_OK


def cmd_validate(args):
    # a constant-vol run reads only r; --mode full prices reference_full_model
    model = replace(reference_full_model(0.001), r=args.r)
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
    # below HORIZON_TOL the closed forms give the terminal payoff, which no
    # path of a positive horizon matches; a NaN or T <= 0 is refused below
    if 0.0 < T < HORIZON_TOL:
        raise DegenerateHorizon(f"--T {T} below {HORIZON_TOL}")

    # the closed forms first: they refuse what they cannot price (sigma = 0)
    # before a path is drawn
    tiny = 1e-6 * spot
    payoffs = (
        ("floating ATM call", OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=T),
         bs_floating_call(state, sigma, T, model.r)),
        ("fixed ATM call", OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=spot),
         bs_fixed_call(state, sigma, T, spot, model.r)),
        ("fixed call, K near 0", OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=tiny),
         bs_fixed_call(state, sigma, T, tiny, model.r)),
    )

    # one seeded path set serves the martingale check and every payoff
    batch = simulate_paths(model, vol, 0.0, T, spot, spot, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mart, mart_se = mean_and_se(batch.x, cfg.antithetic, math.exp(-model.r * T))
    if not (math.isfinite(mart) and math.isfinite(mart_se)):
        raise OutOfDomain(f"the martingale mean is not finite: {mart}, SE {mart_se}")
    comparisons = [("martingale e^{-rT} E[X_T]", spot, mart, mart_se)]
    for name, spec, closed in payoffs:
        est = price_mc(spec, model, vol, state, cfg, paths=batch)
        comparisons.append((name, closed, est.price, est.std_error))

    # every row's prices are differences of terms of the spot's size, so
    # their rounding sets a floor under the SE that scales the gap; it binds
    # only where the paths have almost no spread (--sigma 1e-9, or SE 0)
    se_floor = _SE_FLOOR_ULPS * math.ulp(spot)
    rows = []
    all_pass = True
    for name, closed, mc, se in comparisons:
        closed, mc, se = float(closed), float(mc), float(se)
        z = (mc - closed) / max(se, se_floor)
        ok = abs(z) < 3.0
        all_pass &= ok
        rows.append({"name": name, "closed": closed, "mc": mc, "se": se,
                     "z": z if abs(z) < math.inf else None, "pass": ok})

    outputs = {"comparisons": rows, "mode": args.mode}
    if args.mode == "full":
        direction = _epsilon_direction(args, cfg)
        outputs["epsilon_direction"] = direction
        all_pass &= direction["pass"]
    return outputs, warnings, EXIT_OK if all_pass else EXIT_COMPARISON


def _epsilon_direction(args, cfg: McConfig) -> dict:
    """|MC - C0| at the money should be weakly smaller for smaller epsilon.

    The C0 target prices on a level arc at the stationary averaged volatility
    of the reference volatility function, about 0.2007, far above the arc's
    default floor; a sloped arc would add an epsilon-independent gap (the
    zeroth order freezes the arc at the pricing time) that drowns the effect
    being checked.
    """
    state = MarketState(t=0.0, x=args.spot, g=args.spot)
    T = args.T
    option = OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=T)
    results = {}
    for label, eps in (("big", 0.1), ("small", 0.001)):
        model = reference_full_model(eps)
        flat = VolArc(p_coef=0.0, q_coef=0.0, r_coef=stationary_effective_vol(model.z0, model.nu))
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


def cmd_smile(args):
    model, arc = _model_and_arc(args)
    require_finite(**{"--t": args.t, "--T": args.T})
    # every point would be flagged and the CSV left empty
    if not 0.0 <= args.t < args.T:
        raise OutOfDomain(f"need 0 <= --t < --T, got --t {args.t}, --T {args.T}")
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UnparseableField(f'--grid must look like "lo:hi:n", got {args.grid!r}') from None
    require_finite(**{"--grid lo": lo, "--grid hi": hi})
    if count < 1:
        raise OutOfDomain(f"--grid needs at least 1 point, got {count}")
    grid = np.linspace(lo, hi, count)
    points = smile_curve(
        arc,
        model,
        args.v_eps,
        QuoteStyle(args.style),
        [(args.t, args.T, float(m)) for m in grid],
    )
    skipped = [p for p in points if p.implied_vol is None]
    warnings = []
    for p in points:
        if p.implied_vol is None:
            warnings.append(f"moneyness {p.moneyness:g} skipped: {p.note}")
        elif p.implied_vol <= 0.0:
            # the first-order vol is a linear correction, free to cross 0
            warnings.append(f"domain: moneyness {p.moneyness:g} implied_vol "
                            f"{p.implied_vol:.4g} <= 0")

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


def _price_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
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


def _calibrate_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--quotes", required=True, help="quotes CSV path")
    p.add_argument("--scatter-out", dest="scatter_out", default=None,
                   help="write regression (x,y) pairs to this CSV")


def _validate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=0.0264,
                   help="risk-free rate of the constant-vol comparisons (1/year)")
    p.add_argument("--paths", type=int, default=200000)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--mode", choices=["constant", "full"], default="constant",
                   help="constant: closed-form comparisons; full: adds the epsilon sweep")
    p.add_argument("--sigma", type=float, default=0.1834, help="constant-mode volatility")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--T", type=float, default=0.5)


def _smile_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--grid", default="0.8:1.2:17", help='moneyness grid "lo:hi:n"')
    p.add_argument("--style", choices=[s.value for s in QuoteStyle],
                   default=QuoteStyle.FLOATING_CALL.value)
    p.add_argument("--v-eps", dest="v_eps", type=float, default=0.0)
    p.add_argument("--out", default="-", help="smile CSV path ('-' for stdout)")


# each command's help line, the function that adds its flags and the one that
# runs it, in the order the top-level usage lists them
_COMMANDS = {
    "price": ("first-order price with component breakdown", _price_flags, cmd_price),
    "calibrate": ("regress quotes into a_eps and v_eps per cell", _calibrate_flags,
                  cmd_calibrate),
    "validate": ("Monte Carlo vs closed-form oracle suite", _validate_flags, cmd_validate),
    "smile": ("first-order implied-vol curve export", _smile_flags, cmd_smile),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with ``command``, only that command gets its flags.

    Every command is registered either way, so the top-level usage and errors
    are the same, and ``command``'s own help and errors are those of the full
    parser.
    """
    parser = argparse.ArgumentParser(
        prog="geoasian",
        description="Geometric Asian option pricing under two-factor stochastic volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_flags(p)
            p.add_argument("--json", action="store_true", help="compact single-line JSON")
            p.set_defaults(func=func)
    return parser


def _fail(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and print its run report; returns the exit code.

    Each ``cmd_*`` returns ``(outputs, warnings, exit_code)``; outputs of
    None mean the command printed its own result and there is no report.
    """
    if argv is None:
        argv = sys.argv[1:]
    # a command's run reads only its own flags, so build only those
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    t0 = time.perf_counter()
    try:
        outputs, warnings, code = args.func(args)
        if outputs is not None:
            _emit(args, outputs, warnings, t0)
        return code
    except DegenerateDesign as exc:  # a ValueError too, so it is caught first
        _fail(exc)
        return EXIT_DATA
    except _VALIDATION_ERRORS as exc:
        _fail(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
