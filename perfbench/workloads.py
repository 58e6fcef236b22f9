"""Workload inputs and the one operation each workload repeats.

Inputs are made from the seed with numpy and the formulas below; no code of
the package is used to make them, so a change to the package cannot change
what it is asked to do. Every operation looks up the package function through
its module attribute at call time, so the traced run (which replaces those
attributes with timing wrappers) runs exactly the same code path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geoasian import cli, mc, model, perturbation

SPOT = 100.0
K_SPEED = 2.0
RATE = 0.0264
Z0 = 0.1834
ALPHA_PRIME = 0.20
EPSILON = 0.001
SIGMA_MIN = 1e-4
V_EPS = -0.016
MODEL_FLAGS = ["--k", "2.0", "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.2"]

# book: a Latin-hypercube sample per contract kind, inside the admissible
# domain (kt < 1, kT < 1, T - t >= 0.1, strikes within 1.5 standard
# deviations of the average's log-normal mean), so no contract is refused
BOOK_PER_KIND = 2048
BOOK_T = (0.02, 0.30)
BOOK_MIN_LIFE = 0.10
BOOK_MAX_T = 0.48
BOOK_AVG_MONEYNESS = (0.95, 1.05)
BOOK_STRIKE_SD = 1.5
BOOK_KINDS = (("floating", "call"), ("fixed", "call"), ("fixed", "put"))

# calibrate: both quote styles on a fixed moneyness grid in every (t, T) cell
CAL_TIMES = (0.05, 0.10, 0.15, 0.20)
CAL_MATURITIES = (0.30, 0.40, 0.45)
CAL_GRID = (0.97, 1.03, 25)
CAL_SKEW = -0.30
CAL_NOISE = 5e-4
SMILE_GRID = "0.95:1.05:41"
# the noise-free round-trip check: one cell, both styles, on this moneyness grid
ROUND_TRIP_GRID = tuple(float(m) for m in np.linspace(0.97, 1.03, 13))

# validate and mc_full: fixed sizes and fixed simulator seeds, as a user
# would run a reproducible check. Both keep the CLI's default 200 steps.
# validate takes half of the CLI's default 200000 paths with the default
# chunking: each simulation spans two chunks of the size a default run uses
# (2^23 words, 41943 draw paths). mc_full sets McConfig.chunk_size so that a
# call spans two chunks of 12500-element vectors: calls over default-size
# chunks (64 MB per array) varied too much from process to process for a
# steady median (see README.md).
VALIDATE_PATHS = 100_000
VALIDATE_STEPS = 200
VALIDATE_SEED = 1234
MC_PATHS = 25_000
MC_STEPS = 200
MC_CHUNK = 6250
MC_SEED = 2024
MC_EPSILON = 0.001
MC_MATURITY = 0.5

TARGET_SE_PRICE = 0.01  # target standard error of mc_full's price, spot 100


def arc_sigma(t: float) -> float:
    """The slow factor's quadratic arc at t, floored (the model's definition)."""
    gap = Z0 - ALPHA_PRIME
    return max(SIGMA_MIN, gap * K_SPEED ** 2 / 2.0 * t * t - gap * K_SPEED * t + Z0)


def _lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin-hypercube points in [0, 1)^dims: one point per stratum per axis."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.random((n, dims))) / n


@dataclass(frozen=True)
class Contract:
    style: str
    kind: str
    t: float
    T: float
    x: float
    g: float
    strike: float | None


def make_book(seed: int) -> list[Contract]:
    rng = np.random.default_rng([seed, 1])
    book: list[Contract] = []
    for style, kind in BOOK_KINDS:
        u = _lhs(rng, BOOK_PER_KIND, 4)
        for a, b, c, d in u:
            t = BOOK_T[0] + a * (BOOK_T[1] - BOOK_T[0])
            T = t + BOOK_MIN_LIFE + b * (BOOK_MAX_T - t - BOOK_MIN_LIFE)
            g = SPOT * (BOOK_AVG_MONEYNESS[0] + c * (BOOK_AVG_MONEYNESS[1] - BOOK_AVG_MONEYNESS[0]))
            strike = None
            if style == "fixed":
                sigma = arc_sigma(t)
                tau = T - t
                mean = math.log(SPOT) + t * math.log(g / SPOT) / T + (RATE - sigma ** 2 / 2) * tau ** 2 / (2 * T)
                sd = sigma / T * math.sqrt(tau ** 3 / 3)
                strike = math.exp(mean + (2.0 * d - 1.0) * BOOK_STRIKE_SD * sd)
            book.append(Contract(style, kind, float(t), float(T), SPOT, float(g), strike))
    order = rng.permutation(len(book))
    return [book[i] for i in order]


def book_ops(book: list[Contract]):
    """(contract options, a pricing op); the op builds the state and prices one contract."""
    params = model.ModelParams(r=RATE, k=K_SPEED, alpha_prime=ALPHA_PRIME, z0=Z0, epsilon=EPSILON)
    arc = model.arc_from_ou(K_SPEED, ALPHA_PRIME, Z0, sigma_min=SIGMA_MIN)
    options = [
        model.OptionSpec(model.StrikeStyle(c.style), model.OptionKind(c.kind), c.T, c.strike)
        for c in book
    ]

    def price(option, c: Contract):
        state = model.MarketState(t=c.t, x=c.x, g=c.g)
        return perturbation.first_order_price(option, state, arc, params, V_EPS)

    return options, price


def make_quotes(seed: int) -> list[tuple]:
    """Noisy quotes: arc vol plus a skew growing like sqrt(t), plus Gaussian noise."""
    rng = np.random.default_rng([seed, 2])
    grid = np.linspace(*CAL_GRID)
    rows = []
    for t in CAL_TIMES:
        for T in CAL_MATURITIES:
            for style in ("floating_call", "fixed_put"):
                noise = rng.normal(0.0, CAL_NOISE, grid.size)
                for m, e in zip(grid, noise):
                    vol = arc_sigma(t) + CAL_SKEW * math.sqrt(t) * (m - 1.0) + e
                    strike = "" if style == "floating_call" else SPOT
                    rows.append((t, T, SPOT, float(m * SPOT), strike, style, float(vol)))
    return rows


def write_quotes(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "T", "spot", "avg", "strike", "style", "implied_vol"])
        writer.writerows(rows)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process command, as the installed entry point runs it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class CalibrateFiles:
    quotes: Path
    scatter: Path
    smile: Path


def calibrate_op(files: CalibrateFiles):
    """geoasian calibrate --scatter-out, then geoasian smile at the first cell's v_eps.

    Returns the exit code of the last command run and the calibrate report.
    """
    code, out = run_cli(["calibrate", *MODEL_FLAGS, "--quotes", str(files.quotes),
                         "--scatter-out", str(files.scatter), "--json"])
    if code != 0:
        return code, None
    report = json.loads(out)
    cell = report["outputs"]["v_eps_by_cell"][0]
    code, _ = run_cli(["smile", *MODEL_FLAGS, "--t", repr(cell["t"]), "--T", repr(cell["T"]),
                       "--grid", SMILE_GRID, "--v-eps", repr(cell["v_eps"]),
                       "--out", str(files.smile), "--json"])
    return code, report


VALIDATE_ARGV = ["validate", "--paths", str(VALIDATE_PATHS), "--steps", str(VALIDATE_STEPS),
                 "--seed", str(VALIDATE_SEED), "--mode", "constant", "--json"]


def validate_op():
    code, out = run_cli(VALIDATE_ARGV)
    return code, (json.loads(out) if code == 0 else None)


def mc_full_setup():
    option = model.OptionSpec(model.StrikeStyle.FLOATING, model.OptionKind.CALL, MC_MATURITY)
    state = model.MarketState(t=0.0, x=SPOT, g=SPOT)
    params = mc.reference_full_model(MC_EPSILON)
    return option, state, params


def mc_full_op(option, state, params, chunk_size=MC_CHUNK):
    cfg = mc.McConfig(n_paths=MC_PATHS, n_steps=MC_STEPS, seed=MC_SEED,
                      antithetic=True, chunk_size=chunk_size)
    return mc.price_mc(option, params, mc.FullModel(), state, cfg)
