"""Correctness checks on the outputs the workloads produce.

Each check returns a list of failure messages (empty when the output is
correct). None of them compares against a stored copy of earlier output: the
references are computed here in mpmath, or are properties the method must
have. ``tests/test_checks.py`` shows that each one fails on a perturbed output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from . import reference
from . import workloads as w

BOOK_SAMPLE = 12
BOOK_TOL_SPOT = 1e-9  # |price_hat - reference| <= BOOK_TOL_SPOT * spot
ROUND_TRIP_REL = 1e-6
SLOPE_REL = 1e-9
VALIDATE_Z = 3.0
VALIDATE_CLOSED_TOL_SPOT = 1e-10
MC_FULL_BAND = 0.02  # |price - stationary-vol C0| <= MC_FULL_BAND * C0


def book_sample(book: list, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 3])
    return sorted(int(i) for i in rng.choice(len(book), BOOK_SAMPLE, replace=False))


def check_book(contracts: list, prices: list[float]) -> list[str]:
    """Each price_hat against the mpmath first-order price of the same contract."""
    problems = []
    for c, got in zip(contracts, prices):
        want, _ = reference.first_order_price(
            c.style, c.kind, c.t, c.T, c.x, c.g, c.strike, w.arc_sigma(c.t), w.K_SPEED, w.RATE, w.V_EPS
        )
        err = abs(float(want) - got)
        if not err <= BOOK_TOL_SPOT * c.x:
            problems.append(f"book: {c} price_hat {got!r} vs mpmath {float(want)!r} (err {err:.3g})")
    return problems


def check_all_finite(name: str, values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{name}: {len(bad)} non-finite outputs"] if bad else []


def check_round_trip(v_recovered: float, v_true: float) -> list[str]:
    if abs(v_recovered - v_true) <= ROUND_TRIP_REL * abs(v_true):
        return []
    return [f"calibrate: noise-free round trip gave v_eps {v_recovered!r}, true {v_true!r}"]


def read_csv_rows(path) -> list[list[str]]:
    """The rows of a CSV file the program wrote, header dropped."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def read_scatter(path) -> list[tuple[float, float]]:
    return [(float(x), float(y)) for x, y in read_csv_rows(path)]


def check_slope(a_eps: float, pairs: list[tuple[float, float]], n_quotes: int) -> list[str]:
    """The reported pooled slope against numpy.polyfit on the --scatter-out pairs."""
    if len(pairs) != n_quotes:
        return [f"calibrate: scatter has {len(pairs)} pairs for {n_quotes} quotes"]
    x, y = np.array(pairs).T
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope - a_eps) <= SLOPE_REL * abs(slope):
        return []
    return [f"calibrate: a_eps {a_eps!r} vs polyfit slope {slope!r}"]


def read_smile(path) -> list[str]:
    return [row[2] for row in read_csv_rows(path)]


def check_smile(vols: list[str], n_points: int) -> list[str]:
    """Every admissible (non-empty) smile point is a finite positive vol."""
    if len(vols) != n_points:
        return [f"smile: {len(vols)} rows for a {n_points}-point grid"]
    admissible = [float(v) for v in vols if v != ""]
    if not admissible:
        return ["smile: no admissible point"]
    bad = [v for v in admissible if not (math.isfinite(v) and v > 0.0)]
    return [f"smile: {len(bad)} admissible points not finite and positive"] if bad else []


def validate_reference(spot: float, sigma: float, T: float, r: float) -> dict[str, float]:
    """mpmath closed forms of the two at-the-money prices the command reports."""
    s = math.log(spot)
    return {
        "floating ATM call": float(reference.b0("floating", "call", s, 0, 0, T, sigma, r)),
        "fixed ATM call": float(reference.b0("fixed", "call", s, 0, 0, T, sigma, r, spot)),
    }


def check_validate(code: int, report: dict | None, ref: dict[str, float], spot: float) -> list[str]:
    if code != 0 or report is None:
        return [f"validate: exit code {code}"]
    rows = {row["name"]: row for row in report["outputs"]["comparisons"]}
    problems = []
    for name, want in ref.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"validate: no {name!r} comparison")
            continue
        if not (math.isfinite(row["se"]) and row["se"] > 0.0):
            problems.append(f"validate: {name} SE {row['se']!r}")
        elif not abs(row["mc"] - want) <= VALIDATE_Z * row["se"]:
            problems.append(f"validate: {name} MC {row['mc']!r} not within {VALIDATE_Z} SE of {want!r}")
        if not abs(row["closed"] - want) <= VALIDATE_CLOSED_TOL_SPOT * spot:
            problems.append(f"validate: {name} closed form {row['closed']!r} vs mpmath {want!r}")
    return problems


def mc_full_reference() -> float:
    """Stationary-vol C0 = gamma B0 of the at-the-money floating call, level arc."""
    params = w.mc.reference_full_model(w.MC_EPSILON)
    sigma = params.z0 * math.exp(params.nu ** 2)
    _, c0 = reference.first_order_price(
        "floating", "call", 0.0, w.MC_MATURITY, w.SPOT, w.SPOT, None, sigma, params.k, params.r, 0.0
    )
    return float(c0)


def check_mc_full(est, other, c0: float) -> list[str]:
    """Chunk-layout reproducibility, a finite positive SE, and the band around C0."""
    problems = []
    if (est.price, est.std_error) != (other.price, other.std_error):
        problems.append(f"mc_full: chunk layouts disagree: {est.price!r} vs {other.price!r}")
    if not (math.isfinite(est.std_error) and est.std_error > 0.0):
        problems.append(f"mc_full: SE {est.std_error!r}")
    if not abs(est.price - c0) <= MC_FULL_BAND * c0:
        problems.append(f"mc_full: price {est.price!r} outside {MC_FULL_BAND:.0%} of C0 {c0!r}")
    return problems
