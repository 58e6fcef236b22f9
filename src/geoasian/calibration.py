"""Smile-regression calibration of the group parameter and model smiles.

Each implied-volatility quote contributes one regression point

    y = (I_obs - sigma_bar) * dC0/dsigma
    x = r sigma_bar * (I-weighted u-derivative combination) / D,
    D = -I0 / (2 (T - t)),

pooled across maturities into a single OLS line y = a_eps x + d_eps. The
group parameter follows per (t, T) cell from

    v_eps = a_eps r sigma_bar / D,

which is the paper's a_eps 2 r sigma_bar / D_v, since its
D_v = (2/(T - t)) [ (1/k) ln((2 - kT)/(2 - kt)) + (T - t)/((2 - kT)(2 - kt)) ]
= -I0 / (T - t) is exactly 2 D, which ``perturbation`` computes beside gamma.
The factor sqrt(epsilon) cancels between a = a_eps/sqrt(eps) and v_eps = sqrt(eps) V.
Within one (t, T) cell this closes the noise-free round trip exactly:
quotes generated by ``smile_curve`` at a known v_eps regress back to it. A
slope pooled over several cells does not, and each cell's v_eps then
misses by up to about 1e-3. Both x and y are
evaluated at the C0 level (gamma included), which scales them equally and
leaves the slope invariant.

Quotes CSV: UTF-8, with or without a byte-order mark; header required,
columns exactly ``t,T,spot,avg,strike,style,implied_vol``; strike empty on
floating rows; style in {floating_call, fixed_put}. Only these two styles
are accepted (the other combinations can have negative vegas). A
``QuoteRow`` checks its own fields when it is built; ``ingest_quotes`` turns
a refused record into a reject that carries its line number and reasons.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    FLOAT_MAX,
    DegenerateDesign,
    MissingColumn,
    OutOfDomain,
    PricingError,
    UnparseableField,
    VanishingVega,
    finite_problems,
    require_finite,
    shown,
)
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    StrikeStyle,
    VolArc,
    effective_vol,
)
from .perturbation import _check_v_eps, _first_order, regression_denominator

VEGA_FLOOR_FRACTION = 1e-10

CSV_COLUMNS = ("t", "T", "spot", "avg", "strike", "style", "implied_vol")


class QuoteStyle(Enum):
    FLOATING_CALL = "floating_call"
    FIXED_PUT = "fixed_put"


# the contract each quote style prices
_CONTRACTS = {
    QuoteStyle.FLOATING_CALL: (StrikeStyle.FLOATING, OptionKind.CALL),
    QuoteStyle.FIXED_PUT: (StrikeStyle.FIXED, OptionKind.PUT),
}
# each quote style by its CSV spelling
_STYLES = {style.value: style for style in QuoteStyle}


@dataclass(frozen=True, init=False)
class QuoteRow:
    """One implied-volatility observation; strike only on fixed_put rows.

    A QuoteRow that exists is valid: any other row raises one ``OutOfDomain``
    naming every reason, in field order.
    """

    t: float
    T: float
    spot: float
    avg: float
    strike: float | None
    style: QuoteStyle
    implied_vol: float
    line: int | None = None

    def __init__(self, t: float, T: float, spot: float, avg: float, strike: float | None,
                 style: QuoteStyle, implied_vol: float, line: int | None = None) -> None:
        # one comparison chain for a valid row; any other row gets its reasons
        if not (0.0 <= t < T <= FLOAT_MAX
                and 0.0 < spot <= FLOAT_MAX
                and 0.0 < avg <= FLOAT_MAX
                and 0.0 < implied_vol <= FLOAT_MAX
                and (strike is None if style is not QuoteStyle.FIXED_PUT
                     else strike is not None and 0.0 < strike <= FLOAT_MAX)):
            problems = finite_problems(t=t, T=T, spot=spot, avg=avg, strike=strike,
                                       implied_vol=implied_vol)
            if not 0.0 <= t < T:
                problems.append(f"need 0 <= t < T, got t={shown(t)}, T={shown(T)}")
            if not spot > 0.0:
                problems.append(f"spot must be > 0, got {shown(spot)}")
            if not avg > 0.0:
                problems.append(f"avg must be > 0, got {shown(avg)}")
            if not implied_vol > 0.0:
                problems.append(f"implied_vol must be > 0, got {shown(implied_vol)}")
            if style is QuoteStyle.FIXED_PUT:
                if strike is None or not strike > 0.0:
                    problems.append(f"fixed_put needs strike > 0, got {shown(strike)}")
            elif strike is not None:
                problems.append("floating_call row must leave strike empty")
            raise OutOfDomain("; ".join(problems))
        self.__dict__.update(t=t, T=T, spot=spot, avg=avg, strike=strike, style=style,
                             implied_vol=implied_vol, line=line)


@dataclass(frozen=True)
class RegressionFit:
    a_eps: float
    d_eps: float
    r_squared: float
    n: int
    se_a_eps: float


@dataclass(frozen=True)
class RejectedRow:
    """A refused quote; ``index`` is its position in the rows regressed, if any."""

    line: int
    reason: str
    index: int | None = None


@dataclass(frozen=True)
class IngestResult:
    rows: list[QuoteRow]
    rejects: list[RejectedRow]


@dataclass(frozen=True)
class SmilePoint:
    t: float
    maturity: float
    moneyness: float
    implied_vol: float | None
    note: str | None = None


def regression_row(q: QuoteRow, arc: VolArc, model: ModelParams) -> tuple[float, float]:
    """Map one quote to its (x, y) regression point."""
    sigma = effective_vol(arc, q.t)
    state = MarketState(t=q.t, x=q.spot, g=q.avg)
    contract = _CONTRACTS[q.style]
    *_, ii, greeks, c1_unit = _first_order(*contract, state, sigma, q.T, q.strike, model, 1.0)
    # D = -I0 / (2 (T - t)) with no check that could fire: QuoteRow holds t < T, and the
    # integrals refused kT >= 1 - tol, so |D| >= (1 - kT)/4 > 2.5e-9 > DENOMINATOR_TOL
    x = model.r * sigma * c1_unit / (-ii.i0 / (2.0 * (q.T - q.t)))
    y = (q.implied_vol - sigma) * greeks.vega
    return x, y


def ols_fit(rows: list[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares on pooled (x, y) points.

    The first point that is not finite raises NonFiniteInput; points whose
    fit overflows a float (a sum, the slope or its standard error) raise
    OutOfDomain, and numpy warns of nothing.
    """
    try:
        x = np.asarray([p[0] for p in rows], dtype=float)
        y = np.asarray([p[1] for p in rows], dtype=float)
        finite = np.isfinite(x).all() and np.isfinite(y).all()
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        for i, (xi, yi) in enumerate(rows):
            require_finite(**{f"x[{i}]": xi, f"y[{i}]": yi})
    n = len(rows)
    if n < 2:
        raise DegenerateDesign(f"need at least 2 rows, got {n}")
    # an overflow is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        x_bar = float(x.mean())
        y_bar = float(y.mean())
        dx = x - x_bar
        ss_x = float(dx @ dx)
        if math.sqrt(ss_x / n) <= 1e-12 * (1.0 + abs(x_bar)):
            raise DegenerateDesign("x has (near) zero variance; slope unidentifiable")
        slope = float(dx @ (y - y_bar)) / ss_x
        intercept = y_bar - slope * x_bar
        resid = y - (intercept + slope * x)
        ss_res = float(resid @ resid)
        ss_tot = float((y - y_bar) @ (y - y_bar))
    se = math.sqrt(ss_res / (n - 2) / ss_x) if n > 2 else float("nan")
    if not (all(map(math.isfinite, (ss_x, slope, intercept, ss_res, ss_tot)))
            and (n == 2 or se < math.inf)):
        raise OutOfDomain("the least-squares fit overflows a float")
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionFit(
        a_eps=slope, d_eps=intercept, r_squared=r_squared, n=n, se_a_eps=se
    )


def v_from_fit(
    fit: RegressionFit,
    epsilon: float,
    r: float,
    sigma: float,
    k: float,
    t: float,
    T: float,
) -> float:
    """v_eps = a_eps r sigma / D for one (t, T) cell, of either quote style.

    This is the paper's a_eps 2 r sigma / D_v, as D_v = 2 D exactly, and
    equals sqrt(eps) * V with a = a_eps/sqrt(eps); epsilon cancels and is
    accepted only for interface fidelity.
    """
    require_finite(a_eps=fit.a_eps, epsilon=epsilon, r=r, sigma=sigma)
    if not epsilon > 0.0:
        raise OutOfDomain(f"epsilon must be > 0, got {epsilon}")
    return fit.a_eps * r * sigma / regression_denominator(k, t, T)


def ingest_quotes(source) -> IngestResult:
    """Parse and validate a quotes CSV from a path (str or Path) or a text stream.

    A path is opened as UTF-8, with or without a byte-order mark. Structural
    header problems raise MissingColumn; malformed or invalid rows land in
    rejects with their line number. An empty body yields no rows, which
    ``ols_fit`` refuses.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return ingest_quotes(handle)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty file: header row required") from None
    header = [h.strip() for h in header]
    missing = [c for c in CSV_COLUMNS if c not in header]
    extra = [c for c in header if c not in CSV_COLUMNS]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if missing or extra or repeated:
        raise MissingColumn(
            f"header must be exactly {','.join(CSV_COLUMNS)}; missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}, repeated {repeated or 'none'}"
        )
    columns = tuple(header.index(name) for name in CSV_COLUMNS)

    rows: list[QuoteRow] = []
    rejects: list[RejectedRow] = []
    for line_no, record in enumerate(reader, start=2):
        if not "".join(record).strip():
            continue
        if len(record) != len(header):
            rejects.append(
                RejectedRow(line_no, f"expected {len(header)} fields, got {len(record)}")
            )
            continue
        try:
            rows.append(_parse_record(record, columns, line_no))
        except PricingError as exc:
            rejects.append(RejectedRow(line_no, str(exc)))
    return IngestResult(rows=rows, rejects=rejects)


def _parse_record(record: list[str], columns: tuple[int, ...], line_no: int) -> QuoteRow:
    """The quote of one CSV record; ``columns`` holds the position of each of
    CSV_COLUMNS. The style is checked first, then the numbers, strike first,
    then the ranges ``QuoteRow`` checks."""
    t, T, spot, avg, strike, style_raw, vol = [record[i].strip() for i in columns]
    style = _STYLES.get(style_raw)
    if style is None:
        raise UnparseableField(f"style={style_raw!r} not in {{floating_call, fixed_put}}")
    try:
        numbers = float(t), float(T), float(spot), float(avg), float(strike) if strike else None
        implied_vol = float(vol)
    except ValueError:
        # some field is not a number: convert each in turn to name the first
        strike_value = _as_float("strike", strike) if strike else None
        numbers = (_as_float("t", t), _as_float("T", T), _as_float("spot", spot),
                   _as_float("avg", avg), strike_value)
        implied_vol = _as_float("implied_vol", vol)
    return QuoteRow(*numbers, style, implied_vol, line_no)


def _as_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UnparseableField(f"{name}={raw!r} is not a number") from None


def smile_curve(
    arc: VolArc,
    model: ModelParams,
    v_eps: float,
    style: QuoteStyle,
    grid,
) -> list[SmilePoint]:
    """First-order implied vols I = sigma_bar + v_eps c1_unit / vega.

    ``grid`` yields (t, T, moneyness) triples with moneyness = avg/spot.
    Points are priced at spot 100, fixed_put points struck at the spot: the
    implied vol of a point depends on its moneyness alone, and any other spot
    moves it only in the last bits. Inadmissible points (singular factors,
    vanishing vega, a vol that overflows) are returned flagged instead of
    raised.
    """
    _check_v_eps(v_eps)
    spot = 100.0
    contract = _CONTRACTS[style]
    strike = None if style is QuoteStyle.FLOATING_CALL else spot
    points: list[SmilePoint] = []
    for t, T, moneyness in grid:
        try:
            if not -FLOAT_MAX <= moneyness <= FLOAT_MAX:  # before it scales the spot
                require_finite(moneyness=moneyness)
            sigma = effective_vol(arc, t)
            state = MarketState(t=t, x=spot, g=moneyness * spot)
            *_, greeks, c1_unit = _first_order(*contract, state, sigma, T, strike, model, 1.0)
            if abs(greeks.vega) < VEGA_FLOOR_FRACTION * spot:
                raise VanishingVega(
                    f"|vega| = {abs(greeks.vega)} below {VEGA_FLOOR_FRACTION * spot}"
                )
            vol = sigma + v_eps * c1_unit / greeks.vega
            if not -FLOAT_MAX <= vol <= FLOAT_MAX:
                raise OutOfDomain(f"implied vol {vol} is not finite")
            points.append(SmilePoint(t, T, moneyness, vol))
        except PricingError as exc:
            points.append(
                SmilePoint(t, T, moneyness, None, note=f"{type(exc).__name__}: {exc}")
            )
    return points


def regression_pairs(
    rows: list[QuoteRow], arc: VolArc, model: ModelParams
) -> tuple[list[tuple[float, float]], list[RejectedRow]]:
    """(x, y) per quote; quotes failing pricing preconditions become rejects."""
    pairs: list[tuple[float, float]] = []
    skipped: list[RejectedRow] = []
    for i, row in enumerate(rows):
        try:
            pairs.append(regression_row(row, arc, model))
        except PricingError as exc:
            skipped.append(
                RejectedRow(row.line or -1, f"{type(exc).__name__}: {exc}", index=i)
            )
    return pairs, skipped


def calibration_report(
    ingest: IngestResult,
    arc: VolArc,
    model: ModelParams,
    regression: tuple[list[tuple[float, float]], list[RejectedRow]] | None = None,
) -> dict:
    """Full pipeline: regression points, OLS fit, per-cell v_eps, range.

    ``regression`` is ``regression_pairs(ingest.rows, arc, model)`` when the
    caller already holds it (the CLI writes the same pairs to a scatter file);
    it is computed here otherwise.
    """
    if regression is None:
        regression = regression_pairs(ingest.rows, arc, model)
    pairs, skipped = regression
    dropped = {s.index for s in skipped}
    kept = [row for i, row in enumerate(ingest.rows) if i not in dropped]
    fit = ols_fit(pairs)
    counts = Counter((row.t, row.T) for row in kept)
    by_cell = []
    for t, T in sorted(counts):
        sigma = effective_vol(arc, t)
        v = v_from_fit(fit, model.epsilon, model.r, sigma, model.k, t, T)
        by_cell.append({"t": t, "T": T, "v_eps": v, "n": counts[t, T]})
    values = [cell["v_eps"] for cell in by_cell]
    rejects = [
        {"line": rej.line, "reason": rej.reason}
        for rej in (*ingest.rejects, *skipped)
    ]
    return {
        "a_eps": fit.a_eps,
        "d_eps": fit.d_eps,
        "r_squared": fit.r_squared,
        "n": fit.n,
        # two rows leave no residual degree of freedom: the SE is undefined
        "se_a_eps": fit.se_a_eps if math.isfinite(fit.se_a_eps) else None,
        "rejects": rejects,
        "v_eps_by_cell": by_cell,
        "v_eps_range": [min(values), max(values)] if values else None,
    }
