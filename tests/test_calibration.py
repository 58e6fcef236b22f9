import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import linregress

from geoasian import (
    QuoteRow,
    QuoteStyle,
    VolArc,
    arc_from_ou,
    calibration_report,
    ingest_quotes,
    ols_fit,
    perturbation,
    regression_pairs,
    smile_curve,
    v_from_fit,
)
from geoasian.calibration import IngestResult, regression_denominator, regression_row
from geoasian.errors import (
    DegenerateDesign,
    MissingColumn,
    NonFiniteInput,
    OutOfDomain,
    SingularDenominator,
)
from geoasian.mc import reference_full_model
from geoasian.model import effective_vol

MODEL = reference_full_model(0.001)
ARC = VolArc(p_coef=0.0, q_coef=0.0, r_coef=0.1834)

GOOD_CSV = """t,T,spot,avg,strike,style,implied_vol
0.0,0.45,100,100,,floating_call,0.19
0.1,0.45,100,101,100,fixed_put,0.18
"""

MIXED_CSV = """t,T,spot,avg,strike,style,implied_vol
0.0,0.45,100,100,,floating_call,0.19
0.1,0.45,100,101,100,fixed_put,0.18
bad,0.45,100,100,,floating_call,0.19
0.0,0.45,100,100,95,floating_call,0.19
0.5,0.45,100,100,,floating_call,0.19
0.0,0.45,100,100,,straddle,0.19
0.0,0.45,-100,100,,floating_call,0.19
0.1,0.45,100,101,,fixed_put,0.18
0.0,0.45,100,100,,floating_call
0.1,0.45,100,101,x,fixed_put,0.18
0.1,0.45,100,101,100,fixed_put,abc
"""


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------- ingest


def test_ingest_good_rows():
    result = ingest_quotes(io.StringIO(GOOD_CSV))
    assert len(result.rows) == 2
    assert result.rejects == []
    first = result.rows[0]
    assert first.line == 2
    assert first.style is QuoteStyle.FLOATING_CALL
    assert first.strike is None
    second = result.rows[1]
    assert second.line == 3
    assert second.strike == 100.0


def test_ingest_accepts_path_stream_and_bytes(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(GOOD_CSV, encoding="utf-8")
    from_path = ingest_quotes(path)
    from_str_path = ingest_quotes(str(path))
    from_stream = ingest_quotes(io.StringIO(GOOD_CSV))
    assert from_path == from_stream == from_str_path


def test_ingest_rejects_carry_line_numbers_and_reasons():
    result = ingest_quotes(io.StringIO(MIXED_CSV))
    assert len(result.rows) == 2
    reasons = {r.line: r.reason for r in result.rejects}
    assert set(reasons) == {4, 5, 6, 7, 8, 9, 10, 11, 12}
    assert "not a number" in reasons[4]
    assert "strike" in reasons[5]
    assert "t < T" in reasons[6]
    assert "style" in reasons[7]
    assert "spot" in reasons[8]
    assert "strike" in reasons[9]
    assert "fields" in reasons[10]
    assert reasons[11] == "strike='x' is not a number"
    assert reasons[12] == "implied_vol='abc' is not a number"


@pytest.mark.parametrize("column", ["t", "T", "spot", "avg", "strike", "implied_vol"])
def test_ingest_rejects_a_non_finite_field(column):
    """An inf in one numeric field rejects that line; the good rows survive."""
    header = "t,T,spot,avg,strike,style,implied_vol".split(",")
    fixed_put = "0.1,0.45,100,101,100,fixed_put,0.18".split(",")
    fixed_put[header.index(column)] = "inf"
    result = ingest_quotes(io.StringIO(GOOD_CSV + ",".join(fixed_put) + "\n"))
    assert len(result.rows) == 2
    (reject,) = result.rejects
    assert reject.line == 4
    assert f"{column} must be finite" in reject.reason


def test_ingest_header_must_match_exactly():
    with pytest.raises(MissingColumn):
        ingest_quotes(io.StringIO("t,T,spot,avg,strike,style\n"))
    with pytest.raises(MissingColumn):
        ingest_quotes(io.StringIO(GOOD_CSV.replace("implied_vol", "implied_vol,venue")))
    with pytest.raises(MissingColumn):
        ingest_quotes(io.StringIO(""))
    with pytest.raises(MissingColumn, match=r"repeated \['t'\]"):  # a copy of a column
        ingest_quotes(io.StringIO(GOOD_CSV.replace("implied_vol", "implied_vol,t", 1)))


def test_ingest_header_only_leaves_nothing_to_fit():
    """An empty body is no error of its own: the fit refuses the empty design."""
    result = ingest_quotes(io.StringIO("t,T,spot,avg,strike,style,implied_vol\n"))
    assert result.rows == [] and result.rejects == []
    with pytest.raises(DegenerateDesign, match="need at least 2 rows, got 0"):
        calibration_report(result, ARC, MODEL)


def test_ingest_skips_blank_lines_without_losing_numbering():
    csv_text = GOOD_CSV + "\n" + "0.05,0.45,100,99,,floating_call,0.2\n"
    result = ingest_quotes(io.StringIO(csv_text))
    assert [r.line for r in result.rows] == [2, 3, 5]


def test_ingest_skips_whitespace_only_records_without_losing_numbering():
    csv_text = GOOD_CSV + " , ,\t, , , , \n" + "0.05,0.45,100,99,,floating_call,0.2\n"
    result = ingest_quotes(io.StringIO(csv_text))
    assert result.rejects == []
    assert [r.line for r in result.rows] == [2, 3, 5]


@pytest.mark.parametrize("field", ["t", "T", "spot", "avg", "strike", "implied_vol"])
@pytest.mark.parametrize("value", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_quote_row_refuses_an_int_too_large_for_a_float(field, value):
    """math.isfinite raised OverflowError on such an int, and a row with
    T = 10**400 passed ``T < math.inf`` and was built."""
    fields = dict(t=0.1, T=0.45, spot=100.0, avg=101.0, strike=100.0,
                  style=QuoteStyle.FIXED_PUT, implied_vol=0.18)
    with pytest.raises(OutOfDomain, match=f"^{field} must be finite, got {value}(;|$)"):
        QuoteRow(**{**fields, field: value})


@pytest.mark.parametrize("field", ["t", "T", "spot", "avg", "strike", "implied_vol"])
@pytest.mark.parametrize("sign", [1, -1], ids=["10**5000", "-10**5000"])
def test_quote_row_refuses_an_int_too_long_to_write_in_decimal(field, sign):
    """Writing such an int in a reason raised Python's own ValueError; the
    reason gives its sign and bit length."""
    fields = dict(t=0.1, T=0.45, spot=100.0, avg=101.0, strike=100.0,
                  style=QuoteStyle.FIXED_PUT, implied_vol=0.18)
    shown = f"{'-' if sign < 0 else ''}<int of 16610 bits>"
    with pytest.raises(OutOfDomain, match=f"^{field} must be finite, got {shown}(;|$)"):
        QuoteRow(**{**fields, field: sign * 10**5000})


def test_quote_row_validate_collects_all_problems():
    with pytest.raises(OutOfDomain) as info:
        QuoteRow(t=0.5, T=0.45, spot=-1.0, avg=0.0, strike=None,
                 style=QuoteStyle.FIXED_PUT, implied_vol=-0.1)
    assert len(str(info.value).split("; ")) == 5
    good = QuoteRow(
        t=0.0, T=0.45, spot=100.0, avg=100.0, strike=None,
        style=QuoteStyle.FLOATING_CALL, implied_vol=0.19,
    )
    assert good.T == 0.45


def every_problem(t, T, spot, avg, strike, style, implied_vol):
    """The reasons ``QuoteRow`` raises, checked field by field with no
    shortcut for a valid row."""
    numbers = {"t": t, "T": T, "spot": spot, "avg": avg, "strike": strike,
               "implied_vol": implied_vol}
    problems = [f"{name} must be finite, got {value}" for name, value in numbers.items()
                if value is not None and not math.isfinite(value)]
    if not 0.0 <= t < T:
        problems.append(f"need 0 <= t < T, got t={t}, T={T}")
    if not spot > 0.0:
        problems.append(f"spot must be > 0, got {spot}")
    if not avg > 0.0:
        problems.append(f"avg must be > 0, got {avg}")
    if not implied_vol > 0.0:
        problems.append(f"implied_vol must be > 0, got {implied_vol}")
    if style is QuoteStyle.FIXED_PUT:
        if strike is None or not strike > 0.0:
            problems.append(f"fixed_put needs strike > 0, got {strike}")
    elif strike is not None:
        problems.append("floating_call row must leave strike empty")
    return problems


FIELD_VALUES = st.one_of(
    st.floats(min_value=0.01, max_value=200.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=500, deadline=None)
@given(t=FIELD_VALUES, T=FIELD_VALUES, spot=FIELD_VALUES, avg=FIELD_VALUES,
       strike=st.one_of(st.none(), FIELD_VALUES), style=st.sampled_from(list(QuoteStyle)),
       implied_vol=FIELD_VALUES)
def test_quote_row_validate_gives_every_problem_in_order(t, T, spot, avg, strike, style,
                                                          implied_vol):
    problems = every_problem(t, T, spot, avg, strike, style, implied_vol)
    if not problems:
        assert QuoteRow(t, T, spot, avg, strike, style, implied_vol).implied_vol == implied_vol
        return
    with pytest.raises(OutOfDomain) as info:
        QuoteRow(t, T, spot, avg, strike, style, implied_vol)
    assert str(info.value) == "; ".join(problems)


# ----------------------------------------------------------- denominators


def test_denominators_frozen():
    assert rel(regression_denominator(2.0, 0.0, 0.5), -0.1931471805599453) < 1e-14


def test_denominator_guards():
    with pytest.raises(SingularDenominator):
        regression_denominator(2.0, 0.9, 1.5)
    with pytest.raises(ValueError):
        regression_denominator(2.0, 0.5, 0.5)
    for k, t, T in ((math.nan, 0.1, 0.45), (2.0, math.nan, 0.45), (2.0, 0.1, math.inf),
                    (math.inf, 0.1, 0.45), (-math.inf, 0.1, 0.45), (2.0, -math.inf, 0.45),
                    (-1.0, math.nan, 0.45)):
        with pytest.raises(NonFiniteInput):
            regression_denominator(k, t, T)
    for k, t, T in ((-1.0, 0.0, 0.45), (0.0, 0.0, 0.45), (-0.0, 0.1, 0.45),
                    (2.0, -0.1, 0.45), (2.0, -0.3, -0.1), (-1.0, -0.1, 0.45)):
        with pytest.raises(OutOfDomain):
            regression_denominator(k, t, T)


def test_denominator_refuses_a_window_within_tol_of_the_double_pole():
    """A window that ends within SINGULARITY_TOL of k tau = 2 is singular, as
    for gamma. Just below kT = 2 the ratio (2 - kT)/(2 - kt) is 1 ulp of 2
    over 2 - kt, which log1p(-k (T - t)/(2 - kt)) would round to log1p(-1)."""
    for t, T in ((0.3, math.nextafter(1.0, 0.0)), (0.1, 1.0 - 4e-9), (1.0 + 4e-9, 1.5)):
        with pytest.raises(SingularDenominator):
            regression_denominator(2.0, t, T)


# -------------------------------------------------------- regression rows


def test_regression_row_frozen_values():
    q = QuoteRow(
        t=0.0, T=0.45, spot=100.0, avg=100.0, strike=None,
        style=QuoteStyle.FLOATING_CALL, implied_vol=0.19,
    )
    x, y = regression_row(q, ARC, MODEL)
    assert rel(x, -0.009927890459566317) < 1e-9
    assert rel(y, 0.10576852021652462) < 1e-9
    qp = QuoteRow(
        t=0.1, T=0.45, spot=100.0, avg=101.0, strike=100.0,
        style=QuoteStyle.FIXED_PUT, implied_vol=0.18,
    )
    xp, yp = regression_row(qp, ARC, MODEL)
    assert rel(xp, -0.3275787455032622) < 1e-9
    assert rel(yp, -0.014999415827491659) < 1e-9


def test_regression_row_takes_d_from_the_chain(monkeypatch):
    """D = -I0 / (2 (T - t)) comes from the I-integrals the chain computed, so
    a row evaluates I0 twice (for gamma and for the integrals), where calling
    regression_denominator made it three times."""
    calls = []
    original = perturbation._i0

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(perturbation, "_i0", counted)
    perturbation.i_integrals_closed.cache_clear()
    q = QuoteRow(t=0.1, T=0.45, spot=100.0, avg=101.0, strike=100.0,
                 style=QuoteStyle.FIXED_PUT, implied_vol=0.18)
    regression_row(q, ARC, MODEL)
    assert calls == [(MODEL.k, 0.1, 0.45)] * 2


def test_regression_row_rejects_invalid_quote():
    with pytest.raises(OutOfDomain, match=r"need 0 <= t < T, got t=0.5, T=0.45"):
        QuoteRow(t=0.5, T=0.45, spot=100.0, avg=100.0, strike=None,
                 style=QuoteStyle.FLOATING_CALL, implied_vol=0.19)


def test_regression_pairs_skips_inadmissible_cells():
    """k T = 1 falls on the closed-route exclusion; the quote is flagged, not
    fatal, and admissible rows still go through."""
    rows = [
        QuoteRow(t=0.0, T=0.45, spot=100.0, avg=100.0, strike=None,
                 style=QuoteStyle.FLOATING_CALL, implied_vol=0.19, line=2),
        QuoteRow(t=0.0, T=0.5, spot=100.0, avg=100.0, strike=None,
                 style=QuoteStyle.FLOATING_CALL, implied_vol=0.19, line=3),
    ]
    pairs, skipped = regression_pairs(rows, ARC, MODEL)
    assert len(pairs) == 1
    assert len(skipped) == 1
    assert skipped[0].line == 3
    assert "SingularIntegral" in skipped[0].reason


def test_regression_pairs_do_not_depend_on_quote_order():
    """Each quote's (x, y) keeps its bits in any order of the quotes, with more
    (t, T) windows than the window caches hold."""
    rows = [
        QuoteRow(t=float(t), T=float(T), spot=100.0, avg=100.0 * m, strike=strike,
                 style=style, implied_vol=0.19)
        for t in np.linspace(0.0, 0.2, 15)
        for T in np.linspace(0.3, 0.45, 10)
        for m, style, strike in ((0.98, QuoteStyle.FLOATING_CALL, None),
                                 (1.02, QuoteStyle.FIXED_PUT, 100.0))
    ]
    order = np.random.default_rng(7).permutation(len(rows))
    pairs, skipped = regression_pairs(rows, ARC, MODEL)
    shuffled, shuffled_skipped = regression_pairs([rows[i] for i in order], ARC, MODEL)
    assert skipped == shuffled_skipped == []
    assert [(x.hex(), y.hex()) for x, y in shuffled] == [
        (x.hex(), y.hex()) for x, y in (pairs[i] for i in order)
    ]


def test_report_keeps_line_less_rows_when_one_fails():
    """Rows built in code carry no line number; one failing row must not
    drop the others from their cell."""
    grid = [(0.1, 0.45, m) for m in np.linspace(0.97, 1.03, 6)]
    pts = smile_curve(ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL, grid)
    rows = [
        QuoteRow(t=0.1, T=0.45, spot=100.0, avg=100.0 * p.moneyness, strike=None,
                 style=QuoteStyle.FLOATING_CALL, implied_vol=float(p.implied_vol))
        for p in pts
    ]
    rows.append(QuoteRow(t=0.1, T=0.5, spot=100.0, avg=100.0, strike=None,
                         style=QuoteStyle.FLOATING_CALL, implied_vol=0.19))
    report = calibration_report(IngestResult(rows=rows, rejects=[]), ARC, MODEL)
    assert report["n"] == 6
    assert len(report["rejects"]) == 1
    assert report["rejects"][0]["line"] == -1
    assert [(c["t"], c["T"], c["n"]) for c in report["v_eps_by_cell"]] == [(0.1, 0.45, 6)]
    assert rel(report["v_eps_by_cell"][0]["v_eps"], -0.016) < 1e-9


# -------------------------------------------------------------------- OLS


def test_ols_exact_line():
    rows = [(x, 2.0 * x + 1.0) for x in (-1.0, 0.0, 0.5, 2.0)]
    fit = ols_fit(rows)
    assert abs(fit.a_eps - 2.0) < 1e-14
    assert abs(fit.d_eps - 1.0) < 1e-14
    assert fit.r_squared == 1.0
    assert fit.n == 4
    assert fit.se_a_eps < 1e-14


def test_ols_matches_reference_implementation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=40)
    y = 0.63 * x - 0.2 + rng.normal(scale=0.05, size=40)
    fit = ols_fit(list(zip(x.tolist(), y.tolist())))
    ref = linregress(x, y)
    assert rel(fit.a_eps, ref.slope) < 1e-12
    assert rel(fit.d_eps, ref.intercept) < 1e-12
    assert rel(fit.se_a_eps, ref.stderr) < 1e-12
    assert rel(fit.r_squared, ref.rvalue ** 2) < 1e-12


def test_ols_two_points_has_undefined_se():
    fit = ols_fit([(0.0, 1.0), (1.0, 3.0)])
    assert math.isnan(fit.se_a_eps)


def test_ols_degenerate_designs():
    with pytest.raises(DegenerateDesign):
        ols_fit([(1.0, 2.0)])
    with pytest.raises(DegenerateDesign):
        ols_fit([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    for bad in ((math.nan, 3.0), (2.0, math.nan), (math.inf, 3.0), (2.0, -math.inf)):
        with pytest.raises(NonFiniteInput):
            ols_fit([(0.0, 1.0), (1.0, 2.0), bad])
    with pytest.raises(NonFiniteInput):
        ols_fit([(math.nan, 1.0)])


def test_ols_fit_names_its_first_non_finite_point():
    """Each non-finite coordinate of the first such point, in the one form of
    every non-finite refusal; the message named no point before."""
    with pytest.raises(NonFiniteInput, match=r"^y\[1\] must be finite, got nan$"):
        ols_fit([(0.0, 1.0), (1.0, math.nan), (math.inf, 2.0), (2.0, 3.0)])
    with pytest.raises(NonFiniteInput,
                       match=r"^x\[2\] must be finite, got inf; y\[2\] must be finite, got -inf$"):
        ols_fit([(0.0, 1.0), (1.0, 2.0), (math.inf, -math.inf), (2.0, math.nan)])


def test_ols_fit_refuses_an_int_too_large_for_a_float():
    """numpy raised OverflowError turning such an int into a float."""
    with pytest.raises(NonFiniteInput, match=rf"^x\[1\] must be finite, got {10**400}$"):
        ols_fit([(0.0, 1.0), (10**400, 2.0), (2.0, 3.0)])
    with pytest.raises(NonFiniteInput, match=rf"^y\[2\] must be finite, got -{10**400}$"):
        ols_fit([(0.0, 1.0), (1.0, 2.0), (2.0, -10**400), (3.0, math.nan)])


# ------------------------------------------------------------- v_from_fit


def test_v_from_fit_anchor():
    from geoasian.calibration import RegressionFit

    fit = RegressionFit(a_eps=0.6367, d_eps=0.0, r_squared=1.0, n=10, se_a_eps=0.0)
    v_eps = v_from_fit(fit, 0.001, 0.0264, 0.1834, 2.0, 0.0, 0.5)
    assert rel(v_eps, -0.015960619166497415) < 1e-12
    big_v = v_eps / math.sqrt(0.001)
    assert rel(big_v, -0.50471909432670034) < 1e-12
    with pytest.raises(ValueError):
        v_from_fit(fit, 0.0, 0.0264, 0.1834, 2.0, 0.0, 0.5)
    args = (0.001, 0.0264, 0.1834, 2.0, 0.0, 0.5)  # epsilon, r, sigma, k, t, T
    for i in range(len(args)):
        for bad in (math.nan, math.inf):
            with pytest.raises(NonFiniteInput):
                v_from_fit(fit, *args[:i], bad, *args[i + 1:])
    with pytest.raises(NonFiniteInput):
        v_from_fit(RegressionFit(math.nan, 0.0, 1.0, 10, 0.0), *args)
    with pytest.raises(NonFiniteInput):  # non-finite before out of domain
        v_from_fit(fit, 0.0, math.nan, 0.1834, 2.0, 0.0, 0.5)
    for k, t, T in ((-1.0, 0.0, 0.5), (2.0, -0.3, -0.1)):
        with pytest.raises(OutOfDomain):
            v_from_fit(fit, 0.001, 0.0264, 0.1834, k, t, T)


def test_v_from_fit_independent_of_epsilon():
    from geoasian.calibration import RegressionFit

    fit = RegressionFit(a_eps=0.6367, d_eps=0.0, r_squared=1.0, n=10, se_a_eps=0.0)
    a = v_from_fit(fit, 0.001, 0.0264, 0.1834, 2.0, 0.0, 0.5)
    b = v_from_fit(fit, 0.04, 0.0264, 0.1834, 2.0, 0.0, 0.5)
    assert a == b


# ------------------------------------------------------------- round trip


@pytest.mark.parametrize(
    "style,strike", [(QuoteStyle.FLOATING_CALL, None), (QuoteStyle.FIXED_PUT, 100.0)]
)
def test_single_cell_round_trip_is_exact(style, strike):
    """Quotes generated at a known v_eps regress back to it to machine
    precision within one (t, T) cell."""
    v_true = -0.016
    t, T = 0.1, 0.45
    mons = [0.96, 0.98, 1.0, 1.02, 1.04]
    pts = smile_curve(ARC, MODEL, v_true, style, [(t, T, m) for m in mons])
    rows = [
        QuoteRow(t=t, T=T, spot=100.0, avg=100.0 * m, strike=strike, style=style,
                 implied_vol=float(p.implied_vol))
        for m, p in zip(mons, pts)
    ]
    pairs, skipped = regression_pairs(rows, ARC, MODEL)
    assert skipped == []
    fit = ols_fit(pairs)
    v_hat = v_from_fit(fit, MODEL.epsilon, MODEL.r, effective_vol(ARC, t), MODEL.k, t, T)
    assert rel(v_hat, v_true) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert abs(fit.d_eps) < 1e-12


def test_noisy_round_trip_within_three_se():
    v_true = -0.016
    t, T = 0.1, 0.45
    mons = np.linspace(0.95, 1.05, 60)
    pts = smile_curve(ARC, MODEL, v_true, QuoteStyle.FLOATING_CALL,
                      [(t, T, float(m)) for m in mons])
    rows = [
        QuoteRow(t=t, T=T, spot=100.0, avg=100.0 * float(m), strike=None,
                 style=QuoteStyle.FLOATING_CALL, implied_vol=float(p.implied_vol))
        for m, p in zip(mons, pts)
    ]
    pairs, _ = regression_pairs(rows, ARC, MODEL)
    rng = np.random.default_rng(11)
    noisy = [(x, y + float(e)) for (x, y), e in zip(pairs, rng.normal(0.0, 1e-3, len(pairs)))]
    fit = ols_fit(noisy)
    clean = ols_fit(pairs)
    assert abs(fit.a_eps - clean.a_eps) <= 3.0 * fit.se_a_eps, (
        f"slope {fit.a_eps} vs {clean.a_eps} with se {fit.se_a_eps}"
    )


# ------------------------------------------------------------------ smile


def test_smile_curve_frozen_values():
    pts = smile_curve(
        ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL,
        [(0.0, 0.45, 1.0), (0.1, 0.45, 1.02)],
    )
    assert rel(pts[0].implied_vol, 0.1829706646319923) < 1e-9
    assert rel(pts[1].implied_vol, 0.20125533268893356) < 1e-9
    assert pts[0].note is None


@pytest.mark.parametrize("style", list(QuoteStyle))
def test_smile_curve_implied_vol_is_a_python_float(style):
    """No numpy scalar leaks out of the closed forms into a smile point."""
    pts = smile_curve(ARC, MODEL, -0.016, style, [(0.1, 0.45, 1.02)])
    assert type(pts[0].implied_vol) is float


def test_smile_curve_flags_inadmissible_points():
    pts = smile_curve(
        ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL,
        [(0.0, 0.45, 1.0), (0.55, 0.7, 1.0)],
    )
    assert len(pts) == 2
    assert pts[1].implied_vol is None
    assert "SingularIntegral" in pts[1].note


@pytest.mark.parametrize("v_eps", [math.nan, math.inf, -math.inf])
def test_smile_curve_refuses_a_non_finite_v_eps(v_eps):
    """A non-finite v_eps would make every point NaN or infinite, so it is
    refused before the grid is read, even a grid with a point it would flag."""
    read = []

    def grid():
        for point in [(0.55, 0.7, 1.0), (0.1, 0.45, 1.0)]:
            read.append(point)
            yield point

    with pytest.raises(NonFiniteInput, match=r"^v_eps must be finite, got "):
        smile_curve(ARC, MODEL, v_eps, QuoteStyle.FLOATING_CALL, grid())
    assert read == []


@pytest.mark.parametrize("style", list(QuoteStyle))
def test_smile_curve_flags_a_non_finite_maturity(style):
    grid = [(0.1, math.nan, 1.0), (0.1, math.inf, 1.0), (0.1, 0.45, 1.0)]
    pts = smile_curve(ARC, MODEL, -0.016, style, grid)
    assert [p.implied_vol is None for p in pts] == [True, True, False]
    assert all(p.note.startswith("NonFiniteInput:") for p in pts[:2])


def test_smile_curve_flags_an_int_too_large_for_a_float():
    """A moneyness of 10**400 raised OverflowError out of the curve when it
    scaled the spot; each such point is flagged and the good one priced."""
    grid = [(10**400, 0.45, 1.0), (0.1, 10**400, 1.0), (0.1, 0.45, 10**400),
            (0.1, 0.45, -10**400), (0.1, 0.45, 1.0)]
    pts = smile_curve(ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL, grid)
    assert [p.implied_vol is None for p in pts] == [True, True, True, True, False]
    assert all(p.note.startswith("NonFiniteInput:") for p in pts[:4])


def test_smile_curve_flags_out_of_domain_points():
    """A negative valuation time flags its own point only."""
    pts = smile_curve(ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL,
                      [(-0.1, 0.45, 1.0), (0.1, 0.45, 1.0)])
    assert pts[0].implied_vol is None
    assert pts[0].note == "OutOfDomain: t must be >= 0, got -0.1"
    assert pts[1].implied_vol is not None and pts[1].note is None


def test_smile_curve_flags_vanishing_vega():
    # far out of the money the put's vega is 3.8e-11, below the 1e-8 floor at spot 100
    arc = arc_from_ou(2.0, 0.20, 0.1834)
    pts = smile_curve(
        arc, MODEL, -0.016, QuoteStyle.FIXED_PUT, [(0.1, 0.45, 0.7), (0.1, 0.45, 2.5)]
    )
    assert pts[0].implied_vol is not None
    assert pts[0].note is None
    assert pts[1].implied_vol is None
    assert pts[1].note.startswith("VanishingVega:")


def test_smile_zero_v_eps_returns_arc_vol():
    pts = smile_curve(ARC, MODEL, 0.0, QuoteStyle.FIXED_PUT, [(0.1, 0.45, 1.0)])
    assert rel(pts[0].implied_vol, effective_vol(ARC, 0.1)) < 1e-14


# ------------------------------------------------------------------ report


def test_smile_flat_in_moneyness_at_window_start():
    """At t = 0 the running average carries no weight (u = t ln(g/x) = 0), so
    moneyness cannot move the quote and a single-cell design there is
    degenerate by construction."""
    grid = [(0.0, 0.45, m) for m in (0.97, 1.0, 1.03)]
    pts = smile_curve(ARC, MODEL, -0.016, QuoteStyle.FLOATING_CALL, grid)
    vols = {float(p.implied_vol) for p in pts}
    assert len(vols) == 1


def test_calibration_report_shape_and_round_trip():
    v_true = -0.016
    grid = [(0.1, 0.45, m) for m in (0.97, 1.0, 1.03)]
    pts = smile_curve(ARC, MODEL, v_true, QuoteStyle.FLOATING_CALL, grid)
    body = "".join(
        f"0.1,0.45,100,{100.0 * p.moneyness},,floating_call,{float(p.implied_vol)!r}\n"
        for p in pts
    )
    csv_text = "t,T,spot,avg,strike,style,implied_vol\n" + body + "bad,row,,,,,\n"
    ingest = ingest_quotes(io.StringIO(csv_text))
    report = calibration_report(ingest, ARC, MODEL)
    for key in ("a_eps", "d_eps", "r_squared", "n", "se_a_eps", "rejects",
                "v_eps_by_cell", "v_eps_range"):
        assert key in report, f"missing report key {key}"
    assert "warnings" not in report
    assert report["n"] == 3
    assert len(report["rejects"]) == 1
    assert len(report["v_eps_by_cell"]) == 1
    cell = report["v_eps_by_cell"][0]
    assert (cell["t"], cell["T"], cell["n"]) == (0.1, 0.45, 3)
    assert rel(cell["v_eps"], v_true) < 1e-9
    assert report["v_eps_range"][0] == report["v_eps_range"][1] == cell["v_eps"]
