import argparse
import contextlib
import csv
import io
import hashlib
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoasian import VolArc, calibration, cli, errors, smile_curve
from geoasian.calibration import QuoteStyle
from geoasian.cli import EXIT_COMPARISON, EXIT_DATA, EXIT_OK, EXIT_VALIDATION, main
from geoasian.closedform import bs_fixed_call, bs_floating_call
from geoasian.mc import ConstantVol, McConfig, price_mc, reference_full_model, simulate_paths
from geoasian.model import MarketState, ModelParams, OptionKind, OptionSpec, StrikeStyle
from perfbench.workloads import MODEL_FLAGS, make_quotes, write_quotes

PRICE_ARGS = [
    "price", "--style", "floating", "--kind", "call",
    "--spot", "100", "--t", "0", "--T", "0.45",
    "--k", "2", "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.20",
    "--v-eps", "-0.016",
]

MODEL_ARGS = ["--k", "2", "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.20"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def quotes_csv(tmp_path, name="quotes.csv"):
    """Synthetic single-cell smile at a known v_eps plus one malformed row."""
    model = reference_full_model(0.001)
    arc = VolArc(p_coef=-0.0332, q_coef=0.0332, r_coef=0.1834)
    grid = [(0.1, 0.45, m) for m in (0.97, 1.0, 1.03)]
    pts = smile_curve(arc, model, -0.016, QuoteStyle.FLOATING_CALL, grid)
    lines = ["t,T,spot,avg,strike,style,implied_vol"]
    for p in pts:
        lines.append(f"0.1,0.45,100,{100.0 * p.moneyness!r},,floating_call,{float(p.implied_vol)!r}")
    lines.append("oops,0.45,100,100,,floating_call,0.19")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------------- price


def test_price_reports_breakdown(capsys):
    code, out, err = run(capsys, PRICE_ARGS)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"] == "price"
    for key in ("inputs", "inputs_digest", "outputs", "warnings", "wall_time_s"):
        assert key in report
    outputs = report["outputs"]
    for key in ("b0", "gamma", "c0", "c1", "price_hat", "m_exponent", "sigma_bar"):
        assert key in outputs
    assert outputs["price_hat"] == pytest.approx(outputs["c0"] + outputs["c1"])
    assert outputs["sigma_bar"] == pytest.approx(0.1834)
    assert math.isfinite(outputs["price_hat"])


FIXED_PUT_ARGS = [
    "price", "--style", "fixed", "--kind", "put", "--spot", "100",
    "--t", "0.1", "--T", "0.45", "--v-eps", "-0.016", *MODEL_ARGS,
]


@pytest.mark.parametrize("argv, signs", [
    (FIXED_PUT_ARGS + ["--strike", "97"], ["price_hat", "|c1|", "gamma"]),
    (FIXED_PUT_ARGS + ["--strike", "100"], ["gamma"]),
    (PRICE_ARGS, []),
], ids=["fixed-put-K97", "fixed-put-K100", "floating-atm-call"])
def test_price_warns_outside_the_reliable_domain(capsys, argv, signs):
    """One ``domain:`` warning names every sign that holds; the exit code
    stays 0 either way."""
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    report = json.loads(out)
    o = report["outputs"]
    held = {
        "price_hat": o["price_hat"] <= 0.0,
        "|c1|": abs(o["c1"]) > o["c0"],
        "gamma": not 0.5 <= o["gamma"] <= 2.0,
    }
    assert [name for name, holds in held.items() if holds] == signs
    if not signs:
        assert report["warnings"] == []
        return
    (warning,) = report["warnings"]
    assert warning.startswith("domain: ")
    named = [part.split()[0] for part in warning.removeprefix("domain: ").split("; ")]
    assert named == signs


def test_price_digest_is_stable_and_input_sensitive(capsys):
    _, out1, _ = run(capsys, PRICE_ARGS)
    _, out2, _ = run(capsys, PRICE_ARGS)
    _, out3, _ = run(capsys, PRICE_ARGS[:-1] + ["-0.02"])
    d1 = json.loads(out1)["inputs_digest"]
    d2 = json.loads(out2)["inputs_digest"]
    d3 = json.loads(out3)["inputs_digest"]
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 64


def test_price_json_flag_is_single_line(capsys):
    code, out, _ = run(capsys, PRICE_ARGS + ["--json"])
    assert code == EXIT_OK
    assert out.count("\n") == 1
    json.loads(out)


def test_price_rejects_bad_model(capsys):
    code, out, err = run(capsys, [
        "price", "--style", "floating", "--kind", "call",
        "--spot", "100", "--t", "0", "--T", "0.45",
        "--k", "-2", "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.20",
    ])
    assert code == EXIT_VALIDATION
    payload = json.loads(err)
    assert payload["error"] == "OutOfDomain"
    assert payload["message"] == "k must be > 0, got -2.0"


MODEL_FLAG_DEFAULTS = dict(zip(MODEL_ARGS[::2], MODEL_ARGS[1::2]))


def model_command(command, tmp_path, flag, value):
    """argv of ``command`` with every model flag valid but ``flag``."""
    model = [item for name, default in {**MODEL_FLAG_DEFAULTS, flag: value}.items()
             for item in (name, default)]
    own = {
        "price": ["--style", "floating", "--kind", "call", "--spot", "100",
                  "--t", "0", "--T", "0.45"],
        "calibrate": ["--quotes", str(quotes_csv(tmp_path))],
        "smile": ["--t", "0.1", "--T", "0.45", "--out", str(tmp_path / "smile.csv")],
    }[command]
    return [command, *own, *model]


@pytest.mark.parametrize("command", ["price", "calibrate", "smile"])
@pytest.mark.parametrize("flag, value, error", [
    ("--k", "0", "OutOfDomain"),
    ("--k", "-1", "OutOfDomain"),
    ("--k", "nan", "NonFiniteInput"),
    ("--r", "-0.01", "OutOfDomain"),
    ("--r", "inf", "NonFiniteInput"),
    ("--alpha-prime", "-0.2", "OutOfDomain"),
    ("--z0", "0.20", "OutOfDomain"),  # equal to --alpha-prime: a flat arc
    ("--z0", "-0.1834", "OutOfDomain"),
    ("--sigma-min", "0", "OutOfDomain"),
    ("--sigma-min", "nan", "NonFiniteInput"),
])
def test_every_out_of_range_model_flag_exits_2_with_a_pricing_error(
        capsys, tmp_path, command, flag, value, error):
    code, out, err = run(capsys, model_command(command, tmp_path, flag, value))
    assert code == EXIT_VALIDATION
    assert out == "" and not (tmp_path / "smile.csv").exists()
    payload = json.loads(err)
    assert payload["error"] == error
    assert issubclass(getattr(errors, payload["error"]), errors.PricingError)


def test_price_rejects_floating_with_strike(capsys):
    code, _, err = run(capsys, PRICE_ARGS + ["--strike", "95"])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "UnsupportedContract"


def test_price_rejects_nan_spot(capsys):
    argv = list(PRICE_ARGS)
    argv[argv.index("--spot") + 1] = "nan"
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


def test_price_rejects_nan_rate(capsys):
    argv = list(PRICE_ARGS)
    argv[argv.index("--r") + 1] = "nan"
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


def test_price_rejects_infinite_sigma_min(capsys):
    code, out, err = run(capsys, PRICE_ARGS + ["--sigma-min=inf"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


@settings(max_examples=40, deadline=None)
@given(
    flag=st.sampled_from(["--spot", "--avg", "--t", "--T", "--v-eps", "--k", "--r", "--z0",
                          "--alpha-prime", "--sigma-min"]),
    value=st.sampled_from(["nan", "inf", "-inf"]),
)
def test_price_never_exits_ok_on_a_non_finite_input(flag, value):
    argv = list(PRICE_ARGS)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    argv.append(f"{flag}={value}")  # "=" keeps argparse from reading -inf as a flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_VALIDATION
    assert out.getvalue() == ""
    json.loads(err.getvalue())


def test_price_singular_window_is_a_validation_error(capsys):
    code, _, err = run(capsys, [
        "price", "--style", "floating", "--kind", "call",
        "--spot", "100", "--t", "0.55", "--T", "0.7",
        *MODEL_ARGS, "--v-eps", "-0.016",
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "SingularIntegral"


def test_price_refuses_a_window_that_crosses_k_tau_1(capsys):
    """kt = 0.2 < 1 < kT = 1.4: the closed I-integrals refuse the window, as
    their quadrature oracle does; without a correction it still prices."""
    argv = ["price", "--style", "floating", "--kind", "call", "--spot", "100",
            "--t", "0.1", "--T", "0.7", *MODEL_ARGS]
    code, out, err = run(capsys, [*argv, "--v-eps", "-0.016"])
    assert code == EXIT_VALIDATION and out == ""
    assert json.loads(err)["error"] == "SingularIntegral"
    code, out, _ = run(capsys, [*argv, "--v-eps", "0"])
    assert code == EXIT_OK
    assert json.loads(out)["outputs"]["c1"] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags, error", [
    # ln gamma = 6.2e4 near kT = 2
    (["--strike", "120", "--t", "0", "--T", "0.45", "--k", "4.444442222222222",
      "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.2"], "SingularGamma"),
    # c1 = inf
    (["--strike", "100", "--t", "0.1", "--T", "0.45", *MODEL_ARGS, "--v-eps", "1e308"],
     "OutOfDomain"),
])
def test_a_price_that_overflows_exits_2_with_its_error_name(capsys, flags, error):
    argv = ["price", "--style", "fixed", "--kind", "put", "--spot", "100", *flags]
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION and out == ""
    assert json.loads(err)["error"] == error


def test_a_maturity_beyond_the_float_range_exits_2(capsys):
    """T^3 of a 1e103-year maturity raised an OverflowError, exit 1."""
    code, out, err = run(capsys, ["price", "--style", "fixed", "--kind", "call", "--strike",
                                  "100", "--spot", "100", "--t", "0", "--T", "1e103",
                                  "--k", "1", "--r", "0.0264", "--z0", "0.1834",
                                  "--alpha-prime", "0.2"])
    assert code == EXIT_VALIDATION and out == ""
    assert json.loads(err) == {"error": "OutOfDomain",
                               "message": "b0: T must be <= 1e+75, got 1e+103"}


def test_a_slow_speed_keeps_gamma(capsys):
    """At k = 1e-200 the log of the rounded ratio (2 - kT)/(2 - kt) is 0, and
    gamma read 0.8579; exp(m (T - t - I0)) is 0.9502."""
    code, out, _ = run(capsys, ["price", "--style", "floating", "--kind", "call", "--spot",
                                "100", "--t", "0.1", "--T", "0.45", "--k", "1e-200",
                                "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.2"])
    assert code == EXIT_OK
    assert round(json.loads(out)["outputs"]["gamma"], 4) == 0.9502


# --------------------------------------------------------------- calibrate


def test_calibrate_round_trip_with_scatter(tmp_path, capsys):
    quotes = quotes_csv(tmp_path)
    scatter = tmp_path / "scatter.csv"
    code, out, _ = run(capsys, [
        "calibrate", *MODEL_ARGS, "--quotes", str(quotes),
        "--scatter-out", str(scatter),
    ])
    assert code == EXIT_OK
    report = json.loads(out)
    outputs = report["outputs"]
    assert outputs["n"] == 3
    assert len(outputs["rejects"]) == 1
    assert outputs["rejects"][0]["line"] == 5
    cells = outputs["v_eps_by_cell"]
    assert len(cells) == 1
    # quotes were generated off the OU arc itself, so the cell recovers v_eps
    assert cells[0]["v_eps"] == pytest.approx(-0.016, rel=1e-9)
    assert any("rejected" in w for w in report["warnings"])

    with open(scatter, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y"]
    assert len(rows) == 4


def test_calibrate_scatter_regresses_each_quote_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = calibration.regression_row

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(calibration, "regression_row", counted)
    code, _, _ = run(capsys, [
        "calibrate", *MODEL_ARGS, "--quotes", str(quotes_csv(tmp_path)),
        "--scatter-out", str(tmp_path / "scatter.csv"),
    ])
    assert code == EXIT_OK
    assert len(calls) == 3


@pytest.mark.parametrize("column", ["t", "T", "spot", "avg", "strike", "implied_vol"])
def test_calibrate_rejects_a_quote_with_a_non_finite_field(tmp_path, capsys, column):
    quotes = quotes_csv(tmp_path)
    header = "t,T,spot,avg,strike,style,implied_vol".split(",")
    row = "0.1,0.45,100,100,100,fixed_put,0.19".split(",")
    row[header.index(column)] = "inf"
    with open(quotes, "a", encoding="utf-8") as handle:
        handle.write(",".join(row) + "\n")
    code, out, _ = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(quotes), "--json"])
    assert code == EXIT_OK
    outputs = json.loads(out)["outputs"]
    assert outputs["n"] == 3
    assert [r["line"] for r in outputs["rejects"]] == [5, 6]
    assert outputs["v_eps_by_cell"][0]["v_eps"] == pytest.approx(-0.016, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_refuses_a_fit_that_overflows(tmp_path, capsys):
    path = tmp_path / "quotes.csv"
    path.write_text("t,T,spot,avg,strike,style,implied_vol\n" + "".join(
        f"0.1,0.45,100,{avg},,floating_call,{vol}\n"
        for avg, vol in ((95, 0.2), (100, 0.21), (105, 0.19), (110, 1e200))))
    code, out, err = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(path)])
    assert code == EXIT_VALIDATION and out == ""
    assert json.loads(err) == {"error": "OutOfDomain",
                               "message": "the least-squares fit overflows a float"}


def test_calibrate_two_quotes_reports_null_standard_error(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text(
        "t,T,spot,avg,strike,style,implied_vol\n"
        "0.1,0.45,100,99,,floating_call,0.19\n"
        "0.1,0.45,100,101,,floating_call,0.18\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(path), "--json"])
    assert code == EXIT_OK
    outputs = json.loads(out)["outputs"]
    assert outputs["n"] == 2
    assert outputs["se_a_eps"] is None


def test_calibrate_single_quote_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(
        "t,T,spot,avg,strike,style,implied_vol\n"
        "0.1,0.45,100,101,,floating_call,0.19\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(path)])
    assert code == EXIT_DATA
    assert json.loads(err)["error"] == "DegenerateDesign"


def test_calibrate_missing_file_is_a_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, [
        "calibrate", *MODEL_ARGS, "--quotes", str(tmp_path / "absent.csv")
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_calibrate_bad_header_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    code, _, err = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(path)])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "MissingColumn"


def test_calibrate_reads_a_quotes_file_with_a_byte_order_mark(tmp_path, capsys):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark; the
    file calibrates as it would without one."""
    plain = quotes_csv(tmp_path)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for path in (plain, marked):
        code, out, err = run(capsys, ["calibrate", *MODEL_ARGS, "--quotes", str(path), "--json"])
        assert code == EXIT_OK, err
        reports.append(json.loads(out)["outputs"])
    assert reports[1] == reports[0]
    assert reports[1]["rejects"][0]["line"] == 5


# ------------------------------------------------------------------- smile


def test_smile_stdout_csv(capsys):
    code, out, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45",
        "--grid", "0.95:1.05:5", "--v-eps", "-0.016",
    ])
    assert code == EXIT_OK
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["maturity", "moneyness", "implied_vol"]
    assert len(rows) == 6
    vols = [float(r[2]) for r in rows[1:]]
    assert all(0.05 < v < 0.6 for v in vols)
    assert err == ""


def test_smile_file_output_with_report(tmp_path, capsys):
    out_path = tmp_path / "smile.csv"
    code, out, _ = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45",
        "--grid", "0.9:1.1:7", "--style", "fixed_put", "--out", str(out_path),
    ])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["outputs"] == {"csv": str(out_path), "points": 7, "skipped": 0}
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 8


NEGATIVE_VOL_SMILE = ["smile", *MODEL_ARGS, "--style", "fixed_put", "--v-eps", "-0.016",
                      "--t", "0.1", "--T", "0.45"]
NEGATIVE_VOL_WARNINGS = [
    "domain: moneyness 1.1 implied_vol -0.03684 <= 0",
    "domain: moneyness 1.125 implied_vol -0.08396 <= 0",
    "domain: moneyness 1.15 implied_vol -0.1302 <= 0",
    "domain: moneyness 1.175 implied_vol -0.1755 <= 0",
    "domain: moneyness 1.2 implied_vol -0.22 <= 0",
]


def test_smile_warns_once_per_non_positive_vol(tmp_path, capsys):
    """The first-order vol crosses 0 on the default grid; the CSV keeps each
    point as it is, exit code 0, and one domain warning names each."""
    code, out, err = run(capsys, [*NEGATIVE_VOL_SMILE, "--out", "-"])
    assert code == EXIT_OK
    vols = [float(r[2]) for r in list(csv.reader(out.splitlines()))[1:]]
    assert len(vols) == 17 and sum(v <= 0.0 for v in vols) == 5
    assert err.splitlines() == NEGATIVE_VOL_WARNINGS
    out_path = tmp_path / "smile.csv"
    code, out, err = run(capsys, [*NEGATIVE_VOL_SMILE, "--out", str(out_path)])
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["warnings"] == NEGATIVE_VOL_WARNINGS
    with open(out_path, newline="") as handle:
        assert [float(r[2]) for r in list(csv.reader(handle))[1:]] == vols


def test_smile_flags_inadmissible_points(tmp_path, capsys):
    out_path = tmp_path / "smile.csv"
    code, out, _ = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.55", "--T", "0.7",
        "--grid", "0.98:1.02:3", "--out", str(out_path),
    ])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["outputs"]["skipped"] == 3
    assert len(report["warnings"]) == 3
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(r[2] == "" for r in rows[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_smile_flags_a_vol_that_overflows(capsys):
    code, out, err = run(capsys, ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45",
                                  "--grid", "0.9:1.1:3", "--v-eps", "1e308"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[2] for r in rows][::2] == ["", ""]
    assert math.isfinite(float(rows[1][2]))
    assert "inf" not in out
    flagged = [line for line in err.splitlines() if "skipped" in line]
    assert [line.split(": ", 1)[1] for line in flagged] == [
        "OutOfDomain: implied vol inf is not finite",
        "OutOfDomain: implied vol -inf is not finite",
    ]


def test_smile_rejects_non_finite_v_eps(capsys):
    code, out, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--v-eps", "nan", "--out", "-",
    ])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "v_eps must be finite" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--t", "--T"])
def test_smile_rejects_a_non_finite_time_or_spot(capsys, flag, value):
    argv = ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45",
            "--grid", "0.99:1.01:3", "--out", "-"]
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


def test_smile_rejects_a_negative_time(capsys, tmp_path):
    """A negative --t, or a --t not before --T: every point of the curve would
    be flagged; the command refuses instead."""
    out_csv = tmp_path / "smile.csv"
    for t, T in (("-0.1", "0.45"), ("0.3", "0.2"), ("0.3", "0.3")):
        code, out, err = run(capsys, ["smile", *MODEL_ARGS, "--t", t, "--T", T,
                                      "--out", str(out_csv)])
        assert code == EXIT_VALIDATION, (t, T)
        assert out == "" and not out_csv.exists()
        assert json.loads(err)["error"] == "OutOfDomain"


def test_smile_rejects_malformed_grid(capsys):
    code, _, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--grid", "nope",
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "UnparseableField"


@pytest.mark.parametrize("grid, error", [
    ("nan:1.1:3", "NonFiniteInput"),
    ("0.9:inf:3", "NonFiniteInput"),
    ("-inf:1.1:3", "NonFiniteInput"),
    ("0.9:1.1:0", "OutOfDomain"),
])
def test_smile_rejects_a_non_finite_or_empty_grid(capsys, tmp_path, grid, error):
    """A NaN or infinite bound or an empty grid exits 2 before any CSV is written."""
    out = tmp_path / "smile.csv"
    code, _, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", f"--grid={grid}", "--out", str(out),
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == error
    assert not out.exists()


def test_smile_to_stdout_prints_only_csv(capsys):
    """``--out -`` streams the CSV and no report, even with ``--json``."""
    code, out, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--grid", "0.95:1.05:3",
        "--out", "-", "--json",
    ])
    assert code == EXIT_OK
    assert err == ""
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["maturity", "moneyness", "implied_vol"]
    assert len(rows) == 4
    assert all(len(r) == 3 and float(r[0]) == 0.45 for r in rows[1:])


# ---------------------------------------------------------------- validate


def test_validate_constant_mode_small_run(capsys):
    code, out, _ = run(capsys, [
        "validate", "--paths", "600", "--steps", "24", "--seed", "7",
    ])
    assert code == EXIT_OK
    report = json.loads(out)
    comparisons = report["outputs"]["comparisons"]
    assert len(comparisons) == 4
    assert all(row["pass"] for row in comparisons)
    assert any("underpowered" in w for w in report["warnings"])
    assert "epsilon_direction" not in report["outputs"]


def test_validate_detects_coarse_discretization(capsys):
    """Two time steps bias the averaged payoff enough for the 3-sigma gate."""
    code, out, _ = run(capsys, [
        "validate", "--paths", "100000", "--steps", "2", "--seed", "3",
    ])
    assert code == EXIT_COMPARISON
    report = json.loads(out)
    assert any(not row["pass"] for row in report["outputs"]["comparisons"])


def test_validate_full_mode_reports_direction(capsys):
    code, out, _ = run(capsys, [
        "validate", "--mode", "full", "--paths", "20000", "--steps", "60",
        "--seed", "11", "--T", "0.45",
    ])
    assert code == EXIT_OK
    report = json.loads(out)
    direction = report["outputs"]["epsilon_direction"]
    assert direction["pass"] is True
    assert direction["big"]["epsilon"] == 0.1
    assert direction["small"]["epsilon"] == 0.001
    for side in ("big", "small"):
        for key in ("c0", "mc", "se", "se_plain", "abs_dev"):
            assert key in direction[side]
        assert direction[side]["se"] < direction[side]["se_plain"]


def test_validate_simulates_once_and_matches_per_spec_prices(capsys, monkeypatch):
    """The martingale check and the three payoffs share one simulated path
    set, and each comparison equals a standalone price_mc with that config."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate_paths(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", counted)
    code, out, _ = run(capsys, [
        "validate", "--paths", "2000", "--steps", "16", "--seed", "5", "--json",
    ])
    assert code == EXIT_OK
    assert len(calls) == 1
    rows = {row["name"]: row for row in json.loads(out)["outputs"]["comparisons"]}

    model = ModelParams(r=0.0264, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001)
    state = MarketState(t=0.0, x=100.0, g=100.0)
    vol = ConstantVol(0.1834)
    cfg = McConfig(n_paths=2000, n_steps=16, seed=5, antithetic=True)
    expected = [
        ("floating ATM call", OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=0.5),
         bs_floating_call(state, 0.1834, 0.5, 0.0264)),
        ("fixed ATM call", OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.5, strike=100.0),
         bs_fixed_call(state, 0.1834, 0.5, 100.0, 0.0264)),
        ("fixed call, K near 0",
         OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.5, strike=1e-6 * 100.0),
         bs_fixed_call(state, 0.1834, 0.5, 1e-6 * 100.0, 0.0264)),
    ]
    for name, spec, closed in expected:
        est = price_mc(spec, model, vol, state, cfg)
        assert (rows[name]["mc"], rows[name]["se"]) == (est.price, est.std_error)
        assert rows[name]["closed"] == float(closed)
    assert len(rows) == 4
    martingale = rows["martingale e^{-rT} E[X_T]"]
    assert martingale["closed"] == 100.0
    assert abs(martingale["z"]) < 3.0


def test_validate_exponentiates_each_path_array_once(capsys, monkeypatch):
    """The martingale check and the three payoffs read X_T and G_T from the
    one batch: two exps over the paths' logs per command, where each payoff
    and the martingale check used to take their own (seven)."""
    path_exps = []
    exp = np.exp

    def counted(a, *args, **kwargs):
        if getattr(a, "shape", None) == (2000,):
            path_exps.append(a)
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    code, _, _ = run(capsys, ["validate", "--paths", "2000", "--steps", "16", "--seed", "5"])
    assert code == EXIT_OK
    assert len(path_exps) == 2


# (argv, SHA-256 of the report's outputs as compact JSON with sorted keys).
# The constant one was recorded from the oracle before its payoffs and
# standard errors were formed in place, the full one since the frozen
# control's law came from the pair law all runs share (it moved the prices
# by about 3e-15 of their value); they guard the oracle's bits against a
# regression and are not values derived by an independent route (the
# full-model estimator is, in test_mc.py's test_frozen_estimates).
PINNED_VALIDATE = [
    (["validate", "--paths", "2000", "--steps", "16", "--seed", "5", "--json"],
     "eb9d41bc855cbf7a2dade660049b232e20aaf89e9051fec8944b4dc7bd51d0ad"),
    (["validate", "--mode", "full", "--paths", "4000", "--steps", "24", "--seed", "7", "--json"],
     "0e4ff34d914e5beeb4c320318832f90bf4fde7e43c1c4ef5eb5f58e42a55ae8a"),
]


@pytest.mark.parametrize("argv, digest", PINNED_VALIDATE, ids=["constant", "full"])
def test_validate_outputs_are_pinned(capsys, argv, digest):
    """A speed change that should keep every bit of the oracle's comparisons,
    constant-vol and full-model, cannot drift them."""
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    outputs = json.dumps(json.loads(out)["outputs"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(outputs.encode()).hexdigest() == digest


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spot", ["1e-300", "1e300"])
def test_validate_keeps_its_standard_errors_at_extreme_spots(capsys, spot):
    """Every price scales with the spot, so each row's z at spot 1e-300 or
    1e300 is its z at spot 1 up to rounding. The squared deviations used to
    underflow to an SE of 0, every row failing with z null, or overflow to an
    SE of inf, refused with exit 2."""
    argv = ["validate", "--paths", "1000", "--steps", "10", "--json"]
    code, out, _ = run(capsys, [*argv, "--spot", spot])
    _, unit, _ = run(capsys, [*argv, "--spot", "1"])
    assert code == EXIT_OK
    rows = json.loads(out)["outputs"]["comparisons"]
    want = json.loads(unit)["outputs"]["comparisons"]
    assert len(rows) == len(want) == 4
    for row, unit_row in zip(rows, want):
        assert row["se"] > 0.0 and math.isfinite(row["z"])
        assert abs(row["z"] - unit_row["z"]) < 1e-6


def test_validate_refuses_a_zero_sigma_before_drawing_a_path(capsys, monkeypatch):
    """The closed forms refuse sigma = 0, and they run before the simulation."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate_paths(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", counted)
    code, out, err = run(capsys, ["validate", "--sigma", "0", "--paths", "200000"])
    assert code == EXIT_VALIDATION
    assert "sigma must be > 0" in out + err
    assert calls == []


@pytest.mark.parametrize("T, code", [("9.99e-10", EXIT_VALIDATION), ("1e-9", EXIT_OK)])
def test_validate_refuses_a_horizon_below_the_closed_forms_tolerance(capsys, T, code):
    """Below HORIZON_TOL the closed forms give the terminal payoff, which no
    path set of a positive horizon matches: every row used to fail, exit 4."""
    got, out, err = run(capsys, ["validate", "--paths", "600", "--steps", "8", "--T", T])
    assert got == code
    if code == EXIT_VALIDATION:
        assert out == "" and json.loads(err)["error"] == "DegenerateHorizon"
    else:
        assert all(row["pass"] for row in json.loads(out)["outputs"]["comparisons"])


def test_validate_refuses_a_single_antithetic_pair(capsys):
    """One pair has no standard error; its NaN would make the report invalid JSON."""
    code, out, err = run(capsys, ["validate", "--paths", "2"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "OutOfDomain"


@pytest.mark.parametrize("mode", ["constant", "full"])
@pytest.mark.parametrize("flag, value", [("--r", "-0.01")])
def test_validate_refuses_a_negative_rate_or_floor_in_either_mode(capsys, mode, flag, value):
    code, out, err = run(capsys, ["validate", "--paths", "600", "--steps", "8", "--mode", mode,
                                  flag, value])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "OutOfDomain"


def test_validate_fails_a_zero_se_row_that_misses_its_closed_form(capsys):
    """At sigma = 50 every path's payoff is 0, so each payoff row has SE 0.
    With no spread to scale the gap, the rounding floor of 64 ulps of the
    spot does: the floating call (closed form 100) fails, while the fixed
    calls, whose closed forms are 5.7e-44, match 0 to rounding and pass; z
    was 0 and every row passed. The martingale's X_T are tiny but not all
    equal (a mean of 1.9e-215 for 100): its SE is formed on rescaled values,
    not lost to underflow, and its z fails."""
    code, out, _ = run(capsys, ["validate", "--sigma", "50", "--paths", "1000", "--steps", "10",
                                "--json"])
    assert code == EXIT_COMPARISON
    martingale, floating, *fixed = json.loads(out)["outputs"]["comparisons"]
    assert all(row["se"] == 0.0 and row["mc"] != row["closed"] for row in (floating, *fixed))
    assert floating["z"] < -3.0 and not floating["pass"]
    assert all(abs(row["z"]) < 1e-20 and row["pass"] for row in fixed)
    assert martingale["se"] > 0.0 and martingale["z"] < -3.0 and not martingale["pass"]


def test_validate_passes_a_run_without_spread_up_to_rounding(capsys):
    """At sigma = 1e-9 each row's SE is about 1e-16 while its MC price and
    closed form differ by about 1e-13 from rounding alone; the floor of
    64 ulps of the spot under the SE keeps every |z| below 0.2, where it
    read 85, 498, -374 and -38 and the command exited 4."""
    code, out, _ = run(capsys, ["validate", "--sigma", "1e-9", "--paths", "1000", "--steps", "10",
                                "--json"])
    assert code == EXIT_OK
    rows = json.loads(out)["outputs"]["comparisons"]
    assert all(row["se"] < 1e-14 and abs(row["z"]) < 0.2 and row["pass"] for row in rows)
    assert max(abs(row["mc"] - row["closed"]) for row in rows) > 3e-14  # not an exact match


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, value", [("--r", "1e300"), ("--T", "1e5"), ("--spot", "1.7e308")])
def test_validate_refuses_an_estimate_past_the_float_range(capsys, flag, value):
    """The martingale mean or a price that overflows a float exits 2 with
    OutOfDomain, and numpy warns of nothing; it used to warn, then reach the
    JSON writer as a bare ValueError. At spot 1.7e308 some X_T pass the
    float range; at spot 1e300 only the squares of the SE did, and the SE's
    rescale now prices that spot."""
    code, out, err = run(capsys, ["validate", "--paths", "1000", "--steps", "10", flag, value])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert json.loads(err)["error"] == "OutOfDomain"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_prices_a_spot_whose_every_path_is_finite(capsys):
    """At spot 8e307 every X_T is finite (the largest about 1.32e308), but
    sums of the martingale's antithetic pairs passed the float range, and
    validate exited 2 on an inf martingale mean. Every row now passes."""
    code, out, err = run(capsys, ["validate", "--spot", "8e307", "--paths", "20000",
                                  "--steps", "10", "--json"])
    assert code == EXIT_OK, err
    rows = json.loads(out)["outputs"]["comparisons"]
    assert len(rows) == 4
    assert all(math.isfinite(row["mc"]) and 0.0 < row["se"] < math.inf and row["pass"]
               for row in rows)


# each argv asks for an array of at least 10**14 float64s, over 700 TiB: past
# the address space, so numpy refuses it at once and touches no memory
HUGE = str(10**14)


@pytest.mark.parametrize("argv", [
    ["validate", "--paths", HUGE, "--steps", "2"],
    ["validate", "--paths", "2000", "--steps", HUGE, "--mode", "full"],
    ["smile", "--k", "2", "--r", "0.0264", "--z0", "0.1834", "--alpha-prime", "0.2", "--t", "0.1",
     "--T", "0.45", "--grid", f"0.9:1.1:{HUGE}", "--out", "-"],
], ids=["validate-paths", "validate-full-steps", "smile-grid"])
def test_an_array_too_large_to_allocate_exits_2(capsys, argv):
    """Each ended in numpy's _ArrayMemoryError traceback, exit 1."""
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    failure = json.loads(err)
    assert failure["error"] == "OutOfDomain"
    assert failure["message"].startswith("an array too large to allocate")


EXTREME_SIGMA_PRICE = ["price", "--k", "2", "--r", "0.0264", "--alpha-prime", "2e-170",
                       "--sigma-min", "1e-300", "--style", "floating", "--kind", "call",
                       "--spot", "100", "--t", "0", "--T", "0.4", "--v-eps", "-0.01"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["validate", "--paths", "1000", "--sigma", "1e152"],
    ["validate", "--paths", "1000", "--sigma", "1e153"],
    EXTREME_SIGMA_PRICE + ["--z0", "1e-170"],
    EXTREME_SIGMA_PRICE + ["--z0", "1e160"],
], ids=["validate-1e152", "validate-1e153", "price-z0-1e-170", "price-z0-1e160"])
def test_an_extreme_sigma_exits_2_naming_sigma(capsys, argv):
    """A sigma the closed forms cannot take exits 2 with OutOfDomain naming
    sigma, and numpy warns of nothing. validate warned as it drew a
    constant-vol law past the float range; a z0 of 1e-170 ended in a
    ZeroDivisionError traceback, and one of 1e160 blamed gamma's m."""
    code, out, err = run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "OutOfDomain" and "sigma" in error["message"], error


def test_validate_cost_does_not_grow_with_steps(capsys):
    """A constant-vol path draws two normals whatever the step count, so ten
    million steps run as fast as a few."""
    start = time.perf_counter()
    code, out, _ = run(capsys, ["validate", "--paths", "2000", "--steps", "10000000"])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["steps"] == 10_000_000


# ---------------------------------------------------------------- reports


PRICE_INPUTS = dict(k=2.0, r=0.0264, z0=0.1834, alpha_prime=0.2, sigma_min=1e-4, spot=100.0,
                    t=0.1, T=0.45)

# (argv, the inputs it echoes, the SHA-256 of those inputs as compact JSON
# with sorted keys)
PINNED_DIGESTS = [
    (["price", "--style", "floating", "--kind", "call", "--spot", "100", "--avg", "101",
      "--t", "0.1", "--T", "0.45", *MODEL_ARGS, "--v-eps", "-0.016", "--json"],
     dict(PRICE_INPUTS, style="floating", kind="call", avg=101.0, strike=None, v_eps=-0.016,
          gamma_off=False),
     "c505595786e3a51b90aa710780009abfdd831c0a5dc4aa8dd4a16bca574000c3"),
    (["price", "--style", "fixed", "--kind", "put", "--spot", "100", "--strike", "100",
      "--t", "0.1", "--T", "0.45", *MODEL_ARGS, "--gamma-off", "--json"],
     dict(PRICE_INPUTS, style="fixed", kind="put", avg=100.0, strike=100.0, v_eps=0.0,
          gamma_off=True),
     "d05bc2bde189498b8c608120f747424851f0ba3cf628dfc44a992de0ff0da3c8"),
    (["validate", "--paths", "2000", "--steps", "16", "--seed", "5", "--json"],
     dict(r=0.0264, paths=2000, steps=16, seed=5, mode="constant", sigma=0.1834, spot=100.0,
          T=0.5),
     "0c77e7c2d23e02768f9a8d0fdc2d587ca937d0ef8d56a828a675be62df7733bb"),
]


@pytest.mark.parametrize("argv, inputs, digest", PINNED_DIGESTS,
                         ids=["floating", "fixed-put", "validate"])
def test_inputs_digest_is_pinned(capsys, argv, inputs, digest):
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == digest
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    report = json.loads(out)
    assert (report["inputs"], report["inputs_digest"]) == (inputs, digest)


def subparser_dests(command):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions} - {"help", "json"}


COMMAND_DESTS = {
    "price": "k r z0 alpha_prime sigma_min style kind spot avg strike t T v_eps gamma_off",
    "calibrate": "k r z0 alpha_prime sigma_min quotes scatter_out",
    "validate": "r paths steps seed mode sigma spot T",
    "smile": "k r z0 alpha_prime sigma_min t T grid style v_eps out",
}


def test_inputs_echo_every_flag_of_the_command(tmp_path, capsys):
    """Each command takes exactly the flags it reads, and echoes each one."""
    argvs = {
        "price": PRICE_ARGS,
        "calibrate": ["calibrate", *MODEL_ARGS, "--quotes", str(quotes_csv(tmp_path))],
        "validate": ["validate", "--paths", "600", "--steps", "8", "--seed", "1"],
        "smile": ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--grid", "0.95:1.05:3",
                  "--out", str(tmp_path / "smile.csv")],
    }
    for command, argv in argvs.items():
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK, command
        report = json.loads(out)
        assert report["command"] == command
        assert set(report["inputs"]) == subparser_dests(command), command
        assert subparser_dests(command) == set(COMMAND_DESTS[command].split()), command
    # price echoes the spot as the running average when --avg is not given
    assert json.loads(run(capsys, PRICE_ARGS)[1])["inputs"]["avg"] == 100.0


# ------------------------------------------------------------------ parser

def parse_outcome(capsys, parse):
    """(exit code, stdout, stderr) of a parse that exits, as help and errors do."""
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["bogus"],
    ["calibrate", "-h"],
    ["calibrate", *MODEL_ARGS, "--quotes", "q.csv", "--bogus"],
    ["calibrate", *MODEL_ARGS],
    ["smile", *MODEL_ARGS, "--t", "0.1"],
    ["price", *MODEL_ARGS, "--style", "floating", "--kind", "call", "--spot", "abc",
     "--t", "0", "--T", "0.45"],
    [*PRICE_ARGS, "--nu", "0.3"],
], ids=["help", "unknown-command", "command-help", "unrecognised-flag", "missing-flag",
        "smile-missing-flag", "bad-value", "removed-model-flag"])
def test_help_and_errors_match_the_full_parser(capsys, monkeypatch, argv):
    """What ``main`` prints for help and parse errors, and its exit code, are
    those of the parser of every command."""
    monkeypatch.setenv("COLUMNS", "80")
    full = parse_outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    assert parse_outcome(capsys, lambda: main(argv)) == full
    assert full[0] in (0, 2)


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    """Only the first of several calls, a parse error among them, constructs
    an ArgumentParser, and no flag or default of one command reaches the
    report of another."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    validate = ["validate", "--paths", "600", "--steps", "8", "--seed", "1"]
    calls = [validate, [*PRICE_ARGS, "--spot", "abc"], PRICE_ARGS, validate]
    codes, counts, reports = [], [], []
    for argv in calls:
        before = len(built)
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        counts.append(len(built) - before)
        out = capsys.readouterr().out
        if out:
            reports.append(json.loads(out))
    assert codes == [EXIT_OK, EXIT_VALIDATION, EXIT_OK, EXIT_OK]
    assert counts == [1 + len(cli._COMMANDS), 0, 0, 0]
    assert [report["command"] for report in reports] == ["validate", "price", "validate"]
    for report in reports:
        assert set(report["inputs"]) == subparser_dests(report["command"])
    assert reports[0]["inputs"] == reports[2]["inputs"]


def test_help_and_errors_take_the_width_at_which_they_print(capsys, monkeypatch):
    """The parser built at one terminal width prints help and errors at the
    width of the moment, as a parser built then would."""
    monkeypatch.setenv("COLUMNS", "200")
    cli.build_parser.cache_clear()
    cli.build_parser()
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["-h"], ["calibrate", "-h"], ["calibrate", *MODEL_ARGS]):
            fresh = parse_outcome(capsys, lambda: cli.build_parser.__wrapped__().parse_args(argv))
            assert parse_outcome(capsys, lambda: main(argv)) == fresh, (columns, argv)


@pytest.mark.parametrize("argv", [
    [*PRICE_ARGS, "--nu", "0.3"],
    ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--rho-xy", "-0.5"],
    ["validate", "--k", "5"],
    ["validate", "--epsilon", "0.2"],
    [*PRICE_ARGS, "--epsilon", "0.5"],
    ["calibrate", *MODEL_ARGS, "--quotes", "quotes.csv", "--epsilon", "0.5"],
    ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--epsilon", "0.5"],
    ["smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--spot", "50"],
    ["validate", "--mode", "full", "--sigma-min", "0.1"],
], ids=["price-nu", "smile-rho-xy", "validate-k", "validate-epsilon", "price-epsilon",
        "calibrate-epsilon", "smile-epsilon", "smile-spot", "validate-sigma-min"])
def test_a_flag_the_command_does_not_read_is_refused(capsys, argv):
    code, out, err = parse_outcome(capsys, lambda: main(argv))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "unrecognized arguments" in err


# every flag of a command but --json, at the value a second run changes; a
# value None drops the flag and True sets a switch
BASE_FLAGS = {
    "price": {"--style": "fixed", "--kind": "call", "--strike": "100", "--spot": "100",
              "--t": "0.1", "--T": "0.45", "--k": "2", "--r": "0.0264", "--z0": "0.1834",
              "--alpha-prime": "0.20", "--v-eps": "-0.016"},
    "calibrate": {"--quotes": "{tmp}/quotes.csv", "--k": "2", "--r": "0.0264", "--z0": "0.1834",
                  "--alpha-prime": "0.20"},
    "validate": {"--paths": "600", "--steps": "8", "--seed": "1"},
    "smile": {"--t": "0.1", "--T": "0.45", "--grid": "0.95:1.05:3", "--v-eps": "-0.016",
              "--out": "{tmp}/smile.csv", "--k": "2", "--r": "0.0264", "--z0": "0.1834",
              "--alpha-prime": "0.20"},
}
MODEL_SECOND_VALUES = [
    ("k", {"--k": "1.5"}),
    ("r", {"--r": "0.03"}),
    ("z0", {"--z0": "0.19"}),
    ("alpha_prime", {"--alpha-prime": "0.25"}),
    ("sigma_min", {"--sigma-min": "0.25"}),  # above the arc, so the floor binds
]
SECOND_VALUES = [  # (command, dest, the flags of a second valid value of it)
    *(("price", dest, flags) for dest, flags in MODEL_SECOND_VALUES),
    ("price", "style", {"--style": "floating", "--strike": None}),
    ("price", "kind", {"--kind": "put"}),
    ("price", "spot", {"--spot": "101"}),
    ("price", "avg", {"--avg": "101"}),
    ("price", "strike", {"--strike": "95"}),
    ("price", "t", {"--t": "0.15"}),
    ("price", "T", {"--T": "0.4"}),
    ("price", "v_eps", {"--v-eps": "-0.02"}),
    ("price", "gamma_off", {"--gamma-off": True}),
    *(("calibrate", dest, flags) for dest, flags in MODEL_SECOND_VALUES),
    ("calibrate", "quotes", {"--quotes": "{tmp}/quotes2.csv"}),
    ("calibrate", "scatter_out", {"--scatter-out": "{tmp}/scatter.csv"}),
    ("validate", "r", {"--r": "0.03"}),
    ("validate", "paths", {"--paths": "800"}),
    ("validate", "steps", {"--steps": "12"}),
    ("validate", "seed", {"--seed": "2"}),
    ("validate", "mode", {"--mode": "full"}),
    ("validate", "sigma", {"--sigma": "0.25"}),
    ("validate", "spot", {"--spot": "110"}),
    ("validate", "T", {"--T": "0.4"}),
    *(("smile", dest, flags) for dest, flags in MODEL_SECOND_VALUES),
    ("smile", "t", {"--t": "0.15"}),
    ("smile", "T", {"--T": "0.4"}),
    ("smile", "grid", {"--grid": "0.9:1.1:3"}),
    ("smile", "style", {"--style": "fixed_put"}),
    ("smile", "v_eps", {"--v-eps": "-0.02"}),
    ("smile", "out", {"--out": "{tmp}/smile2.csv"}),
]


def test_every_flag_has_a_second_value():
    for command in cli._COMMANDS:
        dests = [dest for name, dest, _ in SECOND_VALUES if name == command]
        assert sorted(dests) == sorted(subparser_dests(command)), command


def flag_result(capsys, tmp_path, command, flags):
    """The report's outputs and the rows of every CSV the run wrote, with
    numeric cells as floats."""
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, value.format(tmp=tmp_path)]
    code, out, err = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_COMPARISON), err
    written = {}
    for flag in ("--out", "--scatter-out"):
        if flags.get(flag) is not None:
            with open(flags[flag].format(tmp=tmp_path), newline="") as handle:
                written[flag] = [list(map(number_or_text, row)) for row in csv.reader(handle)]
    return {"outputs": json.loads(out)["outputs"], "files": written}


def number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def differs(a, b) -> bool:
    """In structure, in a string, or in a number by more than 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(differs(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(map(differs, a, b))
    if type(a) in (int, float) and type(b) in (int, float):
        return abs(a - b) > 1e-9 * max(abs(a), abs(b))
    return a != b


@pytest.mark.parametrize("command, dest, flags", SECOND_VALUES,
                         ids=[f"{command}-{dest}" for command, dest, _ in SECOND_VALUES])
def test_a_second_value_of_every_flag_moves_the_result(capsys, tmp_path, command, dest, flags):
    """A flag that moves no output, as ``--epsilon`` did, or only its last
    bits, as ``smile --spot`` did, fails here: each flag's second value moves
    the command's outputs, or the file the command writes, by more than
    1e-9 relative."""
    quotes_csv(tmp_path)
    write_quotes(tmp_path / "quotes2.csv", make_quotes(1))
    base = flag_result(capsys, tmp_path, command, BASE_FLAGS[command])
    second = flag_result(capsys, tmp_path, command, {**BASE_FLAGS[command], **flags})
    assert differs(base, second)


def test_calibrate_outputs_and_scatter_are_pinned(tmp_path, capsys):
    """Digests of the calibrate report's outputs and of its scatter CSV for
    the benchmark's seed-1 quotes, so a speed change that should keep every
    bit cannot drift them."""
    quotes, scatter = tmp_path / "quotes.csv", tmp_path / "scatter.csv"
    write_quotes(quotes, make_quotes(1))
    code, out, _ = run(capsys, ["calibrate", *MODEL_FLAGS, "--quotes", str(quotes),
                                "--scatter-out", str(scatter), "--json"])
    assert code == EXIT_OK
    outputs = json.dumps(json.loads(out)["outputs"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(outputs.encode()).hexdigest() == (
        "67873cf79d45003bd9256fe7171a9c604c4f3e645d256b870236297e5b8e67ea")
    assert hashlib.sha256(scatter.read_bytes()).hexdigest() == (
        "f895724f83806b7af5b95fda48e9a988bc4ed75d5ca63b1cfdb9a3b334f40056")
