import argparse
import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from geoasian import VolArc, calibration, cli, smile_curve
from geoasian.calibration import QuoteStyle
from geoasian.cli import EXIT_COMPARISON, EXIT_DATA, EXIT_OK, EXIT_VALIDATION, main
from geoasian.closedform import bs_fixed_call, bs_floating_call
from geoasian.mc import ConstantVol, McConfig, price_mc, reference_full_model, simulate_paths
from geoasian.model import MarketState, ModelParams, OptionKind, OptionSpec, StrikeStyle

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
    assert payload["error"] == "ValueError"
    assert "k must be > 0" in payload["message"]


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
                          "--alpha-prime", "--epsilon", "--sigma-min", "--nu", "--rho-xy"]),
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


def test_smile_rejects_non_finite_v_eps(capsys):
    code, out, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--v-eps", "nan", "--out", "-",
    ])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "v_eps must be finite" in json.loads(err)["message"]


def test_smile_rejects_malformed_grid(capsys):
    code, _, err = run(capsys, [
        "smile", *MODEL_ARGS, "--t", "0.1", "--T", "0.45", "--grid", "nope",
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "ValueError"


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


# ---------------------------------------------------------------- reports


PINNED_DIGESTS = [
    (["price", "--style", "floating", "--kind", "call", "--spot", "100", "--avg", "101",
      "--t", "0.1", "--T", "0.45", *MODEL_ARGS, "--v-eps", "-0.016", "--json"],
     "a4a538949781c5508cd8fb136b356a5115d9c19f64c43e80f647b00c132810fa"),
    (["price", "--style", "fixed", "--kind", "put", "--spot", "100", "--strike", "100",
      "--t", "0.1", "--T", "0.45", *MODEL_ARGS, "--gamma-off", "--json"],
     "eca9b010d246fe71fda1061ea0e13c69c1997541ee4f80034659c6228089d496"),
    (["validate", "--paths", "2000", "--steps", "16", "--seed", "5", "--json"],
     "c5c457e6c64b6314c49375c4170473c79b359d2461edae639dce4e0a7cc50e32"),
]


@pytest.mark.parametrize("argv, digest", PINNED_DIGESTS, ids=["floating", "fixed-put", "validate"])
def test_inputs_digest_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out)["inputs_digest"] == digest


def subparser_dests(command):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions} - {"help", "json"}


def test_inputs_echo_every_flag_of_the_command(tmp_path, capsys):
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
    # price echoes the spot as the running average when --avg is not given
    assert json.loads(run(capsys, PRICE_ARGS)[1])["inputs"]["avg"] == 100.0
