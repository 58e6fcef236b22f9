"""Each correctness check passes on the program's output and fails on a perturbed copy.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from perfbench import checks, reference
from perfbench import workloads as w


def test_reference_fixed_put_and_call_satisfy_parity():
    s, u, t, T, sigma, r, K = math.log(100.0), 0.1 * math.log(1.01), 0.1, 0.45, 0.19, 0.0264, 101.0
    with mp.workdps(reference.DPS):
        call = reference.b0("fixed", "call", s, u, t, T, sigma, r, K)
        put = reference.b0("fixed", "put", s, u, t, T, sigma, r, K)
        tau = mp.mpf(T) - t
        mean = s + u / mp.mpf(T) + (r - mp.mpf(sigma) ** 2 / 2) * tau ** 2 / (2 * T)
        forward = mp.exp(-r * tau + mean + mp.mpf(sigma) ** 2 * tau ** 3 / (6 * T ** 2))
        assert abs(call - put - (forward - K * mp.exp(-r * tau))) < 1e-15


@pytest.fixture(scope="module")
def priced_book():
    book = w.make_book(5)
    options, price = w.book_ops(book)
    sample = [book.index(next(c for c in book if (c.style, c.kind) == kind)) for kind in w.BOOK_KINDS]
    return [book[i] for i in sample], [price(options[i], book[i]).price_hat for i in sample]


def test_book_check_passes_on_program_output(priced_book):
    contracts, prices = priced_book
    assert checks.check_book(contracts, prices) == []


@pytest.mark.parametrize("which", range(3))
def test_book_check_fails_on_perturbed_price(priced_book, which):
    contracts, prices = priced_book
    bad = list(prices)
    bad[which] += 10 * checks.BOOK_TOL_SPOT * contracts[which].x
    assert len(checks.check_book(contracts, bad)) == 1


def test_finite_check_fails_on_nan():
    assert checks.check_all_finite("book", [1.0, 2.0]) == []
    assert checks.check_all_finite("book", [1.0, math.nan])


def test_round_trip_check():
    assert checks.check_round_trip(w.V_EPS * (1 + 1e-8), w.V_EPS) == []
    assert checks.check_round_trip(w.V_EPS * (1 + 1e-5), w.V_EPS)


def test_slope_check():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    pairs = list(zip(x, 0.7 * x + rng.normal(scale=0.1, size=50)))
    slope = float(np.polyfit(x, [p[1] for p in pairs], 1)[0])
    assert checks.check_slope(slope, pairs, 50) == []
    assert checks.check_slope(slope * (1 + 1e-6), pairs, 50)
    assert checks.check_slope(slope, pairs[:-1], 50)


def test_smile_check():
    good = ["0.18", "", "0.19"]
    assert checks.check_smile(good, 3) == []
    for bad in (["0.18", "nan", "0.19"], ["0.18", "inf", "0.19"], ["0.18", "-0.01", "0.19"],
                ["", "", ""]):
        assert checks.check_smile(bad, 3), bad
    assert checks.check_smile(good, 4)


@pytest.fixture(scope="module")
def validate_run():
    code, report = w.validate_op()
    inputs = report["inputs"]
    ref = checks.validate_reference(w.SPOT, inputs["sigma"], inputs["T"], inputs["r"])
    return code, report, ref


def _shift(report, name, field, delta):
    copy = {**report, "outputs": {**report["outputs"]}}
    copy["outputs"]["comparisons"] = [
        {**row, field: row[field] + delta(row)} if row["name"] == name else row
        for row in report["outputs"]["comparisons"]
    ]
    return copy


def test_validate_check_passes_on_program_output(validate_run):
    code, report, ref = validate_run
    assert checks.check_validate(code, report, ref, w.SPOT) == []


def test_validate_check_fails_on_exit_code(validate_run):
    _, report, ref = validate_run
    assert checks.check_validate(4, report, ref, w.SPOT)


@pytest.mark.parametrize("name", ["floating ATM call", "fixed ATM call"])
def test_validate_check_fails_on_perturbed_outputs(validate_run, name):
    code, report, ref = validate_run
    far = _shift(report, name, "mc", lambda row: 4 * checks.VALIDATE_Z * row["se"])
    assert checks.check_validate(code, far, ref, w.SPOT)
    closed = _shift(report, name, "closed", lambda row: 1e-6)
    assert checks.check_validate(code, closed, ref, w.SPOT)
    no_se = _shift(report, name, "se", lambda row: math.nan)
    assert checks.check_validate(code, no_se, ref, w.SPOT)


@pytest.fixture(scope="module")
def mc_full_run():
    args = w.mc_full_setup()
    return w.mc_full_op(*args), w.mc_full_op(*args, chunk_size=5000), checks.mc_full_reference()


def test_mc_full_check_passes_on_program_output(mc_full_run):
    est, other, c0 = mc_full_run
    assert checks.check_mc_full(est, other, c0) == []


def test_mc_full_check_fails_on_perturbed_outputs(mc_full_run):
    est, other, c0 = mc_full_run
    nudged = dataclasses.replace(other, price=math.nextafter(other.price, math.inf))
    assert checks.check_mc_full(est, nudged, c0)
    no_se = dataclasses.replace(est, std_error=math.nan)
    assert checks.check_mc_full(no_se, dataclasses.replace(other, std_error=math.nan), c0)
    assert checks.check_mc_full(est, other, c0 * (1 + 2 * checks.MC_FULL_BAND))


def test_host_speed_scale_uses_the_samples_around_a_timing():
    from perfbench.hostspeed import KERNELS, SpeedLog

    log = SpeedLog("scalar")
    ref, window = KERNELS["scalar"].reference_ns, KERNELS["scalar"].window_ns
    log.at = [0, window // 2, 10 * window]
    log.ns = [ref, 3 * ref, 2 * ref]
    assert log.factor(window // 4) == pytest.approx(1 / 2)  # median of the first two
    assert log.factor(10 * window) == pytest.approx(1 / 2)
    assert log.factor(5 * window) == pytest.approx(1 / 3)  # no sample in the window: nearest
    assert log.factor(0, 10 * window) == pytest.approx(1 / 2)  # a long timing: all three
    assert log.overall() == pytest.approx(1 / 2)


def test_stream_scale_uses_the_whole_run():
    from perfbench.hostspeed import KERNELS, SpeedLog

    log = SpeedLog("stream")
    ref = KERNELS["stream"].reference_ns
    log.at = [0, 10**9, 10**12]
    log.ns = [ref, 3 * ref, 4 * ref]
    assert log.factor(0, 1) == log.overall() == pytest.approx(1 / 3)
