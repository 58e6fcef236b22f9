"""Workload loops, set-up probes and metric assembly for run.py.

Every workload is a closed loop with one caller: an operation starts when the
previous one has returned. A run measures whole rounds of the same operations
until ``--seconds`` have passed, so every run attempts the same operations in
the same proportions. A round is made of blocks (one operation, or 512
contracts of the book); between blocks a host-speed kernel runs, and every
timing is scaled by the host's speed (see ``hostspeed.py``).
"""

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from geoasian.errors import PricingError

from . import checks, reference
from . import workloads as w
from .hostspeed import SpeedLog
from .tracing import Stats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("book", "calibrate", "validate", "mc_full")
SETUP_REPEATS = {"book": 5, "calibrate": 5, "validate": 3, "mc_full": 3}
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
TRACE_PHASE = 0.25  # share of --seconds for each of the untraced and traced phases


class Workload:
    """One workload: inputs made from the seed, whole rounds of one operation."""

    blocks_per_round = 1
    units_per_block: int  # throughput units (contracts, quotes, path-steps) of one block
    probe_spec: dict = {}
    speed_kernel = "scalar"  # the host-speed kernel that tracks this workload's kind of work

    def op(self) -> bool:
        """One operation; True when it failed."""
        raise NotImplementedError

    def block(self, index: int, times: list, tracer) -> int:
        """Run block `index` of a round, append each operation's ns to times, return failures."""
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter_ns()
        failed = self.op()
        times.append(time.perf_counter_ns() - t0)
        return int(failed)

    def check(self, seed: int) -> list[str]:
        raise NotImplementedError


class Book(Workload):
    units_per_block = 512

    def __init__(self, seed: int) -> None:
        self.contracts = w.make_book(seed)
        self.options, self.price = w.book_ops(self.contracts)
        self.prices = [math.nan] * len(self.contracts)
        self.blocks_per_round = len(self.contracts) // self.units_per_block
        self.probe_spec = {"contract": dataclasses.asdict(self.contracts[0])}

    def block(self, index, times, tracer):
        clock, price, prices = time.perf_counter_ns, self.price, self.prices
        failed = 0
        lo = index * self.units_per_block
        for i in range(lo, lo + self.units_per_block):
            option, c = self.options[i], self.contracts[i]
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                prices[i] = price(option, c).price_hat
            except (PricingError, ValueError):
                prices[i] = math.nan
                failed += 1
            times.append(clock() - t0)
        return failed

    def check(self, seed):
        sample = checks.book_sample(self.contracts, seed)
        return checks.check_all_finite("book", self.prices) + checks.check_book(
            [self.contracts[i] for i in sample], [self.prices[i] for i in sample]
        )


class Calibrate(Workload):
    def __init__(self, seed: int) -> None:
        self.rows = w.make_quotes(seed)
        self.files = w.CalibrateFiles(OUT / "quotes.csv", OUT / "scatter.csv", OUT / "smile.csv")
        w.write_quotes(self.files.quotes, self.rows)
        self.units_per_block = len(self.rows)
        self.probe_spec = {"quotes": str(self.files.quotes), "scatter": str(OUT / "probe_scatter.csv"),
                           "smile": str(OUT / "probe_smile.csv")}
        self.report = None

    def op(self):
        code, report = w.calibrate_op(self.files)
        self.report = report["outputs"] if code == 0 else None
        return code != 0

    def check(self, seed):
        if self.report is None:
            return ["calibrate: last operation failed"]
        problems = checks.check_slope(self.report["a_eps"], checks.read_scatter(self.files.scatter),
                                      len(self.rows))
        problems += checks.check_smile(checks.read_smile(self.files.smile),
                                       int(w.SMILE_GRID.split(":")[2]))
        return problems + self._round_trip(seed)

    def _round_trip(self, seed):
        """Noise-free quotes from the mpmath first-order smile in one cell, calibrated back."""
        t = w.CAL_TIMES[seed % len(w.CAL_TIMES)]
        T = w.CAL_MATURITIES[seed % len(w.CAL_MATURITIES)]
        rows = []
        for style, kind, strike in (("floating", "call", None), ("fixed", "put", w.SPOT)):
            for m in w.ROUND_TRIP_GRID:
                vol = float(reference.smile_vol(style, kind, t, T, w.SPOT, m * w.SPOT, strike,
                                                w.arc_sigma(t), w.K_SPEED, w.RATE, w.V_EPS))
                if vol > 0.0:  # a quote needs a positive vol; deep puts have none at first order
                    rows.append((t, T, w.SPOT, m * w.SPOT, strike or "", f"{style}_{kind}", vol))
        quotes = OUT / "roundtrip_quotes.csv"
        w.write_quotes(quotes, rows)
        code, out = w.run_cli(["calibrate", *w.MODEL_FLAGS, "--quotes", str(quotes), "--json"])
        if code != 0:
            return [f"calibrate: round-trip calibrate exited {code}"]
        cells = json.loads(out)["outputs"]["v_eps_by_cell"]
        if len(cells) != 1:
            return [f"calibrate: round trip gave {len(cells)} cells, want 1"]
        return checks.check_round_trip(cells[0]["v_eps"], w.V_EPS)


class Validate(Workload):
    speed_kernel = "stream"

    def __init__(self, seed: int) -> None:
        self.units_per_block = w.VALIDATE_PATHS * w.VALIDATE_STEPS
        self.code, self.report = None, None

    def op(self):
        self.code, self.report = w.validate_op()
        return self.code != 0

    def check(self, seed):
        if self.report is None:
            return checks.check_validate(self.code, None, {}, w.SPOT)
        inputs = self.report["inputs"]
        ref = checks.validate_reference(inputs["spot"], inputs["sigma"], inputs["T"], inputs["r"])
        return checks.check_validate(self.code, self.report, ref, inputs["spot"])


class McFull(Workload):
    speed_kernel = "stream"

    def __init__(self, seed: int) -> None:
        self.args = w.mc_full_setup()
        self.units_per_block = w.MC_PATHS * w.MC_STEPS
        self.estimate = None

    def op(self):
        self.estimate = w.mc_full_op(*self.args)
        return False

    def check(self, seed):
        # another chunk layout, chosen by the seed, must give the same bits
        other = w.mc_full_op(*self.args, chunk_size=4000 + seed % 2000)
        return checks.check_mc_full(self.estimate, other, checks.mc_full_reference())


KINDS = {"book": Book, "calibrate": Calibrate, "validate": Validate, "mc_full": McFull}


def measure(wl: Workload, seconds: float, speed: SpeedLog, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed; at least one round.

    Returns each operation's ns, each block as (start ns, first op, end op,
    ns), and the failure count. The host-speed kernel runs between blocks.
    """
    times, blocks, failed = [], [], 0
    speed.sample()
    start = time.perf_counter_ns()
    index = 0
    while True:
        b0, first = time.perf_counter_ns(), len(times)
        failed += wl.block(index, times, tracer)
        b1 = time.perf_counter_ns()
        blocks.append((b0, first, len(times), b1 - b0))
        speed.maybe_sample()
        index = (index + 1) % wl.blocks_per_round
        if index == 0 and b1 - start >= seconds * 1e9:
            break
    speed.sample()
    return {"times": times, "blocks": blocks, "failed": failed}


def scaled(run: dict, speed: SpeedLog) -> tuple[list[float], list[float]]:
    """Operation and block times (ns) scaled by the host speed around each block."""
    ops, blocks = [], []
    for start, first, end, ns in run["blocks"]:
        f = speed.factor(start, start + ns)
        ops.extend(t * f for t in run["times"][first:end])
        blocks.append(ns * f)
    return ops, blocks


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    # PYTHONPATH is cleared so that the child finds the package only in this checkout
    return subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": ""},
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def _timed_children(argv: list[str], repeats: int, speed: SpeedLog) -> list[tuple]:
    """Run a child `repeats` times, one after another, with the kernel in between."""
    done = []
    speed.maybe_sample()
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        result = _run_child(argv)
        done.append((result, (t0, time.perf_counter_ns())))
        speed.maybe_sample()
    return done


def setup_times(name: str, spec: dict, speed: SpeedLog) -> list[tuple[float, tuple]]:
    """Fresh interpreters: import plus the first cold call, as (s, (start ns, end ns))."""
    argv = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(ROOT),
            json.dumps({"workload": name, **spec})]
    done = []
    for result, at in _timed_children(argv, SETUP_REPEATS[name], speed):
        probe = json.loads(result.stdout.splitlines()[-1])
        if not probe["ok"]:
            raise RuntimeError(f"set-up probe of {name} failed")
        done.append((probe["setup_s"], at))
    return done


def import_times(speed: SpeedLog) -> dict[str, float]:
    """Cumulative import times (ms) from `python -X importtime`, scaled, medians."""
    wanted = {"geoasian": [], "scipy.integrate": []}
    argv = [sys.executable, "-X", "importtime", "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import geoasian"]
    for result, at in _timed_children(argv, IMPORT_REPEATS, speed):
        for line in result.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in wanted:
                wanted[parts[2]].append(int(parts[1]) / 1e3 * speed.factor(*at))
    return {name: statistics.median(v) for name, v in wanted.items()}


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(wl: Workload, ops: list[float], blocks: list[float], setups: list[float],
               rss_mb: float) -> dict:
    latency_s = statistics.median(ops) / 1e9
    if isinstance(wl, McFull):
        time_to_se = latency_s * (wl.estimate.std_error / w.TARGET_SE_PRICE) ** 2
    else:
        # no standard error to reach: a deterministic answer takes one operation
        time_to_se = latency_s
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "throughput_per_s": (wl.units_per_block / (statistics.median(blocks) / 1e9), "1/s"),
        "latency_p50_ms": (latency_s * 1e3, "ms"),
        "time_to_se_s": (time_to_se, "s"),
    }


# per-layer metric: span, how it is read, scale to the unit, unit, and the
# workloads whose traced pass measures it (the traced workload first when it
# is one of them). "total" is the mean time per call, "self" the mean time per
# call minus the traced calls it contains, "per_work" the time per unit of work
# (rows, points, path-steps, elements), "count" the number of `span` calls
# per call of the parent span.
LAYER_METRICS = (
    ("model.market_state_us", "model.MarketState", "total", 1e3, "us", ("book",)),
    ("closedform.b0_us", "closedform.b0", "total", 1e3, "us", ("book", "calibrate")),
    ("closedform.theta_us", "closedform.b0_theta", "total", 1e3, "us", ("book", "calibrate")),
    ("closedform.greeks_us", "closedform.greeks", "self", 1e3, "us", ("book", "calibrate")),
    ("perturbation.i_integrals_us", "perturbation.i_integrals_closed", "total", 1e3, "us", ("book",)),
    ("perturbation.gamma_us", "perturbation.modification_factor", "total", 1e3, "us", ("book",)),
    ("perturbation.first_order_price_us", "perturbation.first_order_price", "total", 1e3, "us",
     ("book",)),
    ("perturbation.theta_calls_per_price", "closedform.b0_theta", "perturbation.first_order_price",
     1, "count", ("book",)),
    ("calibration.ingest_us_per_row", "calibration.ingest_quotes", "per_work", 1e3, "us",
     ("calibrate",)),
    ("calibration.regression_row_us", "calibration.regression_row", "total", 1e3, "us",
     ("calibrate",)),
    ("calibration.theta_calls_per_row", "closedform.b0_theta", "calibration.regression_row",
     1, "count", ("calibrate",)),
    ("calibration.ols_fit_ms", "calibration.ols_fit", "total", 1e6, "ms", ("calibrate",)),
    ("calibration.report_ms", "calibration.calibration_report", "self", 1e6, "ms", ("calibrate",)),
    ("calibration.smile_point_us", "calibration.smile_curve", "per_work", 1e3, "us", ("calibrate",)),
    ("mc.simulate_constant_ns_per_path_step", "mc.simulate_paths.constant", "per_work", 1, "ns",
     ("validate",)),
    ("mc.simulations_per_validate", "mc.simulate_paths.constant", "cli.main", 1, "count",
     ("validate",)),
    ("mc.simulate_full_ns_per_path_step", "mc.simulate_paths.full", "per_work", 1, "ns", ("mc_full",)),
    ("mc.f_full_ns_per_element", "mc.f_full", "per_work", 1, "ns", ("mc_full",)),
    ("mc.price_mc_overhead_ms", "mc.price_mc", "self", 1e6, "ms", ("mc_full", "validate")),
    ("cli.overhead_ms", "cli.main", "self", 1e6, "ms", ("calibrate", "validate")),
)


def per_layer(name: str, stats: dict, scales: dict, overhead: float, imports: dict,
              full_se: float) -> dict:
    """Per-layer metrics; span times of each pass are scaled by that pass's host speed."""
    m = {
        "import.geoasian_ms": (imports["geoasian"], "ms"),
        "import.scipy_integrate_ms": (imports["scipy.integrate"], "ms"),
    }
    for metric, span, how, scale, unit, homes in LAYER_METRICS:
        home = name if name in homes else homes[0]
        s = stats[home]
        if how == "total":
            value = s.mean_total(span) * scales[home]
        elif how == "self":
            value = s.mean_self(span) * scales[home]
        elif how == "per_work":
            value = s.total[span] / s.work[span] * scales[home]
        else:
            value = s.nested(span, how) / s.count[how]
        m[metric] = (value / scale, unit)
    m["mc.full_std_error"] = (full_se, "price")
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    return m


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="geoasian benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, args.seed
    wl = KINDS[name](seed)
    detail = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace}

    speed = SpeedLog(wl.speed_kernel)
    if not args.trace:
        probes = setup_times(name, wl.probe_spec, speed)
        runs = [measure(wl, 0.0, speed)]  # warm-up round
        # peak memory of the workload's own work; the timed loop's list of op
        # times grows with the op count and is left out
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs.append(measure(wl, args.seconds, speed))
        ops, blocks = scaled(runs[1], speed)
        raw_setups = [s for s, _ in probes]
        setups = [s * speed.factor(*at) for s, at in probes]  # scaled once every sample is in
        metrics = end_to_end(wl, ops, blocks, setups, rss_mb)
        detail.update(setup_s_raw=raw_setups, setup_s_scaled=setups, ops=len(ops),
                      blocks=len(blocks), latency_p50_ms_raw=statistics.median(runs[1]["times"]) / 1e6,
                      latency_p90_ms=percentile(ops, 0.90) / 1e6,
                      latency_p99_ms=percentile(ops, 0.99) / 1e6,
                      blocks_raw=[[b[0], b[2] - b[1], b[3]] for b in runs[1]["blocks"]])
    else:
        imports = import_times(speed)
        others = {n: KINDS[n](seed) for n in WORKLOADS if n != name}
        runs = [measure(wl, 0.0, speed), measure(wl, TRACE_PHASE * args.seconds, speed)]
        tracers, speeds = {name: Tracer()}, {name: SpeedLog(wl.speed_kernel)}
        with tracers[name].install():
            runs.append(measure(wl, TRACE_PHASE * args.seconds, speeds[name], tracers[name]))
        # one traced round of each other workload, for the layers this one never calls
        for other_name, other in others.items():
            tracers[other_name], speeds[other_name] = Tracer(), SpeedLog(other.speed_kernel)
            with tracers[other_name].install():
                runs.append(measure(other, 0.0, speeds[other_name], tracers[other_name]))
        untraced = statistics.median(scaled(runs[1], speed)[0])
        traced = statistics.median(scaled(runs[2], speeds[name])[0])
        mc_full = wl if name == "mc_full" else others["mc_full"]
        metrics = per_layer(
            name, {n: Stats(t.spans) for n, t in tracers.items()},
            {n: sp.overall() for n, sp in speeds.items()}, traced / untraced - 1.0, imports,
            mc_full.estimate.std_error,
        )
        tracers[name].write(OUT / f"trace-{name}.json", {"workload": name, "seed": seed})
        detail.update(spans=len(tracers[name].spans), ops_untraced=len(runs[1]["times"]),
                      ops_traced=len(runs[2]["times"]))
    detail.update(reference_kernel=[[at, ns] for at, ns in zip(speed.at, speed.ns)])

    problems = wl.check(seed)
    result = {
        "correct": not problems,
        "attempted": sum(len(r["times"]) for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(problems=problems, result=result)
    with open(OUT / f"result-{name}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for problem in problems:
        print(problem)
    print(json.dumps(result))
    return 0
