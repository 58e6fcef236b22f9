"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
timing wrapper in every package module that holds it (``from .x import f``
copies the binding, so each copy is replaced), and puts the originals back on
exit. Spans stay in memory as ``[name, start_ns, end_ns, parent, child_ns,
work, op]`` and are written out once the run ends. A span's self time is its
duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import geoasian
from geoasian import calibration, cli, closedform, mc, model, perturbation

MODULES = (geoasian, model, closedform, perturbation, calibration, mc, cli)


def _mc_work(args, result):
    vol, cfg = args[1], args[6]
    kind = "mc.simulate_paths.full" if isinstance(vol, mc.FullModel) else "mc.simulate_paths.constant"
    return kind, cfg.n_paths * cfg.n_steps


# span name, module that defines the function, function names, and a work
# counter called with (args, result) that may also rename the span
LAYERS = (
    ("model.MarketState", model, ("MarketState",), None),
    ("closedform.b0", closedform, ("bs_floating_call", "bs_fixed_call", "bs_fixed_put"), None),
    ("closedform.b0_theta", closedform, ("b0_theta",), None),
    ("closedform.greeks", closedform, ("greeks_floating_call", "greeks_fixed_call", "greeks_fixed_put"), None),
    ("perturbation.i_integrals_closed", perturbation, ("i_integrals_closed",), None),
    ("perturbation.modification_factor", perturbation, ("modification_factor",), None),
    ("perturbation.first_order_price", perturbation, ("first_order_price",), None),
    ("calibration.ingest_quotes", calibration, ("ingest_quotes",), lambda a, r: (None, len(r.rows))),
    ("calibration.regression_pairs", calibration, ("regression_pairs",), None),
    ("calibration.regression_row", calibration, ("regression_row",), None),
    ("calibration.ols_fit", calibration, ("ols_fit",), None),
    ("calibration.calibration_report", calibration, ("calibration_report",), None),
    ("calibration.smile_curve", calibration, ("smile_curve",), lambda a, r: (None, len(r))),
    ("mc.simulate_paths", mc, ("simulate_paths",), _mc_work),
    ("mc.price_mc", mc, ("price_mc",), None),
    ("mc.f_full", mc, ("f_full",), lambda a, r: (None, r.size)),
    ("cli.main", cli, ("main",), None),
)

NAME, START, END, PARENT, CHILD, WORK, OP = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                # a call into itself (ingest_quotes opens a path, then reads the
                # stream) belongs to the outer span
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, 0, 0, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[END] = end
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += end - span[START]
            if work is not None:
                renamed, span[WORK] = work(args, result)
                span[NAME] = renamed or name
            return result

        return traced

    @contextmanager
    def install(self):
        replaced = []
        for name, home, attrs, work in LAYERS:
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, work)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def write(self, path, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        rows = [[index[s[NAME]], s[START] - t0, s[END] - t0, s[PARENT], s[OP]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))


class Stats:
    """Per-name totals over a span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.count: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.work: dict[str, int] = {}
        for s in spans:
            n, dur = s[NAME], s[END] - s[START]
            self.count[n] = self.count.get(n, 0) + 1
            self.total[n] = self.total.get(n, 0) + dur
            self.self_ns[n] = self.self_ns.get(n, 0) + dur - s[CHILD]
            self.work[n] = self.work.get(n, 0) + s[WORK]

    def mean_total(self, name: str) -> float:
        return self.total[name] / self.count[name]

    def mean_self(self, name: str) -> float:
        return self.self_ns[name] / self.count[name]

    def nested(self, name: str, ancestor: str) -> int:
        """How many `name` spans run inside an `ancestor` span."""
        found = 0
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            found += p >= 0
        return found
