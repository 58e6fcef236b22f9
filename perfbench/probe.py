"""Set-up probe: a fresh interpreter imports geoasian and makes one cold call.

Run by run.py as ``python3 perfbench/probe.py <checkout> <spec-json>``; prints
``{"setup_s": ..., "ok": ...}``. The clock starts before any import.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path[:0] = [root + "/src", root]
    import geoasian  # noqa: F401  (the import being timed)
    from perfbench import workloads as w

    name = spec["workload"]
    if name == "book":
        c = w.Contract(**spec["contract"])
        options, price = w.book_ops([c])
        ok = math.isfinite(price(options[0], c).price_hat)
    elif name == "calibrate":
        files = w.CalibrateFiles(*(spec[k] for k in ("quotes", "scatter", "smile")))
        ok = w.calibrate_op(files)[0] == 0
    elif name == "validate":
        ok = w.validate_op()[0] == 0
    else:
        ok = w.mc_full_op(*w.mc_full_setup()).std_error > 0.0
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "ok": bool(ok)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
