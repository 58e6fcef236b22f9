#!/usr/bin/env python3
"""Benchmark of the geoasian pricer, end to end and layer by layer.

    python3 perfbench/run.py --workload {book,calibrate,validate,mc_full}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``, and the run stops with exit code 2 when that source is missing.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; details of the
run go to ``perfbench/out/``.
"""

import os

# one caller, one thread: numpy's BLAS pools read these at import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "geoasian" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'geoasian'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import geoasian

    if Path(geoasian.__file__).resolve().parent != (SRC / "geoasian").resolve():
        print(f"perfbench: geoasian imported from {geoasian.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
