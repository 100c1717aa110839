"""Run one workload of the benchmark and print its result as JSON.

    python3 turbobench/run.py --workload gen --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout of the repository: the program is
imported from ``src/``.  The last line of standard output is the result
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
holds the run's conditions (machine-drift probe, CPU affinity, BLAS
threads, per-phase counts, checks and sample counts).  ``--trace 1``
reports the per-layer metrics and writes the spans of the first traced
pass under ``turbobench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import thread_time

WORKLOAD_NAMES = ("gen", "fleet_decode", "fleet_churn")
#: One BLAS thread: the kernels' matrices are small, a second thread
#: measured no faster on two cores, and it makes timings depend on
#: whatever else shares the machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {root} holds no src/repro; run it from a checkout", file=sys.stderr)
        return 2
    # Must be set before NumPy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(root)]
    # The clock of every duration the benchmark reports (measure.clock).
    start = thread_time()
    from turbobench import bench  # imports NumPy and the program

    import_span = (start, thread_time())
    result, conditions = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_span,
        out_dir=root / "turbobench" / "out",
    )
    print(json.dumps(conditions, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
