"""Benchmark of regmarket's three market mechanisms, end to end and by layer.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload online-quantile --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout; the
run exits with status 2, printing no result, when it is not there.
See ``benchmarks/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One client thread, and BLAS kept to one thread as well: the matrices are
# small (Gram systems of at most 11 x 11), and a run on one core does not
# time whatever else the other cores are running.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("online-quantile", "multi-site", "oos-online-arx")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (and at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only build the workload and exit (times set-up)")
    return parser.parse_args(argv)


def use_checkout_package() -> bool:
    """Pin BLAS threads, then import regmarket from this checkout's ``src/``.

    Returns False, after saying why, when the package is not there.
    """
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    if not (SRC / "regmarket" / "__init__.py").is_file():
        print(f"error: no regmarket package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import regmarket

    if Path(regmarket.__file__).resolve().parent != SRC / "regmarket":
        print(f"error: imported regmarket from {regmarket.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_package():
        return 2
    import harness
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT, Path(__file__).resolve())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
