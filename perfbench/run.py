"""xhealsim benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 30 --trace 0

Replays seeded traces of the named workload through the library in
``src/``: a fixed number of traces, set by the workload and ``--seconds``,
that lasts about ``--seconds`` seconds on a 2-vCPU x86 VM.  The inputs,
and so the operation and failure counts, depend only on the seed and
``--seconds``.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced replay.  Comment lines start with ``#``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits with code 2, printing
no result, when the package sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "xhealsim" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC.name}/xhealsim",
              file=sys.stderr)
        return 2
    # Single-threaded BLAS keeps eigensolver timings independent of the
    # core count; it must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import xhealsim

    if not Path(xhealsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: xhealsim imported from {xhealsim.__file__}, not {SRC.name}/",
              file=sys.stderr)
        return 2
    import replay

    if args.workload not in replay.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(replay.WORKLOADS)}")
    result = replay.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
