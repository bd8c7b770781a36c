"""Run one workload of the repository's benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` wraps the public callables of each layer (see ``spans.py``)
and prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, Result, load_config  # noqa: E402

WORKLOADS = ("train", "predict_batch", "serve_forest")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = load_config()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in config[section]}

    workload = importlib.import_module(args.workload)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} params {json.dumps(workload.PARAMS)}", flush=True)
    result = Result()
    absent = workload.run(args, result)
    return result.emit(wanted, absent)


if __name__ == "__main__":
    sys.exit(main())
