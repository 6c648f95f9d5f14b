"""Set-up step of the benchmark, run in a fresh interpreter.

Imports blochquad from the checkout's src/ (what a user pays before the
first command), then generates one workload's inputs and writes its config
files and manifest:

    python3 perfbench/prepare.py --workload orbits --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import blochquad  # noqa: F401  (the import is part of the measured set-up)

    import workloads

    workloads.write(workloads.generate(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
