"""One fresh-interpreter set-up, timed from outside by ``run.py``:
import the program, build the workload's objects, make one warm-up
call.  Expects ``PYTHONPATH`` to name ``src`` and the repository root
(``run.py`` sets it)."""

from __future__ import annotations

import argparse
from pathlib import Path

from perfbench import workloads

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workloads.build(
        args.workload, args.seed, tiny=args.tiny, scratch=OUT / "tmp"
    ).warm_up()


if __name__ == "__main__":
    main()
