#!/usr/bin/env python3
"""Dilation-sweep boundedness scan for a multiplier symbol.

Runs the seeded-family ratio experiment ||T(f_1..f_m)||_r / prod ||f_j||_{p_j}
across a dyadic dilation sweep and writes the records under out/.

Usage:
  python3 scripts/run_boundedness.py --symbol det_norm:1 --grid 2x16
  python3 scripts/run_boundedness.py --symbol riesz_product:1,2 --seed 3
  python3 scripts/run_boundedness.py --config cfg.json

Arguments are those of `mlab boundedness-scan`, whose symbol defaults to
det_norm:1.

Produces:
  out/boundedness/records.jsonl  - one JSON record per run (append-only),
                                   each member's ratio at every sweep step
"""

import sys

from mlab.cli import run_cli


def main() -> int:
    return run_cli(["boundedness-scan", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
