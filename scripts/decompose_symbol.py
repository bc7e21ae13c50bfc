#!/usr/bin/env python3
"""Low-rank angular separable expansion of a multiplier symbol.

Thin wrapper around ``mlab decompose-symbol``: samples the symbol on unit
directions, expands its angular Fourier coefficients, and prints the
expansion's rank (its numerical rank, derived from the spectrum), node
count (derived from the interpolation error), residual, coefficient moduli
and spectrum (the singular values of the angular coefficient tensor) as
JSON.

Usage:
  python3 scripts/decompose_symbol.py --symbol det_norm:1 --d 2
"""

import sys

from mlab.cli import run_cli


def main() -> int:
    argv = sys.argv[1:]
    if not any(a.startswith("--symbol") for a in argv):
        argv = ["--symbol", "det_norm:1", *argv]
    return run_cli(["decompose-symbol", *argv])


if __name__ == "__main__":
    sys.exit(main())
