#!/usr/bin/env python3
"""Sioux Falls scheme comparison: NOW/MEAN/EXTREME(5,10,20), 300 periods.

Writes one CSV per scheme plus summary.csv into results/sioux-falls/.
The regret column is measured against 3,560,514.823, the social cost at
the instance's capped user equilibrium (the capped model is the one
simulated, and a4's cost reference); that equilibrium's total excess,
340,977.562, is reported as a margin on each summary line.  Both come
from scripts/sioux_falls_reference.py.  The whole sweep takes about
2 s on a 2-CPU x86-64 machine (76 links, 528 OD pairs, five risk types).

Pass CLI arguments to override the defaults entirely.
"""

import sys

from intervalsig.cli import main

DEFAULT = [
    "sweep",
    "--instance", "sioux-falls",
    "--horizon", "300",
    "--seed", "0",
    "--ref-capped", "3560514.823",
    "--ref-excess", "340977.562",
    "--out-dir", "results/sioux-falls",
]

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or DEFAULT))
