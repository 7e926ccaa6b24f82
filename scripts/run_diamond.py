#!/usr/bin/env python3
"""Diamond scheme comparison: NOW/MEAN/EXTREME(5,10,20) over 500 periods.

Writes one CSV per scheme plus summary.csv into results/diamond/ and
prints one summary line per scheme.  The regret column is measured
against the capped cost 325.636 of the diamond's reference point, its
system optimum (the split minimizing its uncapped social cost; see
``intervalsig system-optimum``).

Pass CLI arguments to override the defaults entirely, e.g.

    python3 scripts/run_diamond.py sweep --instance diamond \
        --horizon 1000 --seed 7 --out-dir /tmp/diamond
"""

import sys

from intervalsig.cli import main

DEFAULT = [
    "sweep",
    "--instance", "diamond",
    "--horizon", "500",
    "--seed", "0",
    "--ref-capped", "325.636",
    "--out-dir", "results/diamond",
]

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or DEFAULT))
