"""Set-up probe: start, import the CLI, build first-use tables, say "ready".

Run as `python3 perfbench/probe.py <checkout root>`; run.py times it from
process start to the "ready" line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

from epwcalc import cli  # noqa: E402
from epwcalc.exterior import ExteriorVector, SymplecticSpace  # noqa: E402
from epwcalc.scalars import GF  # noqa: E402

cli.build_parser()
F = GF(10007)
SymplecticSpace(F).fiber(ExteriorVector(F, 1, [1, 2, 3, 4, 5, 6]))
sys.stdout.write("ready\n")
sys.stdout.flush()
