"""epwcalc benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload battery|large_prime|rational_qq
                             [--seed N] [--seconds S] [--trace 0|1]

Imports epwcalc from `src/` of the checkout this file sits in and runs ops
one at a time in this process. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics from a traced
re-run of each op. See perfbench/README.md for the metric definitions.
The full result, with provenance and every sample, goes to perfbench/out/.
Exits 2 without a result when the checkout has no epwcalc sources.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7  # op 0 of battery is then the ROADMAP guard `run all --seed 7`


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="workload seed; 4242 is held out for confirming claims"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    package = ROOT / "src" / "epwcalc"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no epwcalc sources at {package}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import epwcalc

    if Path(epwcalc.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported epwcalc from {epwcalc.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
