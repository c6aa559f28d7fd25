"""Print the heap peak of one call of each named epwcalc suite, in KiB.

    python tools/heap.py [SUITE ...] [--seed N] [--prime P] [--trials T]

SUITE names a suite of `epwcalc.suites.SUITES` (default: all of them, in
report order); --seed, --prime and --trials are the CLI's and default to
its values. Each suite is called once at --trials 2 as a warm-up, so that
imports and caches are in place, and then once at the given options under
`tracemalloc`. The peak is the most memory that call held at once above
what was allocated when it started. A full collection first empties
CPython's free lists, so a suite's peak does not depend on what ran before
it; what the call frees onto a free list (up to 2000 tuples of each length
up to 20) stays counted, as it stays in the process. `src/` of this
checkout comes first on the import path.

The benchmark's end-to-end `peak_rss_mb` is one number for a whole process;
this shows which suite a change of memory comes from. It is slow:
`tracemalloc` makes the epw suite about 20 times slower.
"""

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from epwcalc.suites import SUITES, RunConfig  # noqa: E402


def heap_peak(run, cfg):
    """The tracemalloc peak of one call `run(cfg)`, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("suites", nargs="*", metavar="SUITE", help=f"any of {', '.join(SUITES)} (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prime", type=int, default=10007)
    parser.add_argument("--trials", type=int, default=100)
    args = parser.parse_args(argv)
    args.suites = args.suites or list(SUITES)
    for name in set(args.suites) - set(SUITES):
        parser.error(f"unknown suite {name!r}")
    cfg = RunConfig(seed=args.seed, prime=args.prime, trials=args.trials)
    width = max(map(len, args.suites))
    for name in args.suites:
        SUITES[name](RunConfig(seed=args.seed, prime=args.prime, trials=2))
        print(f"{name:<{width}}  {heap_peak(SUITES[name], cfg) / 1024:>8.0f} KiB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
