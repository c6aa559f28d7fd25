"""Batch verification front end.

`epwcalc run [suite]` executes a named battery (or all of them) and emits
one JSON report per run. Reports are deterministic functions of
(seed, prime, trials); wall time is printed on stderr, and it and the CPU
time of each suite and of each check are embedded in the JSON only under
--timing, keeping default reports byte-identical across reruns.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time

from .scalars import is_prime
from .suites import SUITES, RunConfig

SUITE_ORDER = list(SUITES)


def build_parser():
    parser = argparse.ArgumentParser(prog="epwcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("suite", nargs="?", default="all", choices=SUITE_ORDER + ["all"], metavar="SUITE")
    run.add_argument("--seed", type=int, default=None, help="default 0; EPW_SEED overrides the default only")
    run.add_argument("--prime", type=int, default=10007)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--json", dest="json_path", default=None, help="write the report here (default: stdout)")
    run.add_argument("--fail-fast", action="store_true")
    run.add_argument("--timing", action="store_true", help="embed measured wall time and per-suite and per-check CPU time (breaks byte-identity)")
    return parser


def run_suites(name, cfg: RunConfig, fail_fast=False, suite_cpu_ms=None):
    """The checks of one suite or of all; each suite's process CPU
    milliseconds go into the dict `suite_cpu_ms` when one is given."""
    names = SUITE_ORDER if name == "all" else [name]
    checks = []
    for n in names:
        start = time.process_time()
        suite_checks = SUITES[n](cfg)
        if suite_cpu_ms is not None:
            suite_cpu_ms[n] = int((time.process_time() - start) * 1000)
        for c in suite_checks:
            prefixed = c if name != "all" else dataclasses.replace(c, id=f"{n}.{c.id}")
            checks.append(prefixed)
            if fail_fast and prefixed.status == "fail":
                return checks
    return checks


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    suite = args.suite
    try:
        prime_ok = args.prime > 13 and is_prime(args.prime)
    except ValueError as exc:
        parser.error(f"--prime: {exc}")
    if not prime_ok:
        parser.error(f"--prime must be an odd prime > 13, got {args.prime}")
    if args.trials < 1:
        parser.error("--trials must be positive")
    seed = args.seed
    if seed is None:
        env = os.environ.get("EPW_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            parser.error(f"EPW_SEED must be an integer, got {env!r}")
    cfg = RunConfig(seed=seed, prime=args.prime, trials=args.trials)
    # opened before any suite runs, so a path that cannot be written is a usage
    # error; opened to append and truncated only once the report is ready, so a
    # run that raises leaves an earlier report at that path as it was
    out = contextlib.nullcontext(sys.stdout)
    if args.json_path:
        try:
            out = open(args.json_path, "a", encoding="utf-8")
        except OSError as exc:
            parser.error(f"--json: cannot write {args.json_path}: {exc.strerror}")

    with out as fh:
        suite_cpu_ms = {}
        start = time.monotonic()
        checks = run_suites(suite, cfg, fail_fast=args.fail_fast, suite_cpu_ms=suite_cpu_ms)
        elapsed_ms = int((time.monotonic() - start) * 1000)

        report = {
            "suite": suite,
            "seed": seed,
            "prime": args.prime,
            "checks": [c.json_obj() for c in checks],
            "ms": elapsed_ms if args.timing else 0,
        }
        if args.timing:
            report["suite_cpu_ms"] = suite_cpu_ms
            report["check_cpu_ms"] = {c.id: c.cpu_ms for c in checks}
        text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        if args.json_path:
            fh.truncate(0)
        fh.write(text)

    failed = [c for c in checks if c.status == "fail"]
    for c in checks:
        mark = {"pass": "ok", "fail": "FAIL", "skip": "skip"}[c.status]
        print(f"[{mark:4}] {c.id}: {c.anchor}", file=sys.stderr)
    print(
        f"{len(checks)} checks, {len(failed)} failed, {elapsed_ms} ms",
        file=sys.stderr,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
