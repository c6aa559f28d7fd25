"""Run the acceptance set of `epwcalc run all` and compare it with an earlier run.

The set is seeds 0-4, 7 and 4242 at p = 10007, and seed 0 at the 16 primes
17..211: 23 configurations. Each report is the CLI's stdout; the script
writes {config: {"sha256": ..., "statuses": {check id: status}}} to OUT and
prints one line per configuration. With `--against OLD` (a file written by
this script) it also prints each configuration whose bytes differ and each
check whose status changed, and exits 1 if anything differs.

    python tools/acceptance.py OUT.json [--against OLD.json] [--trials N]
                               [--only CONFIG ...]

A configuration is named `seed<S>@<P>`, for example `seed0@17`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# (seed, prime) pairs of the acceptance set, in run order
CONFIGURATIONS = [(seed, 10007) for seed in (0, 1, 2, 3, 4, 7, 4242)] + [
    (0, p) for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 101, 211)
]


def run_config(seed, prime, trials=None):
    """The sha256 of one `run all` report, as the CLI prints it, and the
    status of each of its checks."""
    args = ["run", "all", "--seed", str(seed), "--prime", str(prime)]
    if trials is not None:
        args += ["--trials", str(trials)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("EPW_SEED", None)
    out = subprocess.run([sys.executable, "-m", "epwcalc", *args], capture_output=True, env=env).stdout
    # a run that raises prints no report: it reads as no checks at all
    statuses = {c["id"]: c["status"] for c in json.loads(out)["checks"]} if out else {}
    return {"sha256": hashlib.sha256(out).hexdigest(), "statuses": statuses}


def differences(old, new):
    """Lines naming each configuration of `new` whose bytes differ from
    `old`, or that `old` lacks, and each check whose status changed."""
    lines = []
    for config, b in new.items():
        a = old.get(config)
        if a is None:
            lines.append(f"{config}: not in the old table")
            continue
        if a["sha256"] != b["sha256"]:
            lines.append(f"{config}: bytes differ ({a['sha256'][:8]} -> {b['sha256'][:8]})")
        for cid in sorted(a["statuses"].keys() | b["statuses"].keys()):
            before, after = a["statuses"].get(cid, "-"), b["statuses"].get(cid, "-")
            if before != after:
                lines.append(f"{config} {cid}: {before} -> {after}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("out", help="write the table of shas and statuses here")
    parser.add_argument("--against", help="a table written by an earlier run to compare with")
    parser.add_argument("--trials", type=int, help="passed on to the CLI (default: the CLI's)")
    parser.add_argument("--only", nargs="+", metavar="CONFIG", help="run only these configurations")
    args = parser.parse_args(argv)
    configs = {f"seed{s}@{p}": (s, p) for s, p in CONFIGURATIONS}
    unknown = set(args.only or ()) - set(configs)
    if unknown:
        parser.error(f"unknown configuration: {', '.join(sorted(unknown))}")
    table = {}
    for name, (seed, prime) in configs.items():
        if args.only and name not in args.only:
            continue
        table[name] = run_config(seed, prime, args.trials)
        tally = Counter(table[name]["statuses"].values())
        counts = " ".join(f"{tally[s]} {s}" for s in ("pass", "fail", "skip"))
        print(f"{name:14} {table[name]['sha256'][:8]}  {counts}", flush=True)
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    if not args.against:
        return 0
    old = json.loads(Path(args.against).read_text(encoding="utf-8"))
    diff = differences(old, table)
    print("\n".join(diff) if diff else f"all {len(table)} configurations byte-identical to {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
