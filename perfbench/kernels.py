"""F_p kernel microbench at the shapes of benchmarks/bench_kernels.py.

Times the active backend through `epwcalc.fpkernel` and checks the outputs:
det != 0 exactly when the rank is n, and rref is idempotent with as many
pivots as the rank.
"""

import random
import statistics
import time

from epwcalc import fpkernel

PRIME = 10007
BATCH = 200
# metric name, kernel, rows, cols, repetitions of the batch
SHAPES = [
    ("fpkernel.det10_us", "det", 10, 10, 10),
    ("fpkernel.rank25x20_us", "rank", 25, 20, 4),
    ("fpkernel.rank4x4_us", "rank", 4, 4, 100),
    ("fpkernel.rref12x20_us", "rref", 12, 20, 5),
]


def _inputs(rng, rows, cols):
    batch = [[rng.randrange(PRIME) for _ in range(rows * cols)] for _ in range(BATCH)]
    for a in batch[::10]:  # every tenth input is singular: row 1 repeats row 0
        a[cols : 2 * cols] = a[:cols]
    return batch


def _call(kind, a, rows, cols):
    if kind == "det":
        return fpkernel.fp_det(a, rows, PRIME)
    if kind == "rank":
        return fpkernel.fp_rank(a, rows, cols, PRIME)
    return fpkernel.fp_rref(a, rows, cols, PRIME)


def _problems(kind, a, rows, cols):
    rank = fpkernel.fp_rank(a, rows, cols, PRIME)
    r, pivots, red = fpkernel.fp_rref(a, rows, cols, PRIME)
    out = []
    if kind == "det" and (fpkernel.fp_det(a, rows, PRIME) != 0) != (rank == rows):
        out.append(f"det/rank disagree at rank {rank}")
    if not (r == rank == len(pivots)):
        out.append(f"rref rank {r} with {len(pivots)} pivots, rank {rank}")
    if fpkernel.fp_rref(red, rows, cols, PRIME) != (r, pivots, red):
        out.append("rref is not idempotent")
    return out


def run(seed):
    """Return ({metric: microseconds per call}, problems)."""
    rng = random.Random(seed)
    metrics, problems = {}, []
    for name, kind, rows, cols, reps in SHAPES:
        batch = _inputs(rng, rows, cols)
        per_call = []
        for _ in range(reps):
            start = time.perf_counter()
            for a in batch:
                _call(kind, a, rows, cols)
            per_call.append((time.perf_counter() - start) / BATCH)
        metrics[name] = statistics.median(per_call) * 1e6
        problems += [f"{name}: {p}" for a in batch for p in _problems(kind, a, rows, cols)]
    return metrics, problems
