"""The benchmark's tracer patches functions of the package by name, so a
rename in `src/` would break `perfbench/run.py --trace 1` without failing any
test of the package itself. This checks every name it patches, pins the
output of one `rational_qq` op, so that the QQ layer's results stay
byte-identical, and runs the benchmark's own F_p kernel self-check."""

import importlib.util
import random
import sys
from pathlib import Path

from epwcalc import linalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the rational_qq op at seed 7: its fibers, pairing determinants
# and kernel dimension, serialised by the workload
RATIONAL_QQ_SEED7_SHA256 = "3ec3c92165fae56a109004885bea4581fd7e412cf1eb7d9bde5b626ca951744a"


def _load(name):
    """perfbench/<name>.py as a module, read only: no bytecode is written
    next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _load_spans():
    return _load("spans")


def test_every_patched_name_is_owned_by_its_owner():
    spans = _load_spans()
    hooks = [(owner, attr) for _, owner, attr, _, _ in spans._SPANS]
    hooks += [(owner, attr) for _, owner, attr in spans._COUNTED]
    hooks += [(linalg.Matrix, attr) for attr in spans._ELIM_METHODS]
    missing = [
        f"{getattr(o, '__name__', o)}.{attr}"
        for owner, attr in hooks
        for o in spans._owners(owner)
        if attr not in o.__dict__
    ]
    assert not missing, f"perfbench/spans.py patches names that no longer exist: {missing}"
    assert spans._SPANS and spans._COUNTED


def test_rational_qq_op_is_verified_and_byte_identical():
    workloads = _load("workloads")
    op = workloads.make("rational_qq", None)
    inputs = op.prepare(7)
    out = op.run(inputs)
    assert op.verify(inputs, out) == []
    assert out["sha256"] == RATIONAL_QQ_SEED7_SHA256


def test_rational_qq_ops_pass_their_own_verification():
    """The benchmark's `verify` finds no problem in any rational_qq op of the
    default seed 7 or the held-out seed 4242, ten ops each, as the benchmark
    itself derives their seeds."""
    workloads = _load("workloads")
    op = workloads.make("rational_qq", None)
    problems = {}
    for seed in (7, 4242):
        for k in range(10):
            inputs = op.prepare(workloads.op_seed(seed, k))
            found = op.verify(inputs, op.run(inputs))
            if found:
                problems[workloads.op_seed(seed, k)] = found
    assert not problems, problems


def test_kernel_self_check_finds_no_problem():
    """The F_p kernel self-check that `perfbench/run.py` runs only under
    `--trace 1`, on the inputs it draws at the default seed 7: at each shape,
    det != 0 exactly at full rank, rref has as many pivots as the rank, and
    rref is idempotent. The timing loop is not run."""
    kernels = _load("kernels")
    rng = random.Random(7)
    problems = [
        f"{name}: {problem}"
        for name, kind, rows, cols, _ in kernels.SHAPES
        for a in kernels._inputs(rng, rows, cols)
        for problem in kernels._problems(kind, a, rows, cols)
    ]
    assert not problems, problems
