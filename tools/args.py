"""Print the package parameters that take a single value under the benchmark's workloads.

    python tools/args.py

One op of each gated workload of `BENCHMARK.json` runs at seed 7 under a
profile hook: battery (`run all --seed 7 --json`) and rational_qq, both as
`perfbench/workloads.py` builds them; that file is loaded read-only, with no
bytecode written. A third op, `run all --seed 0 --prime 17 --trials 1`
(`SMALL_RUN`), runs the battery at another configuration of the acceptance
set and another trial count, so that a parameter that carries the run's
seed, prime, field or trials, such as `rng.derive_rng seed` or
`fpkernel.fp_det p`, takes two values. Every call
of a function defined in `src/epwcalc` records the value of each of its
parameters, defaults included (not `self` or `cls`, not `*args` or
`**kwargs`, and a generator only when it starts). A parameter that took
exactly one value over all its calls is printed as

    module.qualname  parameter=value  calls=N

sorted by name: first the candidates, the parameters of functions called
more than once in some op, then, after a blank line and the header
`called once per op:`, those of functions called at most once in each op,
each check of a run among them: one call gives each parameter one value,
and the objects that two ops build apart are equal, if at all, only by
construction. Small immutables (None, bool, int, float, str, Fraction and
tuples of them) are shown by `repr`; anything else by its type, as
`<Matrix>`. A value equals the first one seen when it is that object or
`==` to it. A parameter listed here is one that no caller of this traffic
varies: a candidate for deletion, once every call site in `src/`, `tests/`,
`tools/` and `perfbench/` is checked to fix it as well.
"""

import contextlib
import importlib.util
import io
import sys
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epwcalc"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 7
# the third op's argv: the battery at another acceptance-set configuration
# and one trial
SMALL_RUN = ["run", "all", "--seed", "0", "--prime", "17", "--trials", "1"]
CO_GENERATOR = 0x20
COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def is_small(value):
    if value is None or isinstance(value, (bool, int, float, str, Fraction)):
        return True
    return isinstance(value, tuple) and len(value) <= 16 and all(map(is_small, value))


class Census:
    """Per package code object: its generator start offset and, per
    parameter, [name, first value, calls, varied]."""

    def __init__(self, package):
        self.package = str(package)
        self.codes = {}
        self.op = 0  # the op running, counted from 1

    def _params(self, code):
        if code.co_name in COMPREHENSIONS or not code.co_filename.startswith(self.package):
            return None
        n = code.co_argcount + code.co_kwonlyargcount
        names = list(code.co_varnames[:n])
        if names[:1] in (["self"], ["cls"]):
            names = names[1:]
        return {"start": None, "op": 0, "ops": 0, "params": [[name, None, 0, False] for name in names]}

    def hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        state = self.codes.get(code, False)
        if state is False:
            state = self.codes[code] = self._params(code)
        if not state:
            return
        if code.co_flags & CO_GENERATOR:
            if state["start"] is None:
                state["start"] = frame.f_lasti
            elif frame.f_lasti != state["start"]:
                return  # a resume starts at a later offset than the call
        if state["op"] != self.op:
            state["op"], state["ops"] = self.op, state["ops"] + 1
        local = frame.f_locals
        for entry in state["params"]:
            name, first, calls, varied = entry
            value = local[name]
            if not calls:
                entry[1] = value
            elif not varied and not (value is first or value == first):
                entry[1], entry[3] = None, True
            entry[2] = calls + 1

    def single_valued(self):
        """(module.qualname, parameter, shown value, calls, once per op) of
        every parameter that took one value, sorted."""
        out = []
        for code, state in self.codes.items():
            if not state:
                continue
            # co_qualname is new in Python 3.11
            qual = f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
            for name, value, calls, varied in state["params"]:
                if calls and not varied:
                    shown = repr(value) if is_small(value) else f"<{type(value).__name__}>"
                    out.append((qual, name, shown, calls, calls == state["ops"]))
        return sorted(out)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    workloads = load_workloads()
    from epwcalc import cli

    census = Census(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp:
        ops = []
        for name in ("battery", "rational_qq"):
            op = workloads.make(name, Path(tmp) / "report.json")
            ops.append(partial(op.run, op.prepare(SEED)))
        ops.append(partial(cli.main, SMALL_RUN))
        for census.op, run in enumerate(ops, 1):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(census.hook)
                try:
                    run()
                finally:
                    sys.setprofile(None)
    rows = census.single_valued()
    for qual, name, shown, calls, _ in [row for row in rows if not row[4]]:
        print(f"{qual}  {name}={shown}  calls={calls}")
    print("\ncalled once per op:")
    for qual, name, shown, calls, _ in [row for row in rows if row[4]]:
        print(f"{qual}  {name}={shown}  calls={calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
