"""The benchmark's tracer patches functions of the package by name, so a
rename in `src/` would break `perfbench/run.py --trace 1` without failing any
test of the package itself. This checks every name it patches."""

import importlib.util
from pathlib import Path

from epwcalc import linalg

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
