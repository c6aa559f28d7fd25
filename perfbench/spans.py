"""Span tracer that wraps epwcalc's public functions from outside the package.

A `Tracer` patches the functions listed in `_SPANS` (and the re-bound names
other modules look them up through) for the length of one benchmark op, then
restores them. Each wrapped call records a span: name, start, end, parent
span and op id. Span times are per-thread CPU seconds (`time.thread_time`),
because the battery runs its suites in a thread pool where wall intervals
overlap under the interpreter lock. Spans live in per-thread columnar arrays
so a battery op (about 550k spans) takes about 13 MB.

The hottest leaves, `PrimeField.of`, `RationalField.of` and `poly_eval`
(millions of calls per op), are counted but get no span; their time stays
in the enclosing span's self time.
"""

import contextlib
import inspect
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

from epwcalc import cli, epw, exterior, fpkernel, incidence, linalg, quadrics, scalars, suites


def _find_point_done(counts, args, result):
    counts["epw.find_point_found"] += 1
    counts["epw.find_point_lines"] += result[1]


def _find_point_miss(counts, args, exc):
    if isinstance(exc, epw.RetryBudgetExhausted):
        budget = args[2] if len(args) > 2 else _FIND_POINT_BUDGET
        counts["epw.find_point_budget_miss"] += 1
        counts["epw.find_point_lines"] += budget


def _scenario_miss(counts, args, exc):
    if isinstance(exc, incidence.PreconditionError):
        counts["incidence.scenario_miss"] += 1


def _bitangent_done(counts, args, result):
    counts["quadrics.bitangent_found"] += 1


def _scan_done(counts, args, result):
    p = result.prime
    counts["quadrics.field_scan_points"] += p**3 + p**2 + p + 1


def _fp_done(counts, args, result):
    """Computed elimination work: rows * cols * rank (det counted at rank n)."""
    if len(args) == 3:  # det(a, n, p)
        counts["fpkernel.cells"] += args[1] ** 3
    else:
        rank = result[0] if isinstance(result, tuple) else result
        counts["fpkernel.cells"] += args[1] * args[2] * rank


_FIND_POINT_BUDGET = inspect.signature(epw.find_point_stats).parameters["budget"].default

# (span name, owner, attribute, on_result, on_error); an attribute patched on
# several owners (re-bound imports) shares one span name.
_SPANS = [
    ("cli.main", cli, "main", None, None),
    ("fpkernel.rank", (fpkernel, linalg), "fp_rank", _fp_done, None),
    ("fpkernel.rref", (fpkernel, linalg), "fp_rref", _fp_done, None),
    ("fpkernel.det", (fpkernel, linalg, epw), "fp_det", _fp_done, None),
    ("linalg.matrix_init", linalg.Matrix, "__init__", None, None),
    ("linalg.zassenhaus", linalg.Subspace, "_zassenhaus", None, None),
    ("linalg.interpolate", (linalg, epw), "interpolate_univariate", None, None),
    ("exterior.fiber", exterior.SymplecticSpace, "fiber", None, None),
    ("exterior.isotropy", exterior.SymplecticSpace, "is_isotropic", None, None),
    ("exterior.perp", exterior.SymplecticSpace, "perp", None, None),
    ("exterior.completion", exterior.SymplecticSpace, "lagrangian_completion", None, None),
    ("epw.datum", epw.EpwLagrangian, "__init__", None, None),
    ("epw.pairing_det", epw, "pairing_det", None, None),
    ("epw.sextic_on_line", epw, "sextic_on_line", None, None),
    ("epw.gradient_det", epw, "gradient_det", None, None),
    ("epw.fiber_dim", epw, "fiber_intersection_dim", None, None),
    ("epw.find_point", epw, "find_point_stats", _find_point_done, _find_point_miss),
    ("incidence.scenario", incidence, "tangency_scenario", None, _scenario_miss),
    ("incidence.kernel_system", incidence, "injective_differential_kernel", None, None),
    ("incidence.kernel_system", incidence, "omega_tangent_dim", None, None),
    ("incidence.kernel_system", incidence, "sigma_tangent_space", None, None),
    ("incidence.pencil", incidence, "pencil_through", None, None),
    ("quadrics.field_scan", quadrics, "field_scan", _scan_done, None),
    ("quadrics.quartic", quadrics, "quartic_surface", None, None),
    ("quadrics.bitangent", quadrics, "bitangent_pair", _bitangent_done, None),
]

# Matrix.rank/det/rref get their span name from the matrix's field.
_ELIM_METHODS = ("rank", "det", "rref")

# counted leaves: (counter name, owner, attribute)
_COUNTED = [
    ("scalars.coerce_calls", scalars.PrimeField, "of"),
    ("scalars.coerce_calls", scalars.RationalField, "of"),
    ("linalg.poly_eval_calls", (linalg, epw), "poly_eval"),
]


class _Buffer:
    """Spans of one thread, stored column-wise."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.name = array("H")
        self.parent = array("i")
        self.op = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = defaultdict(int)


def _owners(owner):
    return owner if isinstance(owner, tuple) else (owner,)


class Tracer:
    """Records spans for each op run between `install(op_id)` and `uninstall()`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self.op_id = 0
        self._marks = []
        self._saved = []
        self._counters = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _new_buffer(self):
        buf = _Buffer(threading.current_thread().name)
        self._local.buf = buf
        with self._lock:
            self.buffers.append(buf)
        return buf

    def _wrap(self, name_of, fn, on_result=None, on_error=None):
        clock = time.thread_time
        local = self._local
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._new_buffer()
            idx = len(buf.start)
            stack = buf.stack
            buf.name.append(name_of(args))
            buf.parent.append(stack[-1] if stack else -1)
            buf.op.append(tracer.op_id)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(buf.counts, args, exc)
                raise
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(buf.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, op_id):
        """Patch every traced name for one op; pair with uninstall()."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op_id = op_id
        self._marks = [len(b.start) for b in self.buffers]
        for buf in self.buffers:
            buf.counts.clear()
        for name, owner, attr, on_result, on_error in _SPANS:
            owners = _owners(owner)
            nid = self._name_id(name)
            wrapped = self._wrap(lambda a, nid=nid: nid, owners[0].__dict__[attr], on_result, on_error)
            for o in owners:
                self._patch(o, attr, wrapped)
        fp_id, qq_id = self._name_id("linalg.fp_elim"), self._name_id("linalg.qq_elim")

        def elim_name(args):
            return fp_id if isinstance(args[0].field, scalars.PrimeField) else qq_id

        for attr in _ELIM_METHODS:
            self._patch(linalg.Matrix, attr, self._wrap(elim_name, linalg.Matrix.__dict__[attr]))
        for suite in list(suites.SUITES):
            nid = self._name_id(f"suites.{suite}")
            self._patch(suites.SUITES, suite, self._wrap(lambda a, nid=nid: nid, suites.SUITES[suite]))
        self._counters = {}
        for counter, owner, attr in _COUNTED:
            owners = _owners(owner)
            count = itertools.count()
            self._counters.setdefault(counter, []).append(count)
            wrapped = _counting(owners[0].__dict__[attr], count.__next__)
            for o in owners:
                self._patch(o, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved = []

    # -- reading -------------------------------------------------------------

    def op_profile(self):
        """Calls, self seconds and counters of the last op, after uninstall().

        Returns (calls by span name, self seconds by span name, seconds
        covered by thread-root spans, counters). Self time is a span's
        duration minus the duration of its child spans; a thread root is a
        span with no parent in its own thread.
        """
        calls = defaultdict(int)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        root_s = 0.0
        for k, buf in enumerate(self.buffers):
            lo = self._marks[k] if k < len(self._marks) else 0
            hi = len(buf.start)
            dur = [buf.end[i] - buf.start[i] for i in range(lo, hi)]
            child = [0.0] * (hi - lo)
            for i in range(lo, hi):
                par = buf.parent[i]
                if par >= 0:
                    child[par - lo] += dur[i - lo]
            for i in range(lo, hi):
                name = self.names[buf.name[i]]
                calls[name] += 1
                self_s[name] += dur[i - lo] - child[i - lo]
                if buf.parent[i] < 0:
                    root_s += dur[i - lo]
            for key, v in buf.counts.items():
                counts[key] += v
        for name, cs in self._counters.items():
            counts[name] += sum(next(c) for c in cs)
        return dict(calls), dict(self_s), root_s, dict(counts)

    def write(self, path):
        """Write all spans: a JSON header line, then the raw columns."""
        header = {
            "clock": "thread_time",
            "names": self.names,
            "columns": [["name", "H"], ["parent", "i"], ["op", "H"], ["start", "d"], ["end", "d"]],
            "threads": [{"thread": b.thread_name, "spans": len(b.start)} for b in self.buffers],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self.buffers:
                for col in (buf.name, buf.parent, buf.op, buf.start, buf.end):
                    col.tofile(fh)


def _counting(fn, tick):
    def counted(*args):
        tick()
        return fn(*args)

    counted.__wrapped__ = fn
    return counted


def read_spans(path):
    """Inverse of Tracer.write: (header, list of per-thread column dicts)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for t in header["threads"]:
            cols = {}
            for col, code in header["columns"]:
                a = array(code)
                a.fromfile(fh, t["spans"])
                cols[col] = a
            threads.append(cols)
    return header, threads


@contextlib.contextmanager
def suite_clock(sink):
    """Add each SUITES[name] call's thread CPU seconds to sink[name].

    The clock runs in the suite's own worker thread, around the call that
    cli.run_suites submits to its pool.
    """
    saved = dict(suites.SUITES)

    def timed(name, fn):
        def call(cfg):
            start = time.thread_time()
            try:
                return fn(cfg)
            finally:
                sink[name] = sink.get(name, 0.0) + time.thread_time() - start

        return call

    for name, fn in saved.items():
        suites.SUITES[name] = timed(name, fn)
    try:
        yield sink
    finally:
        suites.SUITES.update(saved)
