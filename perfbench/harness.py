"""Benchmark harness: runs a workload's ops, measures, verifies, reports.

Entered through run.py, which puts the checkout's `src/` on the import path
first. See perfbench/README.md for the workloads and metric definitions.
"""

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import epwcalc
from epwcalc.cli import SUITE_ORDER

import kernels
import workloads
from spans import Tracer, suite_clock
from workloads import op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7

# op_wall_s is measured and kept in the output record, but not reported as
# an end-to-end metric: steal time on the 2-core reference VM moved the
# battery's run-median wall time by an interquartile 0.21 of its median.
END_TO_END = {"setup_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics, each read from one traced op's profile
_CALLS = {
    "fpkernel.rank_calls": "fpkernel.rank",
    "fpkernel.rref_calls": "fpkernel.rref",
    "fpkernel.det_calls": "fpkernel.det",
    "linalg.matrix_new": "linalg.matrix_init",
    "linalg.zassenhaus_calls": "linalg.zassenhaus",
    "linalg.interpolate_calls": "linalg.interpolate",
    "exterior.fiber_calls": "exterior.fiber",
    "exterior.completion_calls": "exterior.completion",
    "epw.pairing_det_calls": "epw.pairing_det",
    "epw.sextic_on_line_calls": "epw.sextic_on_line",
    "epw.find_point_calls": "epw.find_point",
    "incidence.scenario_calls": "incidence.scenario",
    "quadrics.bitangent_calls": "quadrics.bitangent",
}
_SELF = {
    "linalg.matrix_init_s": ("linalg.matrix_init",),
    "linalg.fp_elim_s": ("linalg.fp_elim",),
    "linalg.qq_elim_s": ("linalg.qq_elim",),
    "linalg.zassenhaus_s": ("linalg.zassenhaus",),
    "linalg.interpolate_s": ("linalg.interpolate",),
    "fpkernel.self_s": ("fpkernel.rank", "fpkernel.rref", "fpkernel.det"),
    "exterior.fiber_s": ("exterior.fiber",),
    "exterior.isotropy_s": ("exterior.isotropy",),
    "exterior.perp_s": ("exterior.perp",),
    "exterior.completion_s": ("exterior.completion",),
    "epw.datum_s": ("epw.datum",),
    "epw.pairing_det_s": ("epw.pairing_det",),
    "epw.sextic_on_line_s": ("epw.sextic_on_line",),
    "epw.gradient_det_s": ("epw.gradient_det",),
    "epw.fiber_dim_s": ("epw.fiber_dim",),
    "epw.root_scan_s": ("epw.find_point",),
    "incidence.scenario_s": ("incidence.scenario",),
    "incidence.kernel_system_s": ("incidence.kernel_system",),
    "incidence.pencil_s": ("incidence.pencil",),
    "quadrics.field_scan_s": ("quadrics.field_scan",),
    "quadrics.quartic_s": ("quadrics.quartic",),
}
_COUNTS = (
    "scalars.coerce_calls",
    "fpkernel.cells",
    "linalg.poly_eval_calls",
    "epw.find_point_lines",
    "epw.find_point_budget_miss",
    "incidence.scenario_miss",
    "quadrics.field_scan_points",
)


def _layer_units():
    units = {}
    for name in _CALLS:
        units[name] = "count"
    for name in _SELF:
        units[name] = "s"
    for name in _COUNTS:
        units[name] = "count"
    units["epw.find_point_hit_ratio"] = "ratio"
    units["quadrics.bitangent_hit_ratio"] = "ratio"
    for name in ("fpkernel.det10_us", "fpkernel.rank25x20_us", "fpkernel.rank4x4_us", "fpkernel.rref12x20_us"):
        units[name] = "us"
    for suite in SUITE_ORDER:
        units[f"suites.{suite}_cpu_s"] = "s"
    units["cli.wall_over_cpu"] = "ratio"
    units["trace.untraced_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER = _layer_units()


def _git_sha():
    """HEAD of the checkout, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_seconds():
    """Wall seconds from spawning a fresh interpreter to its "ready" line."""
    probe = [sys.executable, str(HERE / "probe.py"), str(ROOT)]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    if line != b"ready\n" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
    return elapsed


def _run_op(wl, seed, tracer=None, op_id=0):
    """Time one op (process CPU and wall), then verify its output."""
    inputs = wl.prepare(seed)
    gc.collect()
    suite_cpu = {}
    if tracer is not None:
        tracer.install(op_id)
    try:
        with suite_clock(suite_cpu) if tracer is None else contextlib.nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                out, error = wl.run(inputs), None
            except Exception:  # an op that raises is a failed op, not a crash
                out, error = None, traceback.format_exc()
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        if tracer is not None:
            tracer.uninstall()
    op = {"seed": seed, "cpu_s": cpu, "wall_s": wall, "suite_cpu_s": suite_cpu}
    if tracer is not None:
        op["profile"] = tracer.op_profile()
    op["sha256"] = out["sha256"] if out else None
    if error is None:
        try:
            op["problems"] = wl.verify(inputs, out)
        except Exception:  # a malformed output is a failed op
            op["problems"] = [traceback.format_exc()]
    else:
        op["problems"] = [error]
    return op


def _summary(values):
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values), "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if len(values) >= 100:  # at least ten samples beyond the 90th percentile
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


def _plain(wl, seed, n_ops):
    setup = [_setup_seconds() for _ in range(SETUP_PROBES)]
    ops = [_run_op(wl, op_seed(seed, k)) for k in range(n_ops)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {
        "setup_s": setup,
        "op_cpu_s": [op["cpu_s"] for op in ops],
        "op_wall_s": [op["wall_s"] for op in ops],
    }
    summary = {name: _summary(v) for name, v in samples.items()}
    metrics = {name: summary[name]["median"] for name in samples}
    metrics["peak_rss_mb"] = rss_mb
    return metrics, summary, ops


def _layers_of(op):
    calls, self_s, root_s, counts = op["profile"]
    values = {name: calls.get(span, 0) for name, span in _CALLS.items()}
    values.update({name: sum(self_s.get(s, 0.0) for s in spans) for name, spans in _SELF.items()})
    values.update({name: counts.get(name, 0) for name in _COUNTS})
    values["trace.untraced_s"] = op["cpu_s"] - root_s
    return values


def _trace_problems(op):
    """Self times must add up to the thread-root time, inside the op's CPU."""
    _, self_s, root_s, _ = op["profile"]
    total = sum(self_s.values())
    problems = []
    if abs(total - root_s) > 1e-6 * max(1.0, root_s):
        problems.append(f"self times sum to {total:.6f} s, thread roots cover {root_s:.6f} s")
    if op["cpu_s"] - root_s < -1e-3:
        problems.append(f"spans cover {root_s:.6f} s of an op of {op['cpu_s']:.6f} s CPU")
    return problems


def _traced(wl, seed, n_ops):
    kernel_metrics, kernel_problems = kernels.run(seed)
    tracer = Tracer()
    plain, traced = [], []
    for k in range(max(1, n_ops // 2)):
        plain.append(_run_op(wl, op_seed(seed, k)))
        traced.append(_run_op(wl, op_seed(seed, k), tracer, k))
        traced[-1]["problems"] += _trace_problems(traced[-1])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{seed}.spans")

    per_op = [_layers_of(op) for op in traced]
    metrics = {name: statistics.fmean(v[name] for v in per_op) for name in per_op[0]}
    totals = {}
    for op in traced:
        for key, v in op["profile"][3].items():
            totals[key] = totals.get(key, 0) + v
    lines = totals.get("epw.find_point_lines", 0)
    metrics["epw.find_point_hit_ratio"] = totals.get("epw.find_point_found", 0) / lines if lines else 0.0
    bitangents = sum(op["profile"][0].get("quadrics.bitangent", 0) for op in traced)
    metrics["quadrics.bitangent_hit_ratio"] = (
        totals.get("quadrics.bitangent_found", 0) / bitangents if bitangents else 0.0
    )
    metrics.update(kernel_metrics)
    for suite in SUITE_ORDER:
        metrics[f"suites.{suite}_cpu_s"] = statistics.fmean(op["suite_cpu_s"].get(suite, 0.0) for op in plain)
    plain_cpu = sum(op["cpu_s"] for op in plain)
    metrics["cli.wall_over_cpu"] = sum(op["wall_s"] for op in plain) / plain_cpu
    metrics["trace.overhead"] = sum(op["cpu_s"] for op in traced) / plain_cpu
    summary = {
        "traced_op_cpu_s": _summary([op["cpu_s"] for op in traced]),
        "untraced_op_cpu_s": _summary([op["cpu_s"] for op in plain]),
        "self_s_by_span": _merge_self(traced),
    }
    kernel_op = {"seed": seed, "kernel_microbench": True, "problems": kernel_problems}
    return metrics, summary, plain + traced + [kernel_op]


def _merge_self(ops):
    out = {}
    for op in ops:
        for name, v in op["profile"][1].items():
            out[name] = out.get(name, 0.0) + v / len(ops)
    return dict(sorted(out.items()))


def main(args):
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT / "report.json")
    n_ops = max(1, int(args.seconds // wl.op_seconds))
    run = _traced if args.trace else _plain
    metrics, summary, ops = run(wl, args.seed, n_ops)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for op in ops if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "backend": epwcalc.BACKEND,
        "git_sha": _git_sha(),
        "op_seeds": [op["seed"] for op in ops if "cpu_s" in op],
        "report_sha256": [op["sha256"] for op in ops if "sha256" in op],
    }
    record = {
        "result": result,
        "provenance": provenance,
        "summary": summary,
        "ops": [{k: v for k, v in op.items() if k != "profile"} for op in ops],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED op seed {op['seed']}: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed, backend {epwcalc.BACKEND}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        extra = summary.get(name)
        note = f"  (median of {extra['n']}, q1 {extra.get('q1', extra['min']):.4g}, q3 {extra.get('q3', extra['max']):.4g})" if extra else ""
        print(f"  {name:32} {entry['value']:.6g} {entry['unit']}{note}", file=sys.stderr)
    for name, extra in summary.items():
        if name not in units and "median" in extra:
            print(f"  {name:32} {extra['median']:.6g} (median of {extra['n']}, not a gated metric)", file=sys.stderr)
    print(json.dumps(result))
    return 0

