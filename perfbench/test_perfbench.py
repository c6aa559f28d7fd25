"""Tests of the benchmark's own checks and tracer.

Run: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import kernels  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from epwcalc import cli, epw, linalg, scalars, suites  # noqa: E402


def _cli_out(checks, rc, **fields):
    report = {"suite": "all", "seed": 3, "prime": 10007, "checks": checks, "ms": 0, **fields}
    return {"rc": rc, "report": json.dumps(report).encode(), "sha256": "x"}


def _battery_checks():
    checks = [{"id": f"{s}.c", "status": "pass"} for s in cli.SUITE_ORDER]
    checks.append({"id": workloads.PINNED_FAIL, "status": "fail"})
    return checks


BATTERY_ARGV = workloads.Battery(Path("r.json")).prepare(3)


def test_battery_accepts_the_expected_report():
    assert workloads.Battery(Path("r.json")).verify(BATTERY_ARGV, _cli_out(_battery_checks(), 1)) == []


@pytest.mark.parametrize("index", [0, -1])
def test_battery_counts_a_flipped_status_as_failed(index):
    checks = _battery_checks()
    checks[index]["status"] = "pass" if checks[index]["status"] == "fail" else "fail"
    assert workloads.Battery(Path("r.json")).verify(BATTERY_ARGV, _cli_out(checks, 1))


def test_battery_counts_a_skip_or_missing_suite_as_failed():
    battery = workloads.Battery(Path("r.json"))
    skipped = _battery_checks()
    skipped[2]["status"] = "skip"
    assert battery.verify(BATTERY_ARGV, _cli_out(skipped, 1))
    assert battery.verify(BATTERY_ARGV, _cli_out(_battery_checks()[1:], 1))


def test_large_prime_counts_a_flipped_status_as_failed():
    lp = workloads.LargePrime(Path("r.json"))
    argv = lp.prepare(3)
    checks = [{"id": f"c{i}", "status": "pass"} for i in range(10)]
    assert lp.verify(argv, _cli_out(checks, 0, prime=workloads.LARGE_PRIME)) == []
    checks[4]["status"] = "fail"
    assert lp.verify(argv, _cli_out(checks, 1, prime=workloads.LARGE_PRIME))


@pytest.fixture(scope="module")
def rational():
    wl = workloads.RationalQQ()
    inputs = wl.prepare(5)
    return wl, inputs, wl.run(inputs)


def test_rational_qq_op_verifies(rational):
    wl, inputs, out = rational
    assert wl.verify(inputs, out) == []


def test_rational_qq_counts_a_wrong_det_as_failed(rational):
    wl, inputs, out = rational
    bad = dict(out, dets=[out["dets"][0] + 1] + out["dets"][1:])
    assert any("differs" in p for p in wl.verify(inputs, bad))


def test_rational_qq_counts_a_bad_fiber_or_kernel_as_failed(rational):
    wl, inputs, out = rational
    assert wl.verify(inputs, dict(out, fibers=[(10, False)] + out["fibers"][1:]))
    assert wl.verify(inputs, dict(out, kernel=1))


def test_kernel_microbench_checks_pass():
    metrics, problems = kernels.run(0)
    assert problems == []
    assert set(metrics) == {name for name, *_ in kernels.SHAPES}
    assert all(v > 0 for v in metrics.values())


def _patched_names():
    return (
        cli.main,
        epw.pairing_det,
        epw.fp_det,
        linalg.fp_rank,
        linalg.Matrix.__init__,
        linalg.Matrix.rank,
        scalars.PrimeField.of,
        dict(suites.SUITES),
    )


def test_tracer_self_times_add_up_and_names_are_restored(tmp_path):
    before = _patched_names()
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        rc = cli.main(["run", "exterior", "--trials", "4", "--json", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert _patched_names() == before
    calls, self_s, root_s, counts = tracer.op_profile()
    assert calls["cli.main"] == 1 and calls["suites.exterior"] == 1
    assert calls["exterior.fiber"] >= 2 and counts["scalars.coerce_calls"] > 0
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-9)
    assert all(v >= -1e-6 for v in self_s.values())

    path = tmp_path / "t.spans"
    tracer.write(path)
    header, threads = spans.read_spans(path)
    assert sum(len(t["name"]) for t in threads) == sum(calls.values())
    names = [header["names"][i] for t in threads for i in t["name"]]
    assert names.count("suites.exterior") == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "battery", "--seed", "1"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
