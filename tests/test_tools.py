import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from epwcalc import cli, suites

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "acceptance.py"
SIZE = SCRIPT.parent / "size.py"
HEAP = SCRIPT.parent / "heap.py"
ARGS = SCRIPT.parent / "args.py"


def _acceptance():
    spec = importlib.util.spec_from_file_location("acceptance", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_script_reads_the_cli_report(tmp_path, capsys):
    """One configuration at --trials 2: the script's sha and statuses are
    those of the CLI's own report, and `differences` names a changed sha
    and a changed status, and nothing else."""
    out = tmp_path / "table.json"
    args = [str(out), "--only", "seed0@17", "--trials", "2"]
    run = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    table = json.loads(out.read_text(encoding="utf-8"))

    assert cli.main(["run", "all", "--seed", "0", "--prime", "17", "--trials", "2"]) == 1
    report = capsys.readouterr().out
    sha = hashlib.sha256(report.encode("utf-8")).hexdigest()
    statuses = {c["id"]: c["status"] for c in json.loads(report)["checks"]}
    assert table == {"seed0@17": {"sha256": sha, "statuses": statuses}}
    passed = sum(status == "pass" for status in statuses.values())
    assert passed == len(statuses) - 1 and statuses["schubert.sym6_top_chern_stated_constant"] == "fail"
    assert run.stdout == f"seed0@17       {sha[:8]}  {passed} pass 1 fail 0 skip\n"

    acceptance = _acceptance()
    assert len(acceptance.CONFIGURATIONS) == 23
    assert acceptance.differences(table, table) == []
    old = {"seed0@17": {"sha256": "0" * 64, "statuses": {**statuses, "quadrics.random_scan": "fail"}}}
    assert acceptance.differences(old, table) == [
        f"seed0@17: bytes differ (00000000 -> {sha[:8]})",
        "seed0@17 quadrics.random_scan: fail -> pass",
    ]
    assert acceptance.differences({}, table) == ["seed0@17: not in the old table"]


def test_size_counts_lines_and_code_tokens(tmp_path):
    """Lines as `wc -l` counts them; NAME, OP, NUMBER and STRING tokens, so
    a comment, a blank line and a docstring's length add no token."""
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""A docstring of some length."""\n\ndef f(a, b):\n    return a + b  # sum\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    run = subprocess.run([sys.executable, str(SIZE), str(tmp_path)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert [line.split() for line in run.stdout.splitlines()] == [
        ["a.py", "1", "lines", "3", "tokens"],
        ["b.py", "4", "lines", "13", "tokens"],
        ["total", "5", "lines", "16", "tokens"],
    ]


def test_heap_prints_one_peak_per_named_suite():
    """One line per named suite: its name and a positive peak in KiB."""
    run = subprocess.run([sys.executable, str(HEAP), "bbf", "--trials", "2"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    [(name, kib, unit)] = [line.split() for line in run.stdout.splitlines()]
    assert (name, unit) == ("bbf", "KiB") and int(kib) > 0


def test_args_lists_the_parameters_no_workload_varies():
    """The census of one battery op and one rational_qq op at seed 7, and of
    `run all` at seed 0, p = 17 and one trial, lists the point search's
    budget and the scan prime of `_Slots`, which no run varies, among the
    candidates, and none of the arguments that callers used to fix, the line
    of `bitangent_pair` among them, nor the sample count of `sextic_on_line`,
    which its callers set to 7 and 11, nor a parameter that carries the
    run's seed, prime, field, trials or config. The parameters of functions
    called at most once per op, every check and fixture of the suites among
    them, are printed apart after the candidates."""
    run = subprocess.run([sys.executable, "-B", str(ARGS)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    candidates, once = run.stdout.split("\n\ncalled once per op:\n")
    sections = [[line.split("  ") for line in part.splitlines()] for part in (candidates, once)]
    candidates, once = sections
    # the three ops call a function at most three times when it is called
    # at most once per op; a candidate is called at least twice
    assert all(int(row[2].removeprefix("calls=")) > 1 for row in candidates)
    assert all(int(row[2].removeprefix("calls=")) <= 3 for row in once)
    rows = candidates + once
    params = {(qual, name_value.partition("=")[0]) for qual, name_value, _ in rows}
    assert any(row[:2] == ["epw.find_point_stats", "budget=60"] and row[2].startswith("calls=") for row in candidates)
    assert any(row[:2] == ["quadrics._Slots.__init__", "p=61"] for row in candidates)
    checks = {f"suites.{check.__name__}" for entries in suites.CHECKS.values() for check, *_ in entries}
    assert checks & {row[0] for row in once} and not checks & {row[0] for row in candidates}
    assert ("epw.sextic_on_line", "samples") not in params
    assert ("quadrics.bitangent_pair", "pencil") not in params
    assert ("quadrics.bitangent_pair", "line") not in params
    assert ("epw.a_plus", "ubasis") not in params
    for qual, name in [
        ("rng.derive_rng", "seed"),
        ("suites.Fp", "prime"),
        ("fpkernel.fp_det", "p"),
        ("fpkernel.fp_rref", "p"),
        ("linalg.smallest_root", "p"),
        ("suites._random_3_space", "field"),
        ("suites._cubes_pair_to_zero", "sp"),
        ("suites.points", "trials"),
        ("suites.run_checks", "cfg"),
    ]:
        assert (qual, name) not in params
