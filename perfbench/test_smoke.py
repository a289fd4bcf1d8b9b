"""Smoke test of the benchmark at reduced size: ``--seconds 0``, so each run
makes only the minimum number of invocations, on the shortest workloads.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "0", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize(("workload", "trace", "table"), [
    ("sandwich", "0", "end_to_end"),
    ("goodness", "1", "per_layer"),
])
def test_every_metric_is_printed_with_its_unit(workload, trace, table):
    code, lines = run_bench(ROOT, "--workload", workload, "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in DECLARED[table]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert f"{workload} {name} {value} {unit}" in lines
    assert f"{workload} error_rate 0.0 1" in lines


def checkout_with(tmp_path: Path, cli_suffix: str) -> Path:
    """A copy of src/ and perfbench/ whose cli.py ends with ``cli_suffix``."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "banachkit" / "cli.py"
    cli.write_text(cli.read_text() + cli_suffix)
    return tmp_path


# main() still runs the real command, then rewrites its report before it
# reaches the benchmark.
CORRUPT_REPORT = '''
_real_main = main


def main(argv=None):
    real, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = _real_main(argv)
        report = sys.stdout.getvalue()
    finally:
        sys.stdout = real
    sys.stdout.write(report.replace({old!r}, {new!r}, 1))
    return code
'''


@pytest.mark.parametrize(("old", "new"), [
    ('"verdict": "good-within-tolerance"', '"verdict": "oscillating"'),
    ('"inf": 1.0,', '"inf": 1.000001,'),
])
def test_corrupted_output_counts_as_failure(tmp_path, old, new):
    root = checkout_with(tmp_path, CORRUPT_REPORT.format(old=old, new=new))
    code, lines = run_bench(root, "--workload", "goodness")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert "goodness error_rate 1.0 1" in lines


# The n-th invocation makes n extra l_2 norm calls, so no two invocations do
# the same work although every report stays correct.
UNREPEATABLE_WORK = '''
_real_main = main
_calls = __import__("pathlib").Path(__file__).with_name("calls")


def main(argv=None):
    n = int(_calls.read_text()) if _calls.exists() else 0
    _calls.write_text(str(n + 1))
    for _ in range(n):
        Lp(2.0).norm(SparseVector.unit(1))
    return _real_main(argv)
'''


def test_count_that_does_not_repeat_fails_the_run(tmp_path):
    code, lines = run_bench(checkout_with(tmp_path, UNREPEATABLE_WORK), "--workload", "goodness", "--trace", "1")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = run_bench(tmp_path, "--workload", "goodness")
    assert code != 0
    assert lines == []
