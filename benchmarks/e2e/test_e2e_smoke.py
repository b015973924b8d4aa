"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

Runs the whole benchmark once with two runs per workload, one workload in
the fixed-time form used by ``BENCHMARK.json``'s command, and the command
in a directory that holds the benchmark but not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import PACKAGE_DIR, ROOT, SPEC_PATH
from benchmarks.e2e.measure import SIMULATED

SPEC = json.loads(SPEC_PATH.read_text())


def _benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    done = _benchmark("--quick", "--runs", "2", "--seed", "0", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_every_named_workload_and_metric_is_emitted_with_its_unit(quick_report):
    report, stdout = quick_report
    assert [w["name"] for w in SPEC["workloads"]] == list(report["workloads"])
    for name, data in report["workloads"].items():
        for metric in SPEC["end_to_end"]:
            assert data["end_to_end"][metric["name"]]["unit"] == metric["unit"]
            assert f"{name:<14} {metric['name']:<22} {metric['unit']:<12}" in stdout
        for metric in SPEC["per_layer"]:
            assert data["layers"][metric["name"]]["unit"] == metric["unit"]


def test_checks_pass_and_runs_of_one_seed_agree(quick_report):
    report, _stdout = quick_report
    assert report["correct"]
    for data in report["workloads"].values():
        assert data["errors"] == []
        for metric in SIMULATED:
            summary = data["end_to_end"][metric]
            assert summary["n"] == 2
            assert len(set(summary["values"])) == 1, metric


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_fixed_time_form_prints_the_contract_line(trace, section):
    done = _benchmark(
        "--quick", "--workload", "fleet_sharded", "--seed", "3", "--seconds", "1", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PACKAGE_DIR,
        tmp_path / PACKAGE_DIR.relative_to(ROOT),
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = _benchmark("--workload", "paper_e2e", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
