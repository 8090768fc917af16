"""Smoke test of the benchmark at tiny scale.

Every workload runs traced and untraced, reports exactly the metrics that
``BENCHMARK.json`` names and agrees with the oracle; a corrupted oracle
fails the run; and without the engine's source tree the command exits
non-zero without a result line.  Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

sys.path.insert(0, bench.SRC)
import oracle  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(cold_rows=400, hot_rows=300, hot_query_series=40, hot_warmup=20,
                       durable_rows=300, batch_rows=10, checkpoint_every=3, epoch_batches=4,
                       tail_batches=2, setup_repeats=2, reopen_repeats=2)

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_tiny(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = bench.main(["--workload", workload, "--seed", "7", "--seconds", "1.5",
                       "--trace", str(trace)], sizes=TINY)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_reports_every_declared_metric(capsys, workload, trace):
    code, result = run_tiny(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_oracle_fails_the_run(capsys, monkeypatch, workload):
    honest = oracle.Oracle.distances
    monkeypatch.setattr(oracle.Oracle, "distances",
                        lambda self, query: honest(self, query) * 1.01)
    code, result = run_tiny(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_exits_without_result_when_engine_source_is_missing(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
