"""Smoke test of the benchmark's own code, at a tiny size.

Runs ``perfbench/run.py --workload all --tiny`` untraced and traced, and
checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that the metric table and ``BENCHMARK.json`` agree, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    done = _bench("--workload", "all", "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    # The sweep's slope and learning checks are statements about long
    # horizons; at the tiny size they are the only checks allowed to fail.
    failures = [line for line in done.stderr.splitlines() if line.startswith("check failed")]
    assert len(failures) == result["failed"]
    assert all("log-log regret slope" in line or "of uniform play's" in line
               for line in failures), failures

    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert value["value"] == value["value"]  # not NaN


def test_benchmark_json_matches_the_tables():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": "lower"} for m in metrics.PER_LAYER]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
