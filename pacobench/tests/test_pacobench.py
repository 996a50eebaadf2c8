"""The benchmark's own tests: stable metric names and failing checks."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_the_benchmark_spec():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "pacobench/run.py"]


def test_every_layer_has_a_call_count_metric():
    names = {name for name, _unit in run.PER_LAYER}
    assert {f"{layer}.py_calls" for layer in tracing.LAYERS} <= names
    assert {"setup_s", "sim_instr_per_s"}.isdisjoint(names)


@pytest.fixture(scope="module")
def small_result():
    from repro.runner import accuracy_job, execute_job
    job = accuracy_job("gzip", instructions=2_000, warmup_instructions=1_000,
                       backend="trace", instrument="paco")
    return job, execute_job(job)


def test_check_passes_a_sound_result(small_result):
    job, value = small_result
    assert workloads.check_value(job, value) is None


def test_check_fails_a_short_run(small_result):
    job, value = small_result
    short = dataclasses.replace(
        value, stats=dataclasses.replace(value.stats,
                                         retired_instructions=100))
    assert "retired 100" in workloads.check_value(job, short)


def test_check_fails_a_non_finite_statistic(small_result):
    job, value = small_result
    corrupted = dataclasses.replace(value, rms_errors={"paco": math.nan})
    assert workloads.check_value(job, corrupted) == "non-finite statistic"


def test_digest_moves_with_any_statistic(small_result):
    job, value = small_result
    base = workloads.statistics_digest([(job, value)])
    assert workloads.statistics_digest([(job, value)]) == base
    nudged = dataclasses.replace(
        value, overall_mispredict_rate=math.nextafter(
            value.overall_mispredict_rate, 1.0))
    assert workloads.statistics_digest([(job, nudged)]) != base


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "pacobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "pacobench/run.py", "--workload", "predictor-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_self_time_subtracts_direct_children():
    chunk = {"start": [0.0, 1.0, 2.0], "end": [10.0, 4.0, 3.0],
             "parent": [-1, 0, 1]}
    assert tracing.self_times(chunk) == [7.0, 2.0, 1.0]
