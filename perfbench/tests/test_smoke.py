"""A few-batch run of every workload, untraced and traced.

Each run starts the real servers, so the module takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0"))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1")
    result = _result(proc)
    detail = json.loads(proc.stdout.strip().splitlines()[-2].split(" ", 1)[1])
    assert result["correct"], detail["findings"]
    assert detail["missing_wrappers"] == []
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["net.client.batch_ms_p50"] > 0
    assert metrics["exec.maintain_ms_p50"] > 0
    assert 0 <= metrics["unattributed_share"] < 1
    if WORKLOADS[workload].durable:
        assert metrics["durability.wal_append_ms_p50"] > 0
    if WORKLOADS[workload].topology == "router":
        assert metrics["cluster.scatter_ms_p50"] > 0
    if workload == "shared-views":
        assert metrics["service.dag.factor_ms_p50"] > 0
        assert metrics["service.dag.programs_per_view"] < 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "wire-q6", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
