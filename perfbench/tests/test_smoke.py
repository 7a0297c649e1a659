"""Tiny-size runs of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
    SPEC = json.load(source)


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_code():
    import layers

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.build())
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in workloads.build().values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, unit, better)
            for name, (unit, better) in layers.PER_LAYER.items()]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.build()))
def test_tiny_run(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.execute_split_error"]["value"] <= 0.01


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", "catalog_mix", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
